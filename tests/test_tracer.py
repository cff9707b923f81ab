"""The traced benchmark wraps names of the package from outside; a rename
that breaks it fails here instead of in a traced benchmark run."""

import importlib.util
from pathlib import Path

import qshuffle
from qshuffle import basis, cartan

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_instruments_and_restores_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    mul = qshuffle.laurent.LaurentPoly.__mul__
    tracer = tracer_module.Tracer()
    tracer_module.instrument(tracer, qshuffle)
    try:
        # A3 has a diagram automorphism, so its scan also seeds weights
        reports = [
            basis.scan(basis.GoodLyndonTable(cartan.parse(label)), max_height, "reality")
            for label, max_height in (("B2", 3), ("A3", 4))
        ]
    finally:
        tracer.unwrap_all()
    assert [report.total_violations for report in reports] == [0, 0]
    assert tracer.agg["basis.check"][0] == sum(len(report.entries) for report in reports)
    assert tracer.agg["laurent.mul"][0] > 0
    # the element operations and the product the benchmark times are still
    # the names it wraps
    assert tracer.agg["shuffle.elt"][0] > 0 and tracer.agg["shuffle.qshuffle"][0] > 0
    assert qshuffle.laurent.LaurentPoly.__mul__ is mul
    assert isinstance(qshuffle.shuffle._CACHE, dict)
