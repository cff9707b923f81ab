"""The benchmark harness `perfbench/run.py` calls into the package to count
the vectors a run must print, to draw the order of a seed and to time
set-up; a change to the package that breaks those calls fails here instead
of in a benchmark run.  The harness is imported as the module `run`, as its
own tracer imports it, and is only read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qshuffle import cartan

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


def _golden_total(workload):
    """The vector count on the `total` line of a workload's golden output."""
    (total,) = [line for line in (PERFBENCH / "golden" / f"{workload.name}.txt").read_text().splitlines()
                if line.startswith("total ")]
    (vectors,) = [field for field in total.split() if field.startswith("vectors=")]
    return int(vectors.removeprefix("vectors="))


@pytest.mark.parametrize(
    "name, vectors",
    [("a3-positivity", 369), ("d4-invariants", 320), ("b2-reality", 40), ("a2-selfcheck", 21)],
)
def test_expected_vectors_match_the_goldens(harness, name, vectors):
    workload = harness.SELF_CHECK if name == harness.SELF_CHECK.name else harness.WORKLOADS[name]
    assert harness.expected_vectors(cartan, workload) == _golden_total(workload) == vectors


@pytest.mark.parametrize("name", ["a3-positivity", "d4-invariants", "b2-reality"])
def test_seed_orders_keep_the_datum(harness, name):
    workload = harness.WORKLOADS[name]
    datum = cartan.parse(workload.type)
    for seed in range(4):
        order = harness.seed_order(cartan, workload, seed)
        assert sorted(order) == list(range(1, datum.rank + 1))
        assert cartan.reorder(datum, order) == datum


def test_setup_probe_is_ready_in_a_fresh_process(harness):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-S", "-c", harness.SETUP_PROBE, "D4", "2,1,3,4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "ready\n", "")
