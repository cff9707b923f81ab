"""`basis.scan` straightens only the first weight of each orbit of the
diagram automorphisms and relabels the vectors of the later members.  The
scan must agree with the per-weight reference in `scan_oracle`, every
relabeled weight with a fresh construction, and a letter map that does not
fix the datum must be caught."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scan_oracle
from qshuffle import basis, cartan
from qshuffle.laurent import TheoryViolation

ROOT = Path(__file__).resolve().parent.parent


def _scan_capturing(monkeypatch, table, max_height):
    """Scan with a check that keeps every weight's vectors; also the internal
    weights the table straightened."""
    captured, built = [], []
    monkeypatch.setitem(basis._SCAN_CHECKS, "capture", lambda table, vectors: captured.append(vectors) or [])
    straighten = basis.GoodLyndonTable._dual_canonical_weight_i

    def recording(self, nui):
        built.append(nui)
        return straighten(self, nui)

    monkeypatch.setattr(basis.GoodLyndonTable, "_dual_canonical_weight_i", recording)
    report = basis.scan(table, max_height, "capture")
    monkeypatch.undo()
    return report, captured, built


@pytest.mark.parametrize("check", ["positivity", "reality", "invariants"])
@pytest.mark.parametrize(
    "label, max_height, order", [("A3", 6, None), ("A3", 6, (3, 2, 1)), ("D4", 4, None), ("D4", 4, (4, 1, 3, 2))]
)
def test_scan_records_equal_the_per_weight_oracle(label, max_height, order, check):
    datum = cartan.parse(label)
    report = basis.scan(basis.GoodLyndonTable(datum, order), max_height, check)
    expected = scan_oracle.scan_records(basis.GoodLyndonTable(datum, order), max_height, check)
    assert [(e.weight, e.vectors, e.violations) for e in report.entries] == expected


@pytest.mark.parametrize(
    "label, max_height, straightened",
    [("A3", 7, 69), ("D4", 5, None), ("A4", 6, None), ("D5", 4, None), ("E6", 4, None)],
)
def test_relabeled_weights_equal_a_fresh_construction(monkeypatch, label, max_height, straightened):
    datum = cartan.parse(label)
    table = basis.GoodLyndonTable(datum)
    report, captured, built = _scan_capturing(monkeypatch, table, max_height)
    weights = [e.weight for e in report.entries]
    assert weights == list(cartan.weights_up_to_height(datum.rank, max_height))
    derived = [(nu, vectors) for nu, vectors in zip(weights, captured) if nu not in built]
    assert len(built) + len(derived) == len(weights) and derived
    if straightened is not None:
        assert len(built) == straightened
    fresh = basis.GoodLyndonTable(datum)
    for nu, vectors in derived:
        want = fresh._dual_canonical_weight_i(nu)
        assert [(g, {w: c.terms for w, c in elt.terms.items()}, kappa) for g, elt, kappa in vectors] == [
            (g, {w: c.terms for w, c in elt.terms.items()}, kappa) for g, elt, kappa in want
        ], nu
        assert all(elt.weight == nu for _, elt, _ in vectors)


def test_a_datum_without_automorphisms_straightens_every_weight(monkeypatch):
    table = basis.GoodLyndonTable(cartan.parse("B2"))
    report, _, built = _scan_capturing(monkeypatch, table, 5)
    assert len(built) == len(report.entries)


SWAP_12 = """
from qshuffle import basis, cartan
from qshuffle.laurent import TheoryViolation
table = basis.GoodLyndonTable(cartan.parse("A3"))
nu = (0, 1, 1)
try:
    basis._relabeled(table, (0, 2, 1, 3), table._dual_canonical_weight_i(nu), (1, 0, 1))
except TheoryViolation as exc:
    print(exc)
else:
    raise SystemExit("relabeled by a map that does not fix the datum")
"""


def test_a_letter_map_that_breaks_the_datum_raises_a_located_violation_under_optimization():
    # the image of the vector at 2,3 has maximal word 1,3, which is not good
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-O", "-c", SWAP_12], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "the image at weight 1,0,1 has maximal word w[1,3]" in done.stdout
    assert "[A3 order 1,2,3 weight 0,1,1 good word w[2,3]]" in done.stdout


def test_relabeling_by_a_missing_good_word_names_it():
    # (1,0,1) has one vector, (0,1,1) two good words: 1,3 is no root of A3,
    # but its image 2,3 is
    table = basis.GoodLyndonTable(cartan.parse("A3"))
    vectors = table._dual_canonical_weight_i((1, 0, 1))
    with pytest.raises(TheoryViolation, match=r"no relabeled vector .* weight 0,1,1 good word w\[2,3\]\]"):
        basis._relabeled(table, (0, 2, 1, 3), vectors, (0, 1, 1))
