"""Word reversal on the dual canonical basis: reversing the words of b*_g
gives another vector of the same weight, so construction straightens one
vector of each reversal pair and derives its partner.  The theory against
the every-word straightening in `straightening_oracle`, the work it saves,
and the guards that a reversal which breaks the theory raises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import straightening_oracle as oracle
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import StraighteningFailure
from qshuffle.laurent import LaurentPoly
from qshuffle.shuffle import ShuffleElt

ROOT = Path(__file__).resolve().parent.parent

THEORY_RANGES = [
    ("A3", 6, None),
    ("A3", 6, (2, 1, 3)),
    ("B2", 6, None),
    ("G2", 6, None),
    ("C3", 4, (3, 1, 2)),
    ("D4", 4, (4, 3, 2, 1)),
]


@pytest.mark.parametrize("label, max_height, order", THEORY_RANGES)
def test_reversal_permutes_the_vectors_of_each_weight(label, max_height, order):
    table = basis.GoodLyndonTable(cartan.parse(label), order)
    moved = 0
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        vectors = {g: elt.terms for g, elt, _ in oracle.dual_canonical_weight(table, table._nu_in(nu))}
        images = {}
        for g, terms in vectors.items():
            image = {w[::-1]: c for w, c in terms.items()}
            h = max(image)
            assert h not in images and vectors.get(h) == image, (nu, g)
            images[h] = g
            moved += h != g
        assert sorted(images) == sorted(vectors), nu
    assert moved


@pytest.mark.parametrize("label, max_height, order", THEORY_RANGES)
def test_each_vector_names_the_smaller_word_of_its_reversal_pair_as_origin(label, max_height, order):
    # the pass straightens the smaller word g of each pair and takes the
    # reversal of b*_g at the larger one, so the reality check can carry
    # g's verdict there
    table = basis.GoodLyndonTable(cartan.parse(label), order)
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        for g, elt, origin in table._dual_canonical_weight_i(table._nu_in(nu)):
            assert origin == min(g, shuffle.max_word(shuffle.tau(elt))), (nu, g)


def _scan_counts(monkeypatch, label, max_height):
    """The dual PBW builds and straightening corrections of one positivity
    scan; the builds of factor groups inside a build are not counted.  Each
    correction takes its gamma as a positive part, and nothing else of a
    scan calls `LaurentPoly.positive_part`."""
    table = basis.GoodLyndonTable(cartan.parse(label))
    real_pbw, real_positive = table._dual_pbw_i, LaurentPoly.positive_part
    built, corrections = [], []
    depth = 0

    def counting(wi, factors=None):
        nonlocal depth
        if wi not in table._pbw_memo and not depth:
            built.append(wi)
        depth += 1
        try:
            return real_pbw(wi, factors)
        finally:
            depth -= 1

    def correcting(delta):
        corrections.append(delta)
        return real_positive(delta)

    monkeypatch.setattr(table, "_dual_pbw_i", counting)
    monkeypatch.setattr(LaurentPoly, "positive_part", correcting)
    report = basis.scan(table, max_height, "positivity")
    assert report.total_violations == 0
    return report.total_vectors, len(built), len(corrections)


def test_positivity_scans_build_one_dual_pbw_vector_per_reversal_pair(monkeypatch):
    # every good word of every straightened weight built its E* before:
    # 217 builds and 391 corrections on A3 up to height 7
    assert _scan_counts(monkeypatch, "B2", 5) == (40, 29, 12)
    assert _scan_counts(monkeypatch, "A3", 7) == (369, 131, 97)


# -- guards ------------------------------------------------------------------------


def _spoilt(table, g, alter):
    """Replace the table's dual PBW vector at the internal good word g by
    `alter(vector)`."""
    real = table._dual_pbw_i

    def spoilt(wi, factors=None):
        elt = real(wi, factors)
        return alter(elt) if wi == g else elt

    table._dual_pbw_i = spoilt


def _located(message, table, nu, g):
    fields = (
        str(table.datum),
        f"order {','.join(map(str, table.order))}",
        f"weight {cartan.format_weight(nu)}",
        f"good word {shuffle.format_word(g)}",
    )
    for field in fields:
        assert field in message, (field, message)


def test_a_reversed_image_whose_coefficient_is_not_kappa_raises():
    # doubling E*_{1,2} and its kappa straightens to 2 w[1,2], whose
    # reversal reaches 2,1 with coefficient 2, not kappa = 1; w[1,2] is a
    # good Lyndon word, so its dual root vector and kappa are doubled
    table = basis.GoodLyndonTable(cartan.parse("A2"))
    r, root, kappa, d = table._root_i((1, 2))
    table._roots[(1, 2)] = (r, root.scaled(2), kappa * 2, d)
    with pytest.raises(StraighteningFailure, match="coefficient is not kappa") as info:
        table._dual_canonical_weight_i((1, 1))
    _located(str(info.value), table, (1, 1), (2, 1))


REVERSALS = [
    # b*_{2,3,1} + b*_{1,2,3} reverses onto 3,2,1, which b*_{1,2,3} holds
    ("A3", (1, 1, 1), (2, 3, 1), lambda t: t._dual_pbw_i((1, 2, 3)), (2, 3, 1), (3, 2, 1)),
    # a word below 2,3,2,1,1 whose reversal 3,2,1,1,2 lies above the
    # partner of 2,3,2,1,1 and is not good
    (
        "A3",
        (2, 2, 1),
        (2, 3, 2, 1, 1),
        lambda t: ShuffleElt.from_word(t._idatum, (2, 1, 1, 2, 3)),
        (2, 3, 2, 1, 1),
        (3, 2, 1, 1, 2),
    ),
    # the spoilt vector at 2,3,1,3,1 reverses onto 3,2,1,3,1, so its partner
    # 3,1,3,2,1 is straightened, and that reverses onto 2,3,1,3,1 below it
    (
        "D4",
        (2, 1, 2, 0),
        (2, 3, 1, 3, 1),
        lambda t: ShuffleElt.from_word(t._idatum, (1, 3, 1, 2, 3)),
        (3, 1, 3, 2, 1),
        (2, 3, 1, 3, 1),
    ),
]


@pytest.mark.parametrize("label, nu, spoilt, extra, named, top", REVERSALS, ids=["held", "not-good", "below"])
def test_a_reversal_that_is_held_not_good_or_below_raises(label, nu, spoilt, extra, named, top):
    table = basis.GoodLyndonTable(cartan.parse(label))
    added = extra(table)
    _spoilt(table, spoilt, lambda elt: elt + added)
    reached = re.escape(f"reversal has maximal word {shuffle.format_word(top)}")
    with pytest.raises(StraighteningFailure, match=reached) as info:
        table._dual_canonical_weight_i(nu)
    _located(str(info.value), table, nu, named)


LEFT_HELD = """
from qshuffle import basis, cartan
from qshuffle.basis import StraighteningFailure
from qshuffle.laurent import LaurentPoly
table = basis.GoodLyndonTable(cartan.parse("A3"))
real = table._good_words_i
# drop 3,2,1, the reversal partner of 1,2,3, from the pass
table._good_words_i = lambda nui: real(nui)[:-1]
try:
    table._dual_canonical_weight_i((1, 1, 1))
except StraighteningFailure as exc:
    print(exc)
else:
    raise SystemExit("an image left held was not noticed")
"""


def test_an_image_left_held_raises_a_located_failure_under_optimization():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-O", "-c", LEFT_HELD], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "never reached [A3 order 1,2,3 weight 1,1,1 good word w[3,2,1]]" in done.stdout
