import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import kostant_oracle
import roots_oracle
from qshuffle import cartan
from qshuffle.laurent import TheoryViolation
from qshuffle.cartan import (
    UnsupportedRank,
    bilinear_form,
    build,
    height,
    kostant_partitions,
    n_of,
    parse,
    positive_roots,
    reorder,
    simple_root,
)


def test_build_a2():
    a2 = build("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.d == (1, 1)
    assert a2.bilinear == ((2, -1), (-1, 2))


def test_build_b3_short_first_node():
    b3 = build("B", 3)
    assert b3.d == (1, 2, 2)
    assert b3.cartan[0][1] == -2 and b3.cartan[1][0] == -1


def test_build_c3_long_first_node():
    c3 = build("C", 3)
    assert c3.d == (2, 1, 1)
    assert c3.cartan[0][1] == -1 and c3.cartan[1][0] == -2


def test_build_g2():
    g2 = build("G", 2)
    assert g2.d == (1, 3)
    assert g2.cartan == ((2, -3), (-1, 2))


def test_g2_positive_roots_golden():
    g2 = build("G", 2)
    assert set(positive_roots(g2)) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_a2_positive_roots():
    assert set(positive_roots(build("A", 2))) == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots():
    b2 = build("B", 2)
    assert set(positive_roots(b2)) == {(1, 0), (0, 1), (1, 1), (2, 1)}


@pytest.mark.parametrize(
    "label,count",
    [
        ("A1", 1),
        ("A2", 3),
        ("A4", 10),
        ("B2", 4),
        ("B4", 16),
        ("C3", 9),
        ("C4", 16),
        ("D4", 12),
        ("D5", 20),
        ("E6", 36),
        ("E7", 63),
        ("E8", 120),
        ("F4", 24),
        ("G2", 6),
    ],
)
def test_positive_root_counts(label, count):
    assert len(positive_roots(parse(label))) == count


def test_root_closure_is_idempotent():
    # Rerunning the string criterion over the finished set must add nothing.
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        datum = parse(label)
        roots = set(positive_roots(datum))
        r = datum.rank
        for beta in roots:
            for i in range(1, r + 1):
                alpha = simple_root(datum, i)
                if beta == alpha:
                    continue
                p = 0
                g = cartan.sub(beta, alpha)
                while all(x >= 0 for x in g) and g in roots:
                    p += 1
                    g = cartan.sub(g, alpha)
                pairing = sum(beta[j] * datum.cartan[i - 1][j] for j in range(r))
                up_is_root = cartan.add(beta, alpha) in roots
                assert up_is_root == (p - pairing > 0)


def test_root_closure_with_the_wrong_count_is_an_internal_error(monkeypatch):
    monkeypatch.setitem(cartan._ROOT_COUNTS, "A", lambda r: 0)
    monkeypatch.setattr(cartan, "_POSITIVE_ROOTS", {})  # an empty memo, so the closure runs
    with pytest.raises(TheoryViolation, match="found 3 roots, expected 0"):
        positive_roots(parse("A2"))


def test_bilinear_examples():
    a2 = build("A", 2)
    a1, a2root = simple_root(a2, 1), simple_root(a2, 2)
    assert bilinear_form(a2, a1, a2root) == -1
    assert bilinear_form(a2, (1, 1), (1, 1)) == 2

    g2 = build("G", 2)
    # oracle: B = diag(d) * cartan, entry (1,2)
    expected = g2.d[0] * g2.cartan[0][1]
    assert bilinear_form(g2, simple_root(g2, 1), simple_root(g2, 2)) == expected == -3


def test_n_of_examples():
    a2 = build("A", 2)
    assert n_of(a2, (1, 1)) == -1
    for label in ["A3", "B3", "G2"]:
        datum = parse(label)
        for i in range(1, datum.rank + 1):
            assert n_of(datum, simple_root(datum, i)) == 0


def test_n_of_simply_laced_roots():
    # in simply laced type every positive root has N = 1 - height
    for label in ["A3", "D4", "E6"]:
        datum = parse(label)
        for beta in positive_roots(datum):
            assert n_of(datum, beta) == 1 - height(beta)


def test_kostant_partitions_examples():
    a2 = build("A", 2)
    parts = kostant_partitions(a2, (1, 1))
    assert sorted(parts) == sorted((((1, 1),), ((1, 0), (0, 1))))
    assert kostant_partitions(a2, (1, 0)) == (((1, 0),),)
    g2 = build("G", 2)
    assert len(kostant_partitions(g2, (3, 2))) == 7


@pytest.mark.parametrize("nu", [(1,), (1, 0, 0)])
def test_kostant_partitions_refuse_a_weight_of_another_rank(nu):
    # a short weight packed a negative remainder, whose guard bits all stay
    # set, so the stack grew without end; a long one lost its last entries
    with pytest.raises(ValueError, match="^weight needs 2 entries$"):
        kostant_partitions(build("A", 2), nu)


def test_kostant_partitions_brute_force_oracle():
    # enumerate multiplicity vectors over the positive roots directly
    from itertools import product

    for label, nu in [("A2", (2, 2)), ("B2", (2, 2)), ("G2", (3, 2))]:
        datum = parse(label)
        roots = positive_roots(datum)
        bound = max(nu) + 1
        count = 0
        for mults in product(range(bound), repeat=len(roots)):
            total = [0] * datum.rank
            for m, beta in zip(mults, roots):
                for i, c in enumerate(beta):
                    total[i] += m * c
            if tuple(total) == nu:
                count += 1
        assert len(kostant_partitions(datum, nu)) == count


@pytest.mark.parametrize("label, max_height", [("A3", 7), ("D4", 5), ("B2", 10), ("G2", 8), ("A5", 8)])
def test_kostant_partitions_match_the_stack_enumeration(label, max_height):
    # the same partitions in the same order, weight by weight
    datum = parse(label)
    for nu in cartan.weights_up_to_height(datum.rank, max_height):
        assert kostant_partitions(datum, nu) == kostant_oracle.kostant_partitions(datum, nu), nu
    assert kostant_partitions(datum, (0,) * datum.rank) == ((),)


def test_kostant_partitions_reject_a_negative_coordinate():
    for nu in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="nonnegative cone"):
            kostant_partitions(parse("B2"), nu)


def test_kostant_partitions_are_multisets_each_once():
    d4 = parse("D4")
    parts = kostant_partitions(d4, (1, 1, 2, 1))
    canon = {tuple(sorted(p)) for p in parts}
    assert len(canon) == len(parts)
    for p in parts:
        total = [0] * 4
        for beta in p:
            for i, c in enumerate(beta):
                total[i] += c
        assert tuple(total) == (1, 1, 2, 1)


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4)])
def test_unsupported_ranks(family, rank):
    with pytest.raises(UnsupportedRank):
        build(family, rank)


def test_d3_is_flagged():
    with pytest.warns(UserWarning):
        d3 = build("D", 3)
    assert len(positive_roots(d3)) == 6  # same count as A3


def test_parse_labels():
    assert parse("B3").family == "B"
    assert parse("G2").rank == 2
    with pytest.raises(UnsupportedRank):
        parse("X2")
    with pytest.raises(UnsupportedRank):
        parse("3B")


def test_weight_parse_format():
    assert cartan.parse_weight("3,2", 2) == (3, 2)
    assert cartan.format_weight((0, 1, 2)) == "0,1,2"
    with pytest.raises(ValueError):
        cartan.parse_weight("1,2,3", 2)
    with pytest.raises(ValueError):
        cartan.parse_weight("-1,2", 2)


def test_word_weight():
    b2 = build("B", 2)
    assert cartan.word_weight(b2, (1, 2, 1, 1)) == (3, 1)
    assert cartan.word_weight(b2, ()) == (0, 0)


def test_reorder():
    g2 = build("G", 2)
    swapped = reorder(g2, (2, 1))
    assert swapped.d == (3, 1)
    assert swapped.cartan == ((2, -1), (-3, 2))
    assert reorder(g2, (1, 2)) is g2
    with pytest.raises(ValueError):
        reorder(g2, (1, 1))


def test_weights_up_to_height():
    ws = list(cartan.weights_up_to_height(2, 2))
    assert ws == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def _reversal(r):
    return tuple(range(r, 0, -1))


def _fixes(datum, s):
    r, a, d = datum.rank, datum.cartan, datum.d
    return all(d[s[i] - 1] == d[i] for i in range(r)) and all(
        a[s[i] - 1][s[j] - 1] == a[i][j] for i in range(r) for j in range(r)
    )


@pytest.mark.parametrize(
    "label, group",
    [
        ("A1", set()),
        *[(f"A{r}", {_reversal(r)}) for r in range(2, 8)],
        ("D4", {(1, 4, 3, 2), (2, 1, 3, 4), (2, 4, 3, 1), (4, 1, 3, 2), (4, 2, 3, 1)}),
        *[(f"D{r}", {(2, 1, *range(3, r + 1))}) for r in range(5, 9)],
        ("E6", {(6, 2, 5, 4, 3, 1)}),
        *[(f"{f}{r}", set()) for f in "BC" for r in range(2, 7)],
        ("E7", set()),
        ("E8", set()),
        ("F4", set()),
        ("G2", set()),
    ],
)
def test_automorphisms_are_the_diagram_symmetries(label, group):
    found = cartan.automorphisms(parse(label))
    assert set(found) == group and list(found) == sorted(group)


@pytest.mark.parametrize(
    "label, order",
    [
        ("A3", None), ("D4", None), ("E6", None), ("B3", None), ("A4", (2, 4, 1, 3)),
        ("D4", (3, 1, 4, 2)), ("D5", (5, 3, 1, 2, 4)), ("G2", (2, 1)), ("C3", (3, 1, 2)),
    ],
)
def test_automorphisms_match_every_permutation_checked(label, order):
    datum = parse(label)
    if order is not None:
        datum = reorder(datum, order)
    identity = tuple(range(1, datum.rank + 1))
    every = {s for s in permutations(identity) if s != identity and _fixes(datum, s)}
    assert set(cartan.automorphisms(datum)) == every


def test_automorphisms_of_high_rank_without_every_permutation():
    # 60! permutations could never be walked; the search follows the diagram
    assert cartan.automorphisms(build("A", 60)) == (_reversal(60),)
    assert cartan.automorphisms(build("D", 60)) == ((2, 1, *range(3, 61)),)
    assert cartan.automorphisms(build("B", 60)) == ()


def test_automorphisms_follow_the_diagram_under_any_numbering():
    # odd nodes first: the first half of the letters are pairwise apart, so a
    # search in letter order would branch on every one of them
    order = (*range(1, 61, 2), *range(2, 61, 2))
    position = {o: k for k, o in enumerate(order, start=1)}
    reversal = tuple(position[61 - o] for o in order)
    assert cartan.automorphisms(reorder(build("A", 60), order)) == (reversal,)


def _orders(rank):
    """The natural order, its reversal and a rotation by one."""
    natural = tuple(range(1, rank + 1))
    return [natural, natural[::-1], natural[1:] + natural[:1]]


@pytest.mark.parametrize(
    "label",
    [
        *[f"A{r}" for r in range(1, 9)],
        *[f"{f}{r}" for f in "BC" for r in range(2, 9)],
        *[f"D{r}" for r in range(4, 9)],
        "E6", "E7", "E8", "F4", "G2", "A20", "D20",
    ],
)
def test_positive_roots_equal_the_root_string_closure(label):
    for order in _orders(parse(label).rank):
        datum = reorder(parse(label), order)
        assert positive_roots(datum) == roots_oracle.positive_roots(datum), order


@pytest.mark.parametrize("label", ["A4", "B3", "D4", "F4"])
def test_automorphisms_match_every_permutation_checked_in_every_order(label):
    base = parse(label)
    identity = tuple(range(1, base.rank + 1))
    for order in permutations(identity):
        datum = reorder(base, order)
        every = {s for s in permutations(identity) if s != identity and _fixes(datum, s)}
        assert cartan.automorphisms(datum) == tuple(sorted(every)), order


@pytest.mark.parametrize("d, group", [((1, 1), ((2, 1),)), ((1, 2), ())])
def test_automorphisms_keep_the_symmetrizers(d, group):
    # two nodes without an edge: a alone does not tell them apart
    a = ((2, 0), (0, 2))
    datum = cartan.CartanDatum("A", 2, a, d, tuple(tuple(x * di for x in row) for row, di in zip(a, d)))
    assert cartan.automorphisms(datum) == group


# The affine diagram of type A2 is a 3-cycle: it has no leaves and infinitely
# many real roots.  The constructor refuses it; built past the constructor,
# neither enumeration may answer, and neither may hang.
AFFINE = """
from qshuffle import cartan
from qshuffle.laurent import TheoryViolation
a = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
try:
    cartan.CartanDatum("A", 3, a, (1, 1, 1), a)
except ValueError as exc:
    print(type(exc).__name__)
datum = tuple.__new__(cartan.CartanDatum, ("A", 3, a, (1, 1, 1), a))
for enumerate_ in (cartan.automorphisms, cartan.positive_roots):
    try:
        enumerate_(datum)
    except (ValueError, TheoryViolation) as exc:
        print(type(exc).__name__)
"""


def test_a_diagram_of_affine_type_raises_instead_of_hanging():
    env = {**os.environ, "PYTHONPATH": str(Path(cartan.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", AFFINE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ValueError", "ValueError", "TheoryViolation"]
