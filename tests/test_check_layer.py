"""The check layer: the run-length Serre membership test against the
reference harvest in `serre_oracle`, the good-word reality solve against the
full-vector comparison in `reality_oracle`, and the one-weight scope of dual
PBW and dual canonical vectors that the checks share."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reality_oracle
import serre_oracle
from qshuffle import basis, cartan
from qshuffle.laurent import InexactDivision, LaurentPoly, TheoryViolation, monomial
from qshuffle.shuffle import ShuffleElt, qshuffle, serre_membership

MEMBERSHIP_RANGES = [("A3", 6), ("B2", 6), ("B3", 5), ("C3", 5), ("D4", 5), ("G2", 7), ("F4", 4)]


def _canonical_vectors(table, max_height):
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        for _, elt, _ in table._dual_canonical_weight_i(table._nu_in(nu)):
            yield elt


def _shifted(elt, n):
    """Two copies of elt, one coefficient moved by +q^k and one by -q^k."""
    support = sorted(elt.terms)
    k = n % 5 - 2
    for w, sign in ((support[n % len(support)], 1), (support[(7 * n + 3) % len(support)], -1)):
        yield elt + ShuffleElt(elt.datum, elt.weight, {w: monomial(k, sign)})


@pytest.mark.parametrize("label, max_height", MEMBERSHIP_RANGES)
def test_membership_agrees_with_reference(tables, label, max_height):
    members = non_members = 0
    for n, elt in enumerate(_canonical_vectors(tables(label), max_height)):
        result = serre_membership(elt)
        assert result.ok and result == serre_oracle.serre_membership(elt)
        members += 1
        for f in _shifted(elt, n):
            result = serre_membership(f)
            assert result == serre_oracle.serre_membership(f), (elt, f)
            non_members += not result.ok
    # a shift at a word that shares a relation with another word breaks it,
    # so most of the 2 * members copies are non-members, with witnesses
    assert non_members > members


B2 = cartan.parse("B2")
G2 = cartan.parse("G2")
polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def homogeneous_elements(draw):
    """A letter-generated element (a scaled shuffle product of letters) plus
    noise on permutations of the same letters.  In B2 and G2 the relations
    have m = 1 - a_ij up to 2 and 4, and up to six letters reach them."""
    datum = draw(st.sampled_from([B2, G2]))
    letters = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=6))
    member = ShuffleElt.from_word(datum, ())
    for a in letters:
        member = qshuffle(member, ShuffleElt.from_word(datum, (a,)))
    member = member.scaled(draw(polys))
    words = sorted(set(permutations(letters)))
    noise = draw(st.dictionaries(st.sampled_from(words), polys, max_size=3))
    weight = cartan.word_weight(datum, letters)
    return ShuffleElt(datum, weight, member.terms) + ShuffleElt(datum, weight, noise)


@settings(max_examples=300, deadline=None)
@given(homogeneous_elements())
def test_membership_agrees_with_reference_on_random_elements(f):
    assert serre_membership(f) == serre_oracle.serre_membership(f)


# -- one dual PBW build per good word per weight ---------------------------------------


def _count_builds(monkeypatch, table):
    """Wrap the table's dual PBW route; a call builds exactly when its word
    is not in the one-weight memo yet."""
    real = table._dual_pbw_i
    built = []

    def counting(wi, factors=None):
        if wi not in table._pbw_memo:
            built.append(wi)
        return real(wi, factors)

    monkeypatch.setattr(table, "_dual_pbw_i", counting)
    return built


def test_invariants_scan_builds_each_dual_pbw_vector_once_per_weight(monkeypatch):
    # one build per good word of D4 up to height 5: straightening fills the
    # memo and the expansions of the same weight only read it
    table = basis.GoodLyndonTable(cartan.parse("D4"))
    built = _count_builds(monkeypatch, table)
    report = basis.scan(table, 5, "invariants")
    assert report.total_violations == 0 and report.total_vectors == 320
    assert len(built) == 320 and len(set(built)) == 320


@pytest.mark.parametrize("label, nu", [("B2", (2, 2)), ("G2", (3, 2)), ("D4", (1, 1, 1, 1))])
def test_expanding_a_straightened_weight_builds_nothing(monkeypatch, label, nu):
    table = basis.GoodLyndonTable(cartan.parse(label))
    built = _count_builds(monkeypatch, table)
    vectors = table._dual_canonical_weight_i(nu)
    assert len(built) == len(vectors)
    for g, elt, _ in vectors:
        assert table._expand_i(elt)[g] == 1
        pbw, _ = table._pbw_memo[g]
        assert table._expand_i(pbw) == {g: 1}
    assert len(built) == len(vectors)


def _held_weights(table):
    """The weights of every vector the table holds outside its per-root caches."""
    found = set()

    def walk(x):
        if isinstance(x, ShuffleElt):
            found.add(x.weight)
        elif isinstance(x, (dict, tuple)):
            for item in x.values() if isinstance(x, dict) else x:
                walk(item)

    for name, value in vars(table).items():
        if name not in ("_r_cache", "_dual_root_cache"):
            walk(value)
    return found


def test_expansion_memo_holds_one_weight_only():
    table = basis.GoodLyndonTable(B2)
    for nu in ((2, 1), (1, 2)):
        for g, elt, _ in table._dual_canonical_weight_i(nu):
            assert table._expand_i(elt)[g] == 1
    assert table._pbw_memo
    assert {cartan.word_weight(table._idatum, w) for w in table._pbw_memo} == {(1, 2)}
    assert all(elt.weight == (1, 2) for elt, _ in table._pbw_memo.values())
    assert table._pbw_memo_weight == (1, 2)
    # the dual canonical vectors share the memo's scope
    assert [g for g, _, _ in table._canonical_memo] == [g for g, _ in table._good_words_i((1, 2))]
    assert _held_weights(table) == {(1, 2)}


def test_reality_scan_leaves_one_weight_in_scope():
    # each reality check reads dual PBW vectors at the weight of its squares,
    # so a scan enters twice as many weights as it reports, keeps only the
    # last and never straightens a square's weight
    table = basis.GoodLyndonTable(B2)
    report = basis.scan(table, 5, "reality")
    assert report.total_violations == 0
    last = table._pbw_memo_weight
    assert cartan.height(last) == 2 * cartan.height(report.entries[-1].weight)
    assert table._canonical_memo is None
    assert _held_weights(table) == {last}


def test_reality_scan_straightens_each_weight_once(monkeypatch):
    # only the 20 scanned weights: the 15 square weights above height 5 and
    # the 5 that the scan also reaches are never straightened for a check
    table = basis.GoodLyndonTable(B2)
    real = table._dual_canonical_weight_i
    straightened = []

    def counting(nui):
        if table._canonical_memo is None or table._pbw_memo_weight != nui:
            straightened.append(nui)
        return real(nui)

    monkeypatch.setattr(table, "_dual_canonical_weight_i", counting)
    report = basis.scan(table, 5, "reality")
    assert len(report.entries) == 20
    assert sorted(straightened) == sorted(entry.weight for entry in report.entries)


# -- reality on the good words of the square's weight ----------------------------------

REALITY_CASES = [
    ("G2", None, 5, 4),
    ("G2", (2, 1), 5, 4),
    ("C3", (3, 1, 2), 4, 1),
    ("B2", None, 5, 0),
    ("C2", None, 5, 0),
]


@pytest.mark.parametrize("label, order, max_height, imaginary", REALITY_CASES)
def test_reality_agrees_with_reference(label, order, max_height, imaginary):
    table = basis.GoodLyndonTable(cartan.parse(label), order)
    verdicts = [
        (basis._is_real_i(table, elt), reality_oracle.is_real(table, elt))
        for elt in list(_canonical_vectors(table, max_height))
    ]
    assert all(ours == reference for ours, reference in verdicts)
    assert sum(not ours for ours, _ in verdicts) == imaginary


def test_inexact_division_in_the_reality_solve_names_where():
    # w[2,1] squares to top word w[2,2,1,1]; the solve divides at the lower
    # good word w[2,1,2,1] by its kappa, corrupted here from 1 to 3
    table = basis.GoodLyndonTable(B2)
    (elt,) = [elt for g, elt, _ in table._dual_canonical_weight_i((1, 1)) if g == (2, 1)]
    pbw, kappa = table._dual_pbw_i((2, 1, 2, 1))
    table._pbw_memo[(2, 1, 2, 1)] = (pbw, kappa * 3)
    with pytest.raises(InexactDivision, match=r"weight 2,2 good word w\[2,2,1,1\] pivot w\[2,1,2,1\]\]") as exc:
        basis._is_real_i(table, elt)
    assert isinstance(exc.value.__cause__, InexactDivision)


def test_a_wrong_top_coefficient_of_the_square_raises():
    # w[2,1] squares to top word w[2,2,1,1] with coefficient q^k kappa,
    # k = -(nu, nu)/2; construction guarantees it, so with that kappa
    # corrupted from kappa to 3 kappa the check raises instead of answering
    table = basis.GoodLyndonTable(B2)
    (elt,) = [elt for g, elt, _ in table._dual_canonical_weight_i((1, 1)) if g == (2, 1)]
    pbw, kappa = table._dual_pbw_i((2, 2, 1, 1))
    table._pbw_memo[(2, 2, 1, 1)] = (pbw, kappa * 3)
    with pytest.raises(TheoryViolation, match=r"top coefficient .* weight 2,2 good word w\[2,2,1,1\]\]"):
        basis._is_real_i(table, elt)


def test_positivity_scan_enumerates_good_words_once_per_weight(monkeypatch):
    table = basis.GoodLyndonTable(cartan.parse("A3"))
    real = table._good_words_i
    calls = []
    monkeypatch.setattr(table, "_good_words_i", lambda nui: calls.append(nui) or real(nui))
    report = basis.scan(table, 5, "positivity")
    assert report.total_violations == 0
    assert sorted(calls) == sorted(entry.weight for entry in report.entries)
