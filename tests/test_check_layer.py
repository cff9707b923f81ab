"""The check layer: the run-length Serre membership test against the
reference harvest in `serre_oracle`, the good-word reality solve against the
full-vector comparison in `reality_oracle` and the guards it raises on, and
the one-weight scope that the checks share: dual PBW vectors, those of
their factor groups and the reality workspace, the good words and rows of
the reality solve."""

from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reality_oracle
import serre_oracle
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import StraighteningFailure
from qshuffle.laurent import ONE, InexactDivision, LaurentPoly, TheoryViolation, monomial
from qshuffle.shuffle import MembershipWitness, ShuffleElt, qshuffle, serre_membership

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
        assert serre_membership(elt) is None and serre_oracle.serre_membership(elt) is None
        members += 1
        for f in _shifted(elt, n):
            witness = serre_membership(f)
            assert witness == serre_oracle.serre_membership(f), (elt, f)
            non_members += witness is not None
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


def test_invariants_check_reports_a_vector_outside_u_with_its_witness():
    # w[1,1,2] breaks the Serre relation of A2 and its maximal word is not
    # good, so an expansion would raise NotInU
    table = basis.GoodLyndonTable(cartan.parse("A2"))
    elt = ShuffleElt.from_word(table._idatum, (1, 1, 2))
    assert isinstance(serre_membership(elt), MembershipWitness)
    assert basis._invariant_violations(table, [((1, 2, 1), elt, (1, 2, 1))], {}) == [
        {
            "good_word": [1, 2, 1],
            "kind": "not-in-subalgebra",
            "witness": "relation i=1 j=2 z=w[] t=w[] sums to 1",
        }
    ]


@pytest.mark.parametrize(
    "word, good_word, witness",
    [
        ((1, 1, 2), [2, 1, 2], "relation i=2 j=1 z=w[] t=w[] sums to 1"),
        ((2, 1, 1, 2), [1, 2, 2, 1], "relation i=2 j=1 z=w[] t=w[1] sums to 1"),
    ],
)
def test_invariants_check_writes_the_witness_in_the_table_letters(word, good_word, witness):
    # in order 2,1 the internal letter k is the table's letter order[k-1], so
    # the relation that fails internally at i=1, j=2 is reported at i=2, j=1,
    # with z and t moved too, as the public element's own test finds it
    table = basis.GoodLyndonTable(cartan.parse("A2"), (2, 1))
    elt = ShuffleElt.from_word(table._idatum, word)
    assert (serre_membership(elt).i, serre_membership(elt).j) == (1, 2)
    g = table._w_in(good_word)
    assert basis._invariant_violations(table, [(g, elt, g)], {}) == [
        {"good_word": good_word, "kind": "not-in-subalgebra", "witness": witness}
    ]
    assert str(serre_membership(table._elt_out(elt))) == witness


def test_invariants_check_reports_an_off_diagonal_expansion_coefficient():
    # b*_{2,1,1} + E*_{1,1,2} lies in U; its expansion coefficient at 1,1,2
    # is q^2 + 1, outside q Z[q]
    table = basis.GoodLyndonTable(cartan.parse("B2"))
    vectors = {g: elt for g, elt, _ in table._dual_canonical_weight_i((2, 1))}
    spoilt = vectors[(2, 1, 1)] + table._dual_pbw_i((1, 1, 2))
    assert basis._invariant_violations(table, [((2, 1, 1), spoilt, (2, 1, 1))], {}) == [
        {"good_word": [2, 1, 1], "kind": "expansion-off-diagonal", "at": [1, 1, 2], "value": "q^2 + 1"}
    ]


# -- one dual PBW build per good word per weight ---------------------------------------


def _count_builds(monkeypatch, table):
    """Wrap the table's dual PBW route; a call builds exactly when its word
    is not in the one-weight memo yet.  Returns the builds asked for from
    outside the route and, apart, the builds of factor groups l^j that a
    build or a reality row asks for inside it."""
    real_pbw, real_groups = table._dual_pbw_i, table._group_vectors
    built, groups = [], []
    depth = 0

    def nested(real):
        def call(*args):
            nonlocal depth
            depth += 1
            try:
                return real(*args)
            finally:
                depth -= 1

        return call

    def counting(wi, factors=None):
        if wi not in table._pbw_memo:
            (groups if depth else built).append(wi)
        return nested(real_pbw)(wi, factors)

    monkeypatch.setattr(table, "_dual_pbw_i", counting)
    monkeypatch.setattr(table, "_group_vectors", nested(real_groups))
    return built, groups


def _group_words(table, words):
    """True when every word is a factor group l^j of one good Lyndon word l."""
    return all(len(table._factors_i(w)) == 1 for w in words)


def test_invariants_scan_builds_each_dual_pbw_vector_once_per_weight(monkeypatch):
    # one build per good word of D4 up to height 5: straightening builds the
    # dual PBW vectors of the good words it straightens, the expansions those
    # of the vectors derived by reversal, and each reads the other's
    table = basis.GoodLyndonTable(cartan.parse("D4"))
    built, groups = _count_builds(monkeypatch, table)
    report = basis.scan(table, 5, "invariants")
    assert report.total_violations == 0 and report.total_vectors == 320
    assert len(built) == 320 and len(set(built)) == 320
    assert groups and _group_words(table, groups)


@pytest.mark.parametrize("label, nu", [("B2", (2, 2)), ("G2", (3, 2)), ("D4", (1, 1, 1, 1))])
def test_expanding_a_straightened_weight_builds_nothing(monkeypatch, label, nu):
    # straightening builds E*_g at the straightened good words only, and
    # nothing more is built for them; the vectors at the other good words
    # are reversals, and the expansions build each of their E*_h once
    table = basis.GoodLyndonTable(cartan.parse(label))
    built, groups = _count_builds(monkeypatch, table)
    vectors = table._dual_canonical_weight_i(nu)
    goods = [g for g, *_ in vectors]
    derived = {h for g, elt, *_ in vectors if (h := max(w[::-1] for w in elt.terms)) > g}
    assert derived and built == [g for g in goods if g not in derived]
    for g, elt, *_ in vectors:
        assert table._expand_i(elt)[g] == 1
        pbw = table._dual_pbw_i(g)
        assert table._expand_i(pbw) == {g: 1}
    assert sorted(built) == goods
    assert _group_words(table, groups) and all(cartan.word_weight(table._idatum, w) != nu for w in groups)


def _held_weights(table):
    """The weights of every vector the table holds outside its per-root caches
    and the factor groups of other weights in its dual PBW memo, which
    `_groups_fit` checks."""
    found = set()

    def walk(x):
        if isinstance(x, ShuffleElt):
            found.add(x.weight)
        elif isinstance(x, (dict, tuple)):
            for item in x.values() if isinstance(x, dict) else x:
                walk(item)

    others = set(_other_weights(table))
    for name, value in vars(table).items():
        if name == "_pbw_memo":
            value = {w: v for w, v in value.items() if w not in others}
        if name != "_roots":
            walk(value)
    return found


def _other_weights(table):
    """The words of the dual PBW memo whose weight is not the scope's."""
    return [w for w in table._pbw_memo if cartan.word_weight(table._idatum, w) != table._pbw_memo_weight]


def _groups_fit(table, *weights):
    """The dual PBW memo holds words of other weights than the scope's, and
    each is a factor group l^j with 1 <= j <= a for a factor group (l, a) of
    a good word of one of the weights."""
    factors = [group for mu in weights for _, groups in table._good_words_i(mu) for group in groups]
    groups = {l * j for l, a in factors for j in range(1, a + 1)}
    held = _other_weights(table)
    return bool(held) and set(held) <= groups


def test_expansion_memo_holds_one_weight_only():
    table = basis.GoodLyndonTable(B2)
    for nu in ((2, 1), (1, 2)):
        for g, elt, *_ in table._dual_canonical_weight_i(nu):
            assert table._expand_i(elt)[g] == 1
    assert table._pbw_memo_weight == (1, 2)
    # beside the vectors of (1, 2), the memo holds only their factor groups
    assert {cartan.word_weight(table._idatum, w) for w in table._pbw_memo} > {(1, 2)}
    assert all(elt.weight == cartan.word_weight(table._idatum, w) for w, elt in table._pbw_memo.items())
    # the dual canonical vectors share the memo's scope: straightening
    # (1, 2) again builds no vector
    held = set(table._pbw_memo)
    assert [g for g, *_ in table._dual_canonical_weight_i((1, 2))] == [g for g, _ in table._good_words_i((1, 2))]
    assert set(table._pbw_memo) == held
    assert _held_weights(table) == {(1, 2)}
    assert _groups_fit(table, (1, 2))
    # no reality question was asked at (1, 2)
    assert table._reality_workspace is None


def test_reality_scan_leaves_one_weight_in_scope(monkeypatch):
    # the reality check extracts what it reads at the weight 2nu of each
    # square, so a scan enters only the weights it reports, up to height 5,
    # and keeps the last one with the dual PBW vectors it straightened, the
    # factor group vectors of nu and 2nu, and the reality workspace: the good
    # words of 2nu with the rows extracted there, each with kappa_h as its
    # coefficient at h
    table = basis.GoodLyndonTable(B2)
    real = table._enter
    entered = []
    monkeypatch.setattr(table, "_enter", lambda nui: entered.append(nui) or real(nui))
    report = basis.scan(table, 5, "reality")
    assert report.total_violations == 0
    assert set(entered) == {entry.weight for entry in report.entries}
    assert max(cartan.height(nu) for nu in entered) == 5
    last = report.entries[-1].weight
    assert cartan.height(last) == 5 and table._pbw_memo_weight == last
    held = set(table._pbw_memo)
    assert [g for g, *_ in table._dual_canonical_weight_i(last)] == [g for g, _ in table._good_words_i(last)]
    assert set(table._pbw_memo) == held
    assert _held_weights(table) == {last}
    assert _groups_fit(table, last, cartan.add(last, last))
    goods, rows = table._reality_workspace
    assert goods == table._good_words_i(cartan.add(last, last))[::-1]
    assert rows
    factors = dict(goods)
    for h, row in rows.items():
        assert row[h] == table._kappa_i(factors[h]).terms
        assert all(p <= h for p in row)


def test_entering_another_weight_drops_the_powers_and_the_workspace():
    table, elt = _b2_21()
    assert table._is_real_i(elt) is None
    goods, rows = table._reality_workspace
    assert _other_weights(table) and goods and rows
    table._enter((1, 2))
    assert table._pbw_memo_weight == (1, 2)
    assert table._pbw_memo == {}
    assert table._reality_workspace is None


@pytest.mark.parametrize(
    "label, check, seeded_count",
    [("B2", "positivity", 0), ("B2", "reality", 0), ("B2", "invariants", 0), ("A3", "positivity", 22)],
)
def test_scan_straightens_each_weight_once(monkeypatch, label, check, seeded_count):
    # every call without images runs the straightening pass, and a scan runs
    # it once for each scanned weight that is the first of its sigma-orbit
    # and never for a weight seeded with the images of an earlier one.  B2
    # has no automorphism, so that is each of its 20 scanned weights once:
    # the reality check straightens none of the 15 square weights above
    # height 5, nor again the 5 that the scan also reaches
    table = basis.GoodLyndonTable(cartan.parse(label))
    real = table._dual_canonical_weight_i
    straightened, seeded = [], []

    def counting(nui, images=None):
        (straightened if images is None else seeded).append(nui)
        return real(nui, images)

    monkeypatch.setattr(table, "_dual_canonical_weight_i", counting)
    report = basis.scan(table, 5, check)
    weights = [entry.weight for entry in report.entries]
    assert len(weights) == (20 if label == "B2" else 55)
    assert len(set(straightened)) == len(straightened) and len(seeded) == seeded_count
    assert sorted(straightened + seeded) == sorted(weights)
    sigmas = [(0, *s) for s in cartan.automorphisms(table._idatum)]
    assert all(any(basis._moved(s, mu) in straightened for s in sigmas) for mu in seeded)


# -- reality from coefficients extracted at the good words of the square's weight ------

REALITY_CASES = [
    ("G2", None, 5, 4),
    ("G2", (2, 1), 5, 4),
    ("C3", (3, 1, 2), 4, 1),
    ("B2", None, 5, 0),
    ("C2", None, 5, 0),
    ("A3", None, 4, 0),
]


@pytest.mark.parametrize("label, order, max_height, imaginary", REALITY_CASES)
def test_reality_agrees_with_reference(label, order, max_height, imaginary):
    # each weight's vectors as a scan decides them, and each vector again
    # after the scan has left its weight, against the full-vector reference
    table = basis.GoodLyndonTable(cartan.parse(label), order)
    weights = [
        table._dual_canonical_weight_i(table._nu_in(nu))
        for nu in cartan.weights_up_to_height(table.datum.rank, max_height)
    ]
    shared = [[v["good_word"] for v in basis._reality_violations(table, vectors, {})] for vectors in weights]
    alone = [[table._is_real_i(elt) is None for _, elt, *_ in vectors] for vectors in weights]
    reference = [[reality_oracle.is_real(table, elt) for _, elt, *_ in vectors] for vectors in weights]
    assert alone == reference
    assert shared == [
        [list(table._w_out(g)) for (g, *_), real in zip(vectors, verdicts) if not real]
        for vectors, verdicts in zip(weights, reference)
    ]
    assert sum(len(goods) for goods in shared) == imaginary


def test_reality_scan_extracts_each_row_once(monkeypatch):
    # one square per solve, that is per vector that is its own origin, and
    # one extraction per distinct row E*_h of the square weights: 38 rows on
    # B2, against 75 with every vector solved and 162 with the rows
    # extracted afresh for each vector; each row computes its kappa_h once,
    # and construction one per vector and one more per straightened vector,
    # whose E*_g checks its own, so a kappa_i call of the solve's own would
    # show here; the build of each factor group's vector checks its own kappa
    real = shuffle.product_coefficients
    real_is_real = basis.GoodLyndonTable._is_real_i

    def counting(factors, targets):
        targets = list(targets)
        if len(factors) == 2 and factors[0] is factors[1]:
            squares.append(factors[0])
        else:
            rows.append((reduce(cartan.add, (f.weight for f in factors)), max(targets)))
        return real(factors, targets)

    monkeypatch.setattr(shuffle, "product_coefficients", counting)
    monkeypatch.setattr(
        basis.GoodLyndonTable, "_is_real_i", lambda table, elt: solves.append(elt) or real_is_real(table, elt)
    )
    for datum, counts in ((B2, (29, 38, 107)), (G2, (30, 45, 119))):
        squares, rows, kappas, solves = [], [], [], []
        table = basis.GoodLyndonTable(datum)
        monkeypatch.setattr(table, "_kappa_i", lambda f, real_kappa=table._kappa_i: kappas.append(f) or real_kappa(f))
        _, groups = _count_builds(monkeypatch, table)
        basis.scan(table, 5, "reality")
        assert len(squares) == len(solves)
        assert (len(squares), len(rows), len(kappas) - len(groups)) == counts
        assert len(set(rows)) == len(rows)
        assert _group_words(table, groups)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_the_unit_is_real(label):
    table = basis.GoodLyndonTable(cartan.parse(label))
    (unit,) = table.dual_canonical_weight((0, 0))
    assert unit.elt.terms == {(): LaurentPoly({0: 1})}
    assert basis.is_real(table, unit)


def _b2_21():
    """The B2 table and b*_{w[2,1]}, whose square has top word w[2,2,1,1]."""
    table = basis.GoodLyndonTable(B2)
    (elt,) = [elt for g, elt, *_ in table._dual_canonical_weight_i((1, 1)) if g == (2, 1)]
    return table, elt


def _spoil_square(monkeypatch, word, spoil):
    """Change the coefficient that the reality check extracts from the square
    at one good word; the rows E*_h are extracted as they are."""
    real = shuffle.product_coefficients

    def spoiled(factors, targets):
        out = real(factors, targets)
        if len(factors) == 2 and factors[0] is factors[1]:
            out[word] = spoil(LaurentPoly(out.get(word, {}))).terms
        return out

    monkeypatch.setattr(shuffle, "product_coefficients", spoiled)


def test_inexact_division_in_the_reality_solve_names_where(monkeypatch):
    # the solve divides at the good word w[2,1,1,2] = w[2] w[1,1,2] below
    # top by its kappa q + q^-1; with the square's coefficient there moved
    # by 1, the residual there is no multiple of it
    table, elt = _b2_21()
    assert table.kappa((2, 1, 1, 2)) == LaurentPoly({1: 1, -1: 1})
    _spoil_square(monkeypatch, (2, 1, 1, 2), lambda c: c + ONE)
    with pytest.raises(InexactDivision, match=r"weight 2,2 good word w\[2,2,1,1\] pivot w\[2,1,1,2\]\]") as exc:
        table._is_real_i(elt)
    assert isinstance(exc.value.__cause__, InexactDivision)


def test_a_wrong_top_coefficient_of_the_square_raises(monkeypatch):
    # the top word w[2,2,1,1] = w[2]^2 w[1]^2 has coefficient q^k kappa,
    # k = -(nu, nu)/2; construction guarantees it, so with the square's
    # coefficient there tripled the check raises instead of answering
    table, elt = _b2_21()
    _spoil_square(monkeypatch, (2, 2, 1, 1), lambda c: c * 3)
    with pytest.raises(TheoryViolation, match=r"top coefficient .* weight 2,2 good word w\[2,2,1,1\]\]"):
        table._is_real_i(elt)


def test_a_good_word_above_the_top_of_the_square_raises(monkeypatch):
    # with the factors of w[2,1] read as those of w[1,2], the top word is
    # taken as w[1,2,1,2], but the square of b*_{w[2,1]} reaches w[2,2,1,1]
    table, elt = _b2_21()
    real = table._factors_i
    monkeypatch.setattr(table, "_factors_i", lambda w: real((1, 2) if w == (2, 1) else w))
    where = r"weight 2,2 good word w\[1,2,1,2\] pivot w\[2,2,1,1\]\]"
    with pytest.raises(TheoryViolation, match=r"above its top .* " + where):
        table._is_real_i(elt)


@pytest.mark.parametrize("order", [None, (2, 1)])
def test_is_real_enters_the_weight_of_its_vector(order):
    # the vectors of G2 (2, 2), one of them imaginary, asked while the scope
    # holds the workspace of (2, 1), are decided as a fresh table decides them
    table = basis.GoodLyndonTable(G2, order)
    vectors = table.dual_canonical_weight((2, 2))
    assert [basis.is_real(table, vec) for vec in table.dual_canonical_weight((2, 1))].count(False) == 1
    verdicts = [basis.is_real(table, vec) for vec in vectors]
    assert table._pbw_memo_weight == (2, 2) and table._reality_workspace[0] == table._good_words_i((4, 4))[::-1]
    fresh = basis.GoodLyndonTable(G2, order)
    assert verdicts == [basis.is_real(fresh, vec) for vec in fresh.dual_canonical_weight((2, 2))]
    assert verdicts.count(False) == 1


def test_the_paper_simply_laced_imaginary_vectors():
    # the imaginary vectors that show B* is not multiplicative in simply-laced
    # type: one of the 15 at the highest root of D4, and w[4,5,3,2,3,4,1,2]
    # at A5 (1,2,2,2,1), of height 8
    d4 = basis.GoodLyndonTable(cartan.parse("D4"))
    vectors = d4.dual_canonical_weight((1, 1, 2, 1))
    assert len(vectors) == 15
    assert [vec.good_word.word for vec in vectors if not basis.is_real(d4, vec)] == [(3, 4, 2, 1, 3)]
    a5 = basis.GoodLyndonTable(cartan.parse("A5"))
    vec = a5.dual_canonical_vector((4, 5, 3, 2, 3, 4, 1, 2))
    assert vec.elt.weight == (1, 2, 2, 2, 1)
    assert not basis.is_real(a5, vec)


def test_the_solve_names_the_d4_witness():
    # the solve for b*_{w[3,4,2,1,3]} at D4 (1,1,2,1) first leaves q Z[q] at
    # h = w[3,4,2,3,1,3,4,2,1,3], where q^{-k} times the square, k = -(nu, nu)/2
    # = -1, has the dual PBW coefficient 1 - q^6
    table = basis.GoodLyndonTable(cartan.parse("D4"))
    nu = (1, 1, 2, 1)
    (elt,) = [elt for g, elt, *_ in table._dual_canonical_weight_i(nu) if g == (3, 4, 2, 1, 3)]
    assert cartan.bilinear_form(table.datum, nu, nu) == 2
    assert table._is_real_i(elt) == ((3, 4, 2, 3, 1, 3, 4, 2, 1, 3), LaurentPoly({0: 1, 6: -1}))


def test_a_vector_whose_maximal_word_is_not_good_raises():
    # w[1,2,2] is not good in B2, whose good Lyndon words are 1, 112, 12, 2,
    # so the place names it as a word
    table = basis.GoodLyndonTable(B2)
    elt = ShuffleElt.from_word(table._idatum, (1, 2, 2))
    with pytest.raises(TheoryViolation, match=r"maximal word is not good \[B2 order 1,2 weight 1,2 word w\[1,2,2\]\]"):
        table._is_real_i(elt)


def test_a_dual_pbw_vector_with_a_wrong_leading_coefficient_raises(monkeypatch):
    # the solve extracts E*_top = E*_{w[1,1]} * E*_{w[2,2]} at its top word,
    # and builds E*_{w[2,2]} from E*_{w[2]}, which straightening at (1, 1)
    # left unbuilt; with the dual root vector of w[2] doubled, the build of
    # E*_{w[2]} itself finds the coefficient 2 kappa at its own good word
    table, elt = _b2_21()
    r, root, kappa, d = table._root_i((2,))
    monkeypatch.setitem(table._roots, (2,), (r, root.scaled(2), kappa, d))
    with pytest.raises(StraighteningFailure, match=r"wrong leading term .* weight 0,1 good word w\[2\]\]"):
        table._is_real_i(elt)


def test_a_row_with_a_wrong_leading_coefficient_raises(monkeypatch):
    # with the coefficient that the row extraction reads at the top word
    # doubled, the row of E*_top has 2 kappa at its own good word
    table, elt = _b2_21()
    real = shuffle.product_coefficients
    top = (2, 2, 1, 1)

    def spoiled(factors, targets):
        out = real(factors, targets)
        if not (len(factors) == 2 and factors[0] is factors[1]) and top in out:
            out[top] = {e: 2 * c for e, c in out[top].items()}
        return out

    monkeypatch.setattr(shuffle, "product_coefficients", spoiled)
    with pytest.raises(StraighteningFailure, match=r"wrong leading term .* weight 2,2 good word w\[2,2,1,1\]\]"):
        table._is_real_i(elt)


def test_positivity_scan_enumerates_good_words_once_per_weight(monkeypatch):
    table = basis.GoodLyndonTable(cartan.parse("A3"))
    real = table._good_words_i
    calls = []
    monkeypatch.setattr(table, "_good_words_i", lambda nui: calls.append(nui) or real(nui))
    report = basis.scan(table, 5, "positivity")
    assert report.total_violations == 0
    assert sorted(calls) == sorted(entry.weight for entry in report.entries)
