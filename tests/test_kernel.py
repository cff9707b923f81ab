"""The in-place straightening and expansion kernel: agreement with the
element-level reference algorithms, the laws of the fused subtract-scaled
step, and where a failed straightening or exact division says it failed."""

import copy
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import straightening_oracle as oracle
from qshuffle import basis, cartan, laurent, shuffle
from qshuffle.basis import StraighteningFailure
from qshuffle.laurent import ONE, ZERO, LaurentPoly, monomial
from qshuffle.shuffle import ShuffleElt

DIFFERENTIAL_RANGES = [
    ("A3", 6, None),
    ("B2", 5, None),
    ("G2", 6, None),
    ("C3", 5, None),
    ("B3", 4, (2, 3, 1)),
    ("D4", 5, None),
    ("A3", 6, (2, 1, 3)),
    ("F4", 4, None),
    ("D4", 4, (4, 3, 2, 1)),
    ("E6", 3, None),
]


@pytest.mark.parametrize("label, max_height, order", DIFFERENTIAL_RANGES)
def test_kernel_agrees_with_reference(label, max_height, order):
    datum = cartan.parse(label)
    table = basis.GoodLyndonTable(datum, order)
    for nu in cartan.weights_up_to_height(datum.rank, max_height):
        nui = table._nu_in(nu)
        vectors = table._dual_canonical_weight_i(nui)
        reference = oracle.dual_canonical_weight(table, nui)
        assert [(g, e.weight, e.terms, e.terms[g]) for g, e, _ in vectors] == [
            (g, e.weight, e.terms, k) for g, e, k in reference
        ], nu
        for g, elt, *_ in vectors:
            pbw = table._dual_pbw_i(g, table._factors_i(g))
            for f in (elt, pbw):
                assert table._expand_i(f) == oracle.expand(table, f), (nu, g)


def _outcome(build):
    try:
        return [(g, e.terms, e.terms[g]) for g, e, *_ in build()]
    except laurent.TheoryViolation as exc:
        return type(exc)


@pytest.mark.parametrize("label, max_height", [("A3", 5), ("B2", 5), ("G2", 5)])
def test_kernel_agrees_with_reference_on_perturbed_input(label, max_height):
    # On true dual PBW vectors a correction never meets a word whose
    # coefficient is still bar-symmetric.  Symmetrizing the coefficients at
    # the words that are not good makes corrections turn symmetric
    # coefficients asymmetric, which the kernel must notice as the reference does.
    datum = cartan.parse(label)
    for nu in cartan.weights_up_to_height(datum.rank, max_height):
        table = basis.GoodLyndonTable(datum)
        real = table._dual_pbw_i

        def perturbed(wi, factors):
            elt = real(wi, factors)
            terms = {
                w: c if table._factors_i(w) is not None else c + c.bar()
                for w, c in elt.terms.items()
            }
            return ShuffleElt(elt.datum, elt.weight, terms)

        table._dual_pbw_i = perturbed
        assert _outcome(lambda: table._dual_canonical_weight_i(nu)) == _outcome(
            lambda: oracle.dual_canonical_weight(table, nu)
        ), nu


def test_expansion_rejects_what_the_reference_rejects():
    table = basis.GoodLyndonTable(cartan.parse("A2"))
    not_in_u = ShuffleElt.from_word(table._idatum, (1, 1, 2))
    with pytest.raises(basis.NotInU) as reference:
        oracle.expand(table, not_in_u)
    with pytest.raises(basis.NotInU) as kernel:
        table._expand_i(not_in_u)
    assert str(kernel.value) == str(reference.value)


# -- the fused step -------------------------------------------------------------

DATUM = cartan.parse("A3")
WORDS = sorted(set(permutations((1, 2, 2, 3))))
WEIGHT = (1, 2, 1)

exponent_maps = st.dictionaries(
    st.integers(-4, 4), st.integers(-3, 3).filter(bool), min_size=1, max_size=4
)
raw_elements = st.dictionaries(st.sampled_from(WORDS), exponent_maps, max_size=len(WORDS))
coefficients = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-3, 3).filter(bool)).map(lambda t: {t[0]: t[1]}),
    exponent_maps,
    st.just({}),
)


def _elt(raw):
    return ShuffleElt(DATUM, WEIGHT, {w: LaurentPoly(d) for w, d in raw.items()})


@settings(max_examples=150, deadline=None)
@given(raw_elements, raw_elements, coefficients)
def test_scaled_into_matches_element_arithmetic(acc, f_raw, c_raw):
    # the step of straightening and expansion, acc -= c * f, against
    # coefficient-wise Laurent arithmetic
    f, c = _elt(f_raw), LaurentPoly(c_raw)
    expected = {w: LaurentPoly(d) for w, d in acc.items()}
    for w, v in f.terms.items():
        expected[w] = expected.get(w, ZERO) - v * c
    f_before, c_before = copy.deepcopy(f.terms), dict(c.terms)
    shuffle._scaled_into(acc, shuffle._maps(f), (-c).terms)
    assert _elt(acc) == ShuffleElt(DATUM, WEIGHT, expected)
    assert all(d and all(d.values()) for d in acc.values())
    assert f.terms == f_before and c.terms == c_before
    # the accumulator never shares a map with its operand
    assert not {id(d) for d in acc.values()} & {id(v.terms) for v in f.terms.values()}


@settings(max_examples=100, deadline=None)
@given(raw_elements, st.integers(-4, 4), st.integers(-3, 3).filter(bool))
def test_scaled_by_a_monomial_matches_the_product(f_raw, k, m):
    f, c = _elt(f_raw), monomial(k, m)
    scaled = f.scaled(c)
    assert scaled.terms == {w: v * c for w, v in f.terms.items()}
    assert scaled.weight == f.weight
    assert f.scaled(ONE) is f


def test_scans_share_no_map_and_mutate_no_cached_map(monkeypatch):
    # a product's maps are fresh: a word pair whose scale is 1 must copy the
    # cached map, not hand it over, or a later correction would mutate the cache
    for label, max_height, check in [("A3", 3, "positivity"), ("B2", 2, "reality")]:
        basis.scan(basis.GoodLyndonTable(cartan.parse(label)), max_height, check)
    cached = dict(shuffle._CACHE)
    frozen = copy.deepcopy(cached)
    products = []
    real = shuffle.qshuffle

    def recorded(f, g):
        h = real(f, g)
        products.append((f, g, h))
        return h

    monkeypatch.setattr(shuffle, "qshuffle", recorded)
    for label, max_height, check in [("A3", 5, "positivity"), ("B2", 4, "reality")]:
        basis.scan(basis.GoodLyndonTable(cartan.parse(label)), max_height, check)
    assert products and cached
    assert all(cached[key] == frozen[key] for key in cached)
    cache_maps = {id(p) for out in shuffle._CACHE.values() for p in out.values()}
    for f, g, h in products:
        maps = [id(c.terms) for c in h.terms.values()]
        assert len(set(maps)) == len(maps)
        operand_maps = {id(c.terms) for x in (f, g) for c in x.terms.values()}
        assert not set(maps) & (cache_maps | operand_maps)


def test_the_memo_holds_each_distinct_word_and_map_once(monkeypatch):
    # the word-pair memo is hash-consed: from an empty memo, equal words and
    # equal maps among its values are one object, held by the intern tables
    for name in ("_CACHE", "_WORDS", "_MAPS"):
        monkeypatch.setattr(shuffle, name, {})
    for label, max_height, check in [("A3", 5, "positivity"), ("B2", 4, "reality")]:
        basis.scan(basis.GoodLyndonTable(cartan.parse(label)), max_height, check)
    terms = [(u, p) for out in shuffle._CACHE.values() for u, p in out.items()]
    words = {id(u): u for u, _ in terms}
    maps = {id(p): p for _, p in terms}
    assert len(words) == len(set(words.values())) == len(shuffle._WORDS)
    assert len(maps) == len({frozenset(p.items()) for p in maps.values()}) == len(shuffle._MAPS)
    assert all(shuffle._WORDS[u] is u for u in words.values())
    assert all(shuffle._MAPS[tuple(p.items())] is p for p in maps.values())
    # no shared map was written in place after it was interned
    assert all(dict(key) == p and tuple(p.items()) == key for key, p in shuffle._MAPS.items())
    assert len(maps) * 5 < len(terms)


def test_q_binom_four_choose_two():
    assert laurent.q_binom(4, 2, 3) == LaurentPoly({12: 1, 6: 1, 0: 2, -6: 1, -12: 1})
    assert laurent.q_binom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


# -- where straightening failed ----------------------------------------------------


def _broken_table(monkeypatch, alter):
    """An A3 table with order 2,1,3 whose dual PBW vector at the largest
    straightened good word of weight (1,1,1), the second of four, is replaced
    by `alter(table, vector)`.  The vectors at the last two good words are the
    reversals of the first two, so their dual PBW vectors are never built."""
    table = basis.GoodLyndonTable(cartan.parse("A3"), (2, 1, 3))
    target = table.good_words_of_weight((1, 1, 1))[1].word
    real = table._dual_pbw_i

    def broken(wi, factors):
        elt = real(wi, factors)
        return alter(table, elt) if wi == table._w_in(target) else elt

    monkeypatch.setattr(table, "_dual_pbw_i", broken)
    return table, target


def test_failure_names_datum_order_weight_good_word_and_pivot(monkeypatch):
    # q times kappa is not bar-symmetric, so the good word is its own pivot
    table, target = _broken_table(monkeypatch, lambda t, e: e.scaled(monomial(1)))
    with pytest.raises(StraighteningFailure) as info:
        table.dual_canonical_weight((1, 1, 1))
    message = str(info.value)
    word = shuffle.format_word(target)
    for field in ("A3", "order 2,1,3", "weight 1,1,1", f"good word {word}", f"pivot {word}"):
        assert field in message, (field, message)


def test_failure_without_pivot_names_the_rest(monkeypatch):
    table, target = _broken_table(monkeypatch, lambda t, e: e.scaled(2))
    with pytest.raises(StraighteningFailure, match="wrong leading term") as info:
        table.dual_canonical_weight((1, 1, 1))
    message = str(info.value)
    for field in ("A3", "order 2,1,3", "weight 1,1,1", f"good word {shuffle.format_word(target)}"):
        assert field in message, (field, message)
    assert "pivot" not in message


def test_failure_at_a_word_that_is_not_good_lists_it(monkeypatch):
    # corrections read only good coefficients, so the asymmetry survives the
    # pass and the final full-support guard must catch it
    spoilt = []

    def add_q(table, elt):
        w = max(w for w in elt.terms if table._factors_i(w) is None)
        spoilt.append(shuffle.format_word(table._w_out(w)))
        return elt + ShuffleElt.from_word(elt.datum, w, monomial(1))

    table, target = _broken_table(monkeypatch, add_q)
    with pytest.raises(StraighteningFailure, match="asymmetric words") as info:
        table.dual_canonical_weight((1, 1, 1))
    message = str(info.value)
    for field in ("A3", "order 2,1,3", "weight 1,1,1", f"good word {shuffle.format_word(target)}", spoilt[0]):
        assert field in message, (field, message)


# -- where an exact division failed ---------------------------------------------------


def _fields(message, *fields):
    for field in fields:
        assert field in message, (field, message)


def test_inexact_correction_names_datum_order_weight_good_word_and_pivot(monkeypatch):
    # doubling the smallest vector and its kappa keeps it a valid pivot, but
    # the correction at the next good word then divides an odd difference by
    # 2; the smallest good word is the good Lyndon word w[2,3,1], so its
    # dual root vector and kappa are doubled
    table = basis.GoodLyndonTable(cartan.parse("A3"), (2, 1, 3))
    pivot, good = (g.word for g in table.good_words_of_weight((1, 1, 1))[:2])
    assert table.good_word(pivot).factors == ((pivot, 1),)
    r, root, kappa, d = table._root_i(table._w_in(pivot))
    monkeypatch.setitem(table._roots, table._w_in(pivot), (r, root.scaled(2), kappa * 2, d))
    with pytest.raises(laurent.InexactDivision) as info:
        table.dual_canonical_weight((1, 1, 1))
    assert type(info.value) is laurent.InexactDivision
    assert type(info.value.__cause__) is laurent.InexactDivision
    assert "[" not in str(info.value.__cause__)
    _fields(
        str(info.value),
        "A3",
        "order 2,1,3",
        "weight 1,1,1",
        f"good word {shuffle.format_word(good)}",
        f"pivot {shuffle.format_word(pivot)}",
    )


@pytest.mark.parametrize(
    "alter, error",
    [
        (lambda r: r.scaled(3), laurent.NotAPerfectSquare),
        (lambda r: r + ShuffleElt.from_word(r.datum, min(r.terms)), laurent.InexactDivision),
    ],
    ids=["not-a-square", "inexact-division"],
)
def test_failed_root_normalization_names_datum_order_weight_and_good_word(monkeypatch, alter, error):
    table = basis.GoodLyndonTable(cartan.parse("B2"), (2, 1))
    target = table._w_in((2, 1, 1))
    real = shuffle.shuffle_bracket

    def bracket(f, g):
        out = real(f, g)
        return alter(out) if shuffle.max_word(out) == target else out

    monkeypatch.setattr(shuffle, "shuffle_bracket", bracket)
    with pytest.raises(error) as info:
        table.dual_canonical_weight((2, 1))
    assert type(info.value) is error and type(info.value.__cause__) is error
    message = str(info.value)
    _fields(message, "B2", "order 2,1", "weight 2,1", "good word w[2,1,1]")
    assert "pivot" not in message


def test_missing_lyndon_cover_names_datum_order_and_root_in_table_letters(monkeypatch):
    # internal letters 1, 2, 3 are nodes 3, 1, 2; the first composite root
    # tried is internal (0, 1, 1), which is alpha_1 + alpha_2 in the table's letters
    monkeypatch.setattr(basis.words, "is_lyndon", lambda w: False)
    with pytest.raises(laurent.TheoryViolation) as info:
        basis.GoodLyndonTable(cartan.parse("A3"), (3, 1, 2))
    message = str(info.value)
    assert message.startswith("no Lyndon cover found for root 1,1,0 ")
    _fields(message, "A3", "order 3,1,2")
