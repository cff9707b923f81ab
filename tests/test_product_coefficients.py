"""`shuffle.product_coefficients` against the products `qshuffle` builds:
random products of one to four factors, some the same object repeated,
with bar-symmetric coefficients or not, small or up to 2^100, at words
inside and outside the support; and every square and every dual PBW
vector at weight 2nu that the reality check reads for B2 and G2 up to
height 4.  Coefficients come back as raw exponent maps."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import basis, cartan
from qshuffle.laurent import LaurentPoly, monomial
from qshuffle.shuffle import ShuffleElt, product_coefficients, qshuffle

DATA = [cartan.parse(label) for label in ("A2", "B2", "G2")]


def _polys(limit):
    coefficients = st.integers(-limit, limit)
    return st.dictionaries(st.integers(-3, 3), coefficients, min_size=1, max_size=3).map(LaurentPoly).filter(bool)


polys = _polys(3)
# p + bar(p): bar-symmetric coefficients, as those of the vectors the reality check squares
symmetric_polys = polys.map(lambda p: p + p.bar()).filter(bool)
# coefficients far beyond one machine word, so that the packed pass needs a wide W
wide_polys = _polys(2**100)


@st.composite
def elements(draw, datum, choices):
    """A homogeneous element on up to three permutations of one letter multiset."""
    base = draw(st.lists(st.integers(1, datum.rank), min_size=1, max_size=3))
    support = sorted(set(permutations(base)))
    coefficients = draw(st.sampled_from(choices))
    terms = draw(st.dictionaries(st.sampled_from(support), coefficients, min_size=1, max_size=3))
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


@st.composite
def products(draw, choices=(polys, symmetric_polys)):
    """Factors over one datum, each a new element or an earlier one again."""
    datum = draw(st.sampled_from(DATA))
    factors = [draw(elements(datum, choices))]
    for _ in range(draw(st.integers(0, 3))):
        repeat = draw(st.booleans())
        factors.append(draw(st.sampled_from(factors)) if repeat else draw(elements(datum, choices)))
    return factors


def _built(factors):
    product = factors[0]
    for f in factors[1:]:
        product = qshuffle(product, f)
    return product


def _assert_extracted_match_built(factors, data):
    product = _built(factors)
    letters = tuple(x for f in factors for x in next(iter(f.terms)))  # a word of the product's weight
    inside = data.draw(st.lists(st.sampled_from(sorted(product.terms)), max_size=4))
    # same letters, maybe outside the support; and words of other weights
    outside = data.draw(st.lists(st.permutations(letters).map(tuple), max_size=4))
    other = [letters[:-1], letters + (1,), ()]
    got = product_coefficients(factors, inside + outside + other)
    assert got == {w: product.terms[w].terms for w in inside + outside if w in product.terms}


@settings(max_examples=100, deadline=None)
@given(products(), st.data())
def test_extracted_coefficients_match_the_built_product(factors, data):
    _assert_extracted_match_built(factors, data)


@settings(max_examples=100, deadline=None)
@given(products((wide_polys,)), st.data())
def test_extracted_coefficients_are_exact_with_coefficients_up_to_2_to_the_100(factors, data):
    # the packed pass must pick W from the coefficients' size, not a fixed word
    _assert_extracted_match_built(factors, data)


def test_a_zero_factor_gives_zero_and_a_factor_of_weight_zero_is_refused():
    f = ShuffleElt(DATA[0], (1, 1), {(1, 2): monomial(1), (2, 1): monomial(-1, 3)})
    assert product_coefficients([f, ShuffleElt.zero(f.datum, (1, 0))], [(1, 2, 1), (1, 1, 2)]) == {}
    for factors in ([], [f, ShuffleElt.from_word(f.datum, ())]):
        with pytest.raises(ValueError):
            product_coefficients(factors, [(1, 2)])


def _all_words(elt):
    return set(permutations(next(iter(elt.terms))))


def _raw(elt):
    return {w: c.terms for w, c in elt.terms.items()}


# (dual canonical vectors up to height 4, good words at their doubled weights)
COUNTS = {"B2": (24, 41), "G2": (25, 53)}


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_squares_and_dual_pbw_vectors_at_twice_the_weight(label):
    # what the reality check reads: b* * b*, and E*_h = E*_{l^a} * ... over
    # h's factor groups, smallest first, for every good word h of 2nu, the
    # groups' vectors taken in the scope of nu as the check takes them
    table = basis.GoodLyndonTable(cartan.parse(label))
    built = basis.GoodLyndonTable(cartan.parse(label))
    squares = vectors = 0
    for nu in cartan.weights_up_to_height(2, 4):
        for _, elt, *_ in table._dual_canonical_weight_i(nu):
            square = qshuffle(elt, elt)
            assert product_coefficients([elt, elt], _all_words(square)) == _raw(square)
            squares += 1
        built._enter(cartan.add(nu, nu))
        for h, factors in table._good_words_i(cartan.add(nu, nu)):
            pbw = built._dual_pbw_i(h, factors)
            assert product_coefficients(table._group_vectors(factors), _all_words(pbw)) == _raw(pbw)
            vectors += 1
    assert (squares, vectors) == COUNTS[label]
