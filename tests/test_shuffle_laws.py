"""The algebraic laws of the q-shuffle product that the basis construction
relies on, as properties of random homogeneous elements and random words:
associativity, bilinearity over Laurent scalars, `tau` as an
anti-automorphism, `bar_elt` as an automorphism, and agreement of the
recursive product with direct interleaving."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import cartan
from qshuffle.laurent import LaurentPoly
from qshuffle.shuffle import ShuffleElt, bar_elt, qshuffle, tau
from test_shuffle import qshuffle_by_interleaving

DATA = [cartan.parse(label) for label in ("A2", "A3", "B2", "G2")]

nonzero_polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(LaurentPoly).filter(bool)


def words(datum, max_len):
    return st.lists(st.integers(1, datum.rank), min_size=1, max_size=max_len).map(tuple)


@st.composite
def elements(draw, datum):
    """A homogeneous element: up to three permutations of one letter multiset."""
    base = draw(words(datum, 3))
    support = sorted(set(permutations(base)))
    terms = draw(st.dictionaries(st.sampled_from(support), nonzero_polys, min_size=1, max_size=3))
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


def same_datum(n):
    return st.sampled_from(DATA).flatmap(lambda datum: st.tuples(*(elements(datum) for _ in range(n))))


@settings(max_examples=100, deadline=None)
@given(same_datum(3))
def test_qshuffle_is_associative(fgh):
    f, g, h = fgh
    assert qshuffle(qshuffle(f, g), h) == qshuffle(f, qshuffle(g, h))


@settings(max_examples=100, deadline=None)
@given(same_datum(2), nonzero_polys)
def test_a_scalar_moves_through_qshuffle(fg, c):
    # the dual PBW build scales its smallest factor instead of the product
    f, g = fg
    assert qshuffle(f.scaled(c), g) == qshuffle(f, g).scaled(c) == qshuffle(f, g.scaled(c))


@settings(max_examples=100, deadline=None)
@given(same_datum(2))
def test_tau_is_an_anti_automorphism(fg):
    f, g = fg
    assert tau(qshuffle(f, g)) == qshuffle(tau(g), tau(f))


@settings(max_examples=100, deadline=None)
@given(same_datum(2))
def test_bar_is_an_automorphism(fg):
    f, g = fg
    assert bar_elt(qshuffle(f, g)) == qshuffle(bar_elt(f), bar_elt(g))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DATA).flatmap(lambda d: st.tuples(st.just(d), words(d, 4), words(d, 4))))
def test_recursive_product_matches_interleaving(case):
    datum, w1, w2 = case
    recursive = qshuffle(ShuffleElt.from_word(datum, w1), ShuffleElt.from_word(datum, w2))
    assert recursive == qshuffle_by_interleaving(datum, w1, w2)
