"""The algebraic laws of the q-shuffle product that the basis construction
relies on, as properties of random homogeneous elements and random words:
associativity, bilinearity over Laurent scalars, `tau` as an
anti-automorphism, a diagram automorphism's letter map and `bar_elt` as
automorphisms, agreement of the
recursive product with direct interleaving, and the product of elements as
the sum over their word pairs, with cancelling pairs."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import basis, cartan
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


SIGMA_DATA = [cartan.parse(label) for label in ("A3", "D4", "E6")]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SIGMA_DATA).flatmap(
        lambda d: st.tuples(st.sampled_from(cartan.automorphisms(d)), elements(d), elements(d))
    )
)
def test_a_diagram_automorphism_is_an_automorphism(case):
    # the scan relabels a weight's vectors and their reality verdicts by
    # sigma, which needs sigma(f * g) = sigma(f) * sigma(g)
    s, f, g = case
    sigma = lambda e: basis._moved_elt((0, *s), e.datum, e)  # noqa: E731
    assert sigma(qshuffle(f, g)) == qshuffle(sigma(f), sigma(g))


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


# -- squares: one order of each pair of words determines the other ------------------

SQUARE_DATA = [cartan.parse(label) for label in ("B2", "G2", "D4")]


def _mirrored(elt, n):
    """q^{-n} times elt with q -> q^{-1} on its coefficients only."""
    return ShuffleElt(elt.datum, elt.weight, {w: c.bar().shifted(-n) for w, c in elt.terms.items()})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SQUARE_DATA).flatmap(lambda d: st.tuples(st.just(d), words(d, 5), words(d, 5))))
def test_reversed_word_product_is_the_mirrored_product(case):
    # v * u = q^{-(|u|,|v|)} bar(u * v), bar acting on coefficients only
    datum, u, v = case
    uv = qshuffle(ShuffleElt.from_word(datum, u), ShuffleElt.from_word(datum, v))
    vu = qshuffle(ShuffleElt.from_word(datum, v), ShuffleElt.from_word(datum, u))
    n = cartan.bilinear_form(datum, cartan.word_weight(datum, u), cartan.word_weight(datum, v))
    assert vu == _mirrored(uv, n)


wide_polys = st.dictionaries(st.integers(-6, 6), st.integers(-(10**12), 10**12), max_size=4).map(LaurentPoly)


@st.composite
def square_operands(draw):
    """Zero, one or several permutations of one letter multiset over B2 or G2,
    with wide coefficients that are sometimes all bar-symmetric, as those of
    the dual canonical vectors that the reality check squares are; squaring
    one passes the same object as both operands of `qshuffle`."""
    datum = draw(st.sampled_from(SQUARE_DATA[:2]))
    base = draw(words(datum, 5))
    support = sorted(set(permutations(base)))
    terms = draw(st.dictionaries(st.sampled_from(support), wide_polys, max_size=6))
    if draw(st.booleans()):
        terms = {w: c + c.bar() for w, c in terms.items()}
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


@settings(max_examples=150, deadline=None)
@given(square_operands())
def test_square_matches_the_product_with_a_distinct_copy(f):
    copy_of_f = ShuffleElt(f.datum, f.weight, f.terms)
    assert copy_of_f is not f
    square = qshuffle(f, f)
    assert square == qshuffle(f, copy_of_f) and square.weight == cartan.add(f.weight, f.weight)


# -- the product against its definition, term by term --------------------------------

PAIR_DATA = [cartan.parse(label) for label in ("A2", "B2")]

monomials = st.tuples(st.integers(-4, 4), st.integers(-3, 3).filter(bool)).map(lambda t: LaurentPoly({t[0]: t[1]}))
multi_term_polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), min_size=2, max_size=3).map(
    LaurentPoly
)
# the kernel takes a fresh-map path for a one-term pair scale and a general one otherwise
pair_coefficients = st.one_of(monomials, multi_term_polys)


@st.composite
def pair_operands(draw, datum):
    base = draw(words(datum, 3))
    support = sorted(set(permutations(base)))
    terms = draw(st.dictionaries(st.sampled_from(support), pair_coefficients, min_size=1, max_size=3))
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


@st.composite
def cancelling_operands(draw, datum):
    """f = m s2 w1 - m s1 w2 and g = c v, where w2 is w1 with one adjacent pair
    ab swapped, v = a, and s1, s2 are the coefficients of one word x in both
    w1 * v and w2 * v (inserting a after b in w1 is inserting it before b in
    w2).  The two word pairs cancel at x, so x must leave the product."""
    base = draw(words(datum, 3).filter(lambda w: len(set(w)) > 1))
    w1 = draw(st.sampled_from(sorted(set(permutations(base)))))
    i = draw(st.sampled_from([i for i in range(len(w1) - 1) if w1[i] != w1[i + 1]]))
    w2 = w1[:i] + (w1[i + 1], w1[i]) + w1[i + 2 :]
    v = (w1[i],)
    s1, s2 = (qshuffle_by_interleaving(datum, w, v).terms for w in (w1, w2))
    x = draw(st.sampled_from(sorted(s1.keys() & s2.keys())))
    m = draw(pair_coefficients)
    f = ShuffleElt(datum, cartan.word_weight(datum, base), {w1: m * s2[x], w2: -(m * s1[x])})
    return f, ShuffleElt.from_word(datum, v, draw(pair_coefficients)), x


def _sum_over_word_pairs(f, g):
    """sum of cf cg (wf * wg) over the word pairs, with element arithmetic."""
    out = ShuffleElt.zero(f.datum, cartan.add(f.weight, g.weight))
    for wf, cf in f.terms.items():
        for wg, cg in g.terms.items():
            out = out + qshuffle_by_interleaving(f.datum, wf, wg).scaled(cf * cg)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PAIR_DATA).flatmap(lambda d: st.tuples(pair_operands(d), pair_operands(d))))
def test_qshuffle_is_the_sum_over_word_pairs(fg):
    f, g = fg
    assert qshuffle(f, g) == _sum_over_word_pairs(f, g)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PAIR_DATA).flatmap(cancelling_operands))
def test_qshuffle_drops_a_word_whose_pairs_cancel(case):
    f, g, x = case
    h = qshuffle(f, g)
    assert x not in h.terms
    assert all(h.terms.values())
    assert h == _sum_over_word_pairs(f, g)
