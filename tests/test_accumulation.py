"""The sparse-accumulation kernel: `laurent._mul_add`, the one loop that
accumulates into a raw exponent map, the ring laws built on it, and the
element operations: `+` and `scaled`, which accumulate through
`shuffle._scaled_into`, and those that map distinct words to distinct
words, each against a plain dict-of-sums reference."""

from collections import defaultdict
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshuffle import cartan, laurent
from qshuffle.laurent import ONE, ZERO, LaurentPoly, exact_div, sqrt_exact
from qshuffle.shuffle import ShuffleElt, bar_elt, concat, e_prime, e_prime_dag, sigma, tau

exponent_maps = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4).filter(bool), max_size=5)
polys = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def _reference(*contributions):
    """Plain sums over (exponent, coefficient) pairs, zeros dropped."""
    sums = defaultdict(int)
    for terms in contributions:
        for e, c in terms:
            sums[e] += c
    return {e: c for e, c in sums.items() if c}


monomial_maps = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4).filter(bool), min_size=1, max_size=1)
long_maps = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4).filter(bool), min_size=2, max_size=6)
# _mul_add runs its shorter operand outside, so either operand may be the
# longer one, and one-term operands are the common case in the kernel
operand_pairs = st.one_of(
    st.tuples(exponent_maps, exponent_maps),
    st.tuples(long_maps, monomial_maps),
    st.tuples(monomial_maps, long_maps),
    st.tuples(long_maps, exponent_maps),
)


@settings(max_examples=200, deadline=None)
@given(exponent_maps, operand_pairs)
def test_mul_add_matches_plain_sums(acc, pq):
    p, q = pq
    p_before, q_before = dict(p), dict(q)
    expected = _reference(acc.items(), ((e1 + e2, c1 * c2) for e1, c1 in p.items() for e2, c2 in q.items()))
    laurent._mul_add(acc, p, q)
    assert acc == expected
    assert all(acc.values())
    assert p == p_before and q == q_before


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO and (a - b) + b == a
    assert a * ONE == a and a + ZERO == a
    assert all((a * b).terms.values()) and all((a - b).terms.values())


@settings(max_examples=150, deadline=None)
@given(polys, nonzero_polys)
def test_exact_div_and_sqrt_round_trips(p, d):
    assert exact_div(p * d, d) == p
    assert sqrt_exact(p * p) in (p, -p)


# -- element operations -----------------------------------------------------------

B2 = cartan.parse("B2")


def _words(*letters):
    return sorted(set(permutations(letters)))


WORDS_22 = _words(1, 1, 2, 2)
WORDS_21 = _words(1, 1, 2)
WORDS_12 = _words(1, 2, 2)


def elements(words, datum=B2):
    raw = st.dictionaries(st.sampled_from(words), nonzero_polys, max_size=len(words))
    return raw.map(lambda terms: ShuffleElt(datum, cartan.word_weight(datum, words[0]), terms))


def _naive(pairs):
    """word -> exponent map of the sum of c * w over (w, c) pairs, by plain sums."""
    sums = defaultdict(int)
    for w, terms in pairs:
        for e, x in terms:
            sums[w, e] += x
    out = defaultdict(dict)
    for (w, e), x in sums.items():
        if x:
            out[w][e] = x
    return dict(out)


def _raw_terms(f):
    assert all(c for c in f.terms.values()), "a stored word carries a zero coefficient"
    return {w: c.terms for w, c in f.terms.items()}


@settings(max_examples=150, deadline=None)
@given(elements(WORDS_22), elements(WORDS_22), st.sets(st.sampled_from(WORDS_22)))
def test_add_matches_naive_sum(f, g, cancel):
    # words in `cancel` get -f's coefficient in g, so they must drop out
    g = ShuffleElt(B2, g.weight, {**g.terms, **{w: -f.terms[w] for w in cancel if w in f.terms}})
    pairs = [(w, c.terms.items()) for h in (f, g) for w, c in h.terms.items()]
    assert _raw_terms(f + g) == _naive(pairs)
    assert _raw_terms(f - f) == {}


# 0, 1 and -1 as integers, the empty polynomial, monomials and longer polynomials
scales = st.one_of(
    st.sampled_from([0, 1, -1, ZERO]),
    monomial_maps.map(LaurentPoly),
    long_maps.map(LaurentPoly),
)


@settings(max_examples=150, deadline=None)
@given(elements(WORDS_22), scales)
def test_scaled_matches_naive_sum(f, c):
    terms = LaurentPoly({0: c}).terms if isinstance(c, int) else c.terms
    pairs = [
        (w, [(e1 + e2, x1 * x2) for e1, x1 in v.terms.items() for e2, x2 in terms.items()])
        for w, v in f.terms.items()
    ]
    h = f.scaled(c)
    assert _raw_terms(h) == _naive(pairs)
    assert h.weight == f.weight


def _maps_of(*elts):
    return {id(c.terms) for f in elts for c in f.terms.values()}


@settings(max_examples=100, deadline=None)
@given(elements(WORDS_22), elements(WORDS_22), scales.filter(lambda c: c != 1))
def test_add_and_scaled_share_no_map_of_an_operand(f, g, c):
    assert not _maps_of(f + g) & _maps_of(f, g)
    assert not _maps_of(f.scaled(c)) & _maps_of(f)


def test_scaled_multiplies_no_laurent_polynomial(monkeypatch):
    f = ShuffleElt(B2, (2, 1), {(1, 1, 2): LaurentPoly({0: 1, 2: -1}), (2, 1, 1): laurent.monomial(-1, 3)})
    scales = [laurent.monomial(2, -3), LaurentPoly({0: 1, 1: 2, -1: -1})]
    expected = [{w: v * c for w, v in f.terms.items()} for c in scales]

    def refused(self, other):
        raise AssertionError("scaled multiplied through LaurentPoly.__mul__")

    monkeypatch.setattr(LaurentPoly, "__mul__", refused)
    assert [f.scaled(c).terms for c in scales] == expected


@settings(max_examples=100, deadline=None)
@given(elements(WORDS_21), elements(WORDS_12))
def test_concat_matches_naive_sum(f, g):
    pairs = [
        (wf + wg, [(e1 + e2, x1 * x2) for e1, x1 in cf.terms.items() for e2, x2 in cg.terms.items()])
        for wf, cf in f.terms.items()
        for wg, cg in g.terms.items()
    ]
    h = concat(f, g)
    assert _raw_terms(h) == _naive(pairs)
    assert h.weight == cartan.add(f.weight, g.weight)


@settings(max_examples=100, deadline=None)
@given(elements(WORDS_22), st.sampled_from([1, 2]))
def test_letter_deletions_match_naive_sum(f, i):
    last = [(w[:-1], c.terms.items()) for w, c in f.terms.items() if w[-1] == i]
    first = [(w[1:], c.terms.items()) for w, c in f.terms.items() if w[0] == i]
    assert _raw_terms(e_prime(f, i)) == _naive(last)
    assert _raw_terms(e_prime_dag(f, i)) == _naive(first)
    assert e_prime(f, i).weight == e_prime_dag(f, i).weight == cartan.sub(f.weight, cartan.simple_root(B2, i))


def _pair_sum(datum, w):
    """sum over s < t of (alpha_{w_s}, alpha_{w_t}), word by word."""
    return sum(datum.bilinear[a - 1][b - 1] for s, a in enumerate(w) for b in w[s + 1 :])


D4 = cartan.parse("D4")
# A3; C3 with d = 2 at node 1; G2 with d = 3 at node 2; D4 at a weight that
# uses every node and at one that lacks node 4, so that e_prime(f, 4) is a
# zero element whose weight tag lies outside the cone (the example pins one)
TWIST_WORDS = [
    (B2, WORDS_22),
    (cartan.parse("A3"), _words(1, 2, 2, 3)),
    (cartan.parse("C3"), _words(1, 1, 2, 3)),
    (cartan.parse("G2"), _words(1, 1, 2, 2)),
    (D4, _words(1, 2, 3, 4)),
    (D4, _words(1, 2, 3, 3)),
]
twist_elements = st.sampled_from(TWIST_WORDS).flatmap(lambda dw: elements(dw[1], dw[0]))


@settings(max_examples=150, deadline=None)
@given(twist_elements)
@example(ShuffleElt(D4, (1, 1, 2, 0), {(1, 3, 2, 3): ONE}))
def test_twists_match_naive_sum(f):
    datum = f.datum
    for g in (f, *(e_prime(f, i) for i in range(1, datum.rank + 1))):
        twisted = [(w, [(-e - _pair_sum(datum, w), x) for e, x in c.terms.items()]) for w, c in g.terms.items()]
        assert _raw_terms(tau(g)) == _naive((w[::-1], c.terms.items()) for w, c in g.terms.items())
        assert _raw_terms(bar_elt(g)) == _naive((w[::-1], terms) for w, terms in twisted)
        assert _raw_terms(sigma(g)) == _naive(twisted)
        assert tau(g).weight == bar_elt(g).weight == sigma(g).weight == g.weight
