import random
from itertools import combinations

import pytest

from qshuffle import cartan, laurent
from qshuffle.laurent import ONE, ZERO, LaurentPoly, monomial, q_binom, q_int
from qshuffle.shuffle import (
    DatumMismatch,
    HomogeneityError,
    ShuffleElt,
    ZeroElement,
    bar_elt,
    coefficient,
    concat,
    e_prime,
    e_prime_dag,
    max_word,
    prepend_letter,
    qshuffle,
    serre_membership,
    shuffle_bracket,
    sigma,
    specialize_q1,
    tau,
)

A2 = cartan.parse("A2")
A3 = cartan.parse("A3")
B2 = cartan.parse("B2")
B3 = cartan.parse("B3")
C3 = cartan.parse("C3")
D4 = cartan.parse("D4")
G2 = cartan.parse("G2")

DATA = [A2, A3, B2, G2]


def W(datum, *letters):
    return ShuffleElt.from_word(datum, tuple(letters))


def random_word(rng, datum, length):
    return tuple(rng.randint(1, datum.rank) for _ in range(length))


def random_elt(rng, datum, max_len=3, max_terms=3):
    """A random homogeneous element: permutations of one letter multiset."""
    base = random_word(rng, datum, rng.randint(1, max_len))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = list(base)
        rng.shuffle(w)
        coef = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
        if coef:
            terms[tuple(w)] = coef
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


def conjugated(f):
    """q -> q^{-1} on coefficients only, words untouched."""
    return ShuffleElt(f.datum, f.weight, {w: c.bar() for w, c in f.terms.items()})


def test_qshuffle_examples():
    assert qshuffle(W(A2, 1), W(A2, 2)) == ShuffleElt(A2, (1, 1), {(1, 2): monomial(1), (2, 1): ONE})
    assert qshuffle(W(A2, 1), W(A2, 1)) == ShuffleElt(A2, (2, 0), {(1, 1): ONE + monomial(-2)})
    f = random_elt(random.Random(0), B2)
    unit = ShuffleElt.from_word(B2, ())
    assert qshuffle(unit, f) == f
    assert qshuffle(f, unit) == f


def qshuffle_by_interleaving(datum, w1, w2):
    """Reference product of two words by direct enumeration of interleavings.

    Each way of placing w1's letters (in order) among len(w1)+len(w2) slots
    contributes the interleaved word times q to minus the sum of pairings of
    every w1-letter with every w2-letter placed after it.
    """
    bil = datum.bilinear
    slots = range(len(w1) + len(w2))
    terms = {}
    for pos in combinations(slots, len(w1)):
        rest = [p for p in slots if p not in pos]
        letters = [0] * len(slots)
        for p, a in zip(pos, w1):
            letters[p] = a
        for p, b in zip(rest, w2):
            letters[p] = b
        e = sum(bil[a - 1][b - 1] for p, a in zip(pos, w1) for p2, b in zip(rest, w2) if p < p2)
        w = tuple(letters)
        terms[w] = terms.get(w, ZERO) + monomial(-e)
    return ShuffleElt(datum, cartan.word_weight(datum, w1 + w2), terms)


def test_qshuffle_matches_interleaving_expansion():
    rng = random.Random(23)
    for _ in range(200):
        datum = rng.choice(DATA)
        w1 = random_word(rng, datum, rng.randint(1, 4))
        w2 = random_word(rng, datum, rng.randint(1, 4))
        recursive = qshuffle(ShuffleElt.from_word(datum, w1), ShuffleElt.from_word(datum, w2))
        assert recursive == qshuffle_by_interleaving(datum, w1, w2)


def test_qshuffle_associative():
    rng = random.Random(29)
    for _ in range(200):
        datum = rng.choice(DATA)
        f, g, h = (random_elt(rng, datum) for _ in range(3))
        assert qshuffle(qshuffle(f, g), h) == qshuffle(f, qshuffle(g, h))


def test_twisted_commutativity():
    # w * x = q^{-(|w|,|x|)} (x *conj w) where *conj flips q in the recursion
    rng = random.Random(31)
    for _ in range(200):
        datum = rng.choice(DATA)
        w = ShuffleElt.from_word(datum, random_word(rng, datum, rng.randint(1, 4)))
        x = ShuffleElt.from_word(datum, random_word(rng, datum, rng.randint(1, 4)))
        e = cartan.bilinear_form(datum, w.weight, x.weight)
        assert qshuffle(w, x) == conjugated(qshuffle(conjugated(x), conjugated(w))).scaled(monomial(-e))


@pytest.mark.parametrize("letter", [0, -1, 3])
def test_a_letter_outside_the_alphabet_is_refused(letter):
    # a letter <= 0 wrapped into the last coordinates, so w[0] passed for a
    # word of weight (0, 1), and one above the rank overflowed them
    message = rf"letter {letter} outside alphabet 1\.\.2"
    with pytest.raises(ValueError, match=message):
        cartan.word_weight(A2, (1, letter))
    with pytest.raises(ValueError, match=message):
        ShuffleElt(A2, (0, 1), {(letter,): ONE})
    with pytest.raises(ValueError, match=message):
        ShuffleElt.from_word(A2, (letter,))


@pytest.mark.parametrize("coefficient", [1, 0, 1.0, None])
def test_a_coefficient_that_is_not_a_laurent_polynomial_is_refused(coefficient):
    # an int coefficient was stored, and the product, sums and JSON then
    # failed on its missing `terms`
    with pytest.raises(TypeError, match=r"^coefficient of w\[1,2\] must be a LaurentPoly$"):
        ShuffleElt(A2, (1, 1), {(1, 2): coefficient})


def test_concat_and_prepend():
    assert concat(W(A3, 1), W(A3, 2, 3)) == W(A3, 1, 2, 3)
    g = ShuffleElt(A3, (0, 1, 1), {(2, 3): ONE, (3, 2): monomial(1)})
    assert prepend_letter(1, g) == ShuffleElt(A3, (1, 1, 1), {(1, 2, 3): ONE, (1, 3, 2): monomial(1)})
    unit = ShuffleElt.from_word(A3, ())
    assert concat(g, unit) == g


def test_concat_weight_mix_rejected():
    with pytest.raises(HomogeneityError):
        ShuffleElt(A3, (0, 1, 0), {(2,): ONE, (3,): ONE})


def test_shuffle_bracket_examples():
    bracket = shuffle_bracket(W(A2, 1), W(A2, 2))
    assert bracket == ShuffleElt(A2, (1, 1), {(1, 2): monomial(1) - monomial(-1)})
    unit = ShuffleElt.from_word(A2, ())
    assert shuffle_bracket(unit, unit).is_zero()


def test_e_prime_examples():
    f = W(A2, 1, 2)
    assert e_prime(f, 2) == W(A2, 1)
    assert e_prime(f, 1).is_zero()
    assert e_prime_dag(f, 1) == W(A2, 2)
    assert e_prime_dag(f, 2).is_zero()


def test_e_prime_leibniz():
    rng = random.Random(37)
    for _ in range(200):
        datum = rng.choice(DATA)
        f = random_elt(rng, datum)
        g = random_elt(rng, datum)
        i = rng.randint(1, datum.rank)
        alpha = cartan.simple_root(datum, i)
        shift = monomial(-cartan.bilinear_form(datum, alpha, f.weight))
        lhs = e_prime(qshuffle(f, g), i)
        rhs = qshuffle(e_prime(f, i), g) + qshuffle(f, e_prime(g, i)).scaled(shift)
        assert lhs == rhs


def test_tau_bar_sigma_examples():
    assert tau(W(A2, 1, 2)) == W(A2, 2, 1)
    assert bar_elt(W(A2, 1, 2)) == ShuffleElt(A2, (1, 1), {(2, 1): monomial(1)})
    rng = random.Random(41)
    for _ in range(100):
        datum = rng.choice(DATA)
        w = random_word(rng, datum, rng.randint(1, 4))
        n = cartan.n_of(datum, cartan.word_weight(datum, w))
        assert sigma(ShuffleElt.from_word(datum, w)) == ShuffleElt.from_word(datum, w).scaled(monomial(-n))


def test_tau_antiautomorphism_bar_automorphism():
    rng = random.Random(43)
    for _ in range(200):
        datum = rng.choice(DATA)
        f = random_elt(rng, datum)
        g = random_elt(rng, datum)
        assert tau(qshuffle(f, g)) == qshuffle(tau(g), tau(f))
        assert bar_elt(qshuffle(f, g)) == qshuffle(bar_elt(f), bar_elt(g))
        assert bar_elt(bar_elt(f)) == f
        assert sigma(f) == bar_elt(tau(f))


def test_q_serre_identity_all_pairs():
    for datum in [A2, A3, B2, B3, C3, D4, G2]:
        for i in range(1, datum.rank + 1):
            for j in range(1, datum.rank + 1):
                if i == j:
                    continue
                m = 1 - datum.cartan[i - 1][j - 1]
                d = datum.d[i - 1]
                wi, wj = W(datum, i), W(datum, j)
                total = ShuffleElt.zero(datum, cartan.word_weight(datum, (i,) * m + (j,)))
                for k in range(m + 1):
                    term = wj
                    for _ in range(k):
                        term = qshuffle(wi, term)
                    for _ in range(m - k):
                        term = qshuffle(term, wi)
                    term = term.scaled(q_binom(m, k, d))
                    total = total - term if k % 2 else total + term
                assert total.is_zero(), (datum.family, i, j)


def test_membership_of_random_letter_monomials():
    # shuffle products of letters always satisfy the defining linear relations
    rng = random.Random(47)
    for _ in range(200):
        datum = rng.choice(DATA)
        w = random_word(rng, datum, rng.randint(2, 5))
        f = W(datum, w[0])
        for a in w[1:]:
            f = qshuffle(f, W(datum, a))
        assert serre_membership(f) is None


def test_membership_negative_example():
    lone = W(A2, 1, 1, 2)
    witness = serre_membership(lone)
    assert witness is not None
    assert (witness.i, witness.j) == (1, 2)
    assert witness.left == () and witness.right == ()
    # the full relation on that context really is nonzero: [2 choose 0] gamma(112)
    # - [2 choose 1] gamma(121) + [2 choose 2] gamma(211) with gamma = 1, 0, 0
    assert witness.total == ONE


def test_membership_positive_small():
    assert serre_membership(qshuffle(W(A2, 1), W(A2, 2))) is None
    assert serre_membership(ShuffleElt.zero(A2, (1, 1))) is None


def test_symq_equivalence():
    rng = random.Random(53)
    for _ in range(200):
        datum = rng.choice(DATA)
        f = random_elt(rng, datum)
        if f.is_zero():
            continue
        n = cartan.n_of(datum, f.weight)
        symmetric = all(c.is_bar_symmetric() for c in f.terms.values())
        assert (sigma(f) == f.scaled(monomial(-n))) == symmetric
        # force both directions at least once each per run
        sym = ShuffleElt(datum, f.weight, {w: c + c.bar() for w, c in f.terms.items()})
        if sym:
            assert sigma(sym) == sym.scaled(monomial(-n))
        broken = f + ShuffleElt(datum, f.weight, {max(f.terms): monomial(5, 3)})
        if broken and not all(c.is_bar_symmetric() for c in broken.terms.values()):
            assert sigma(broken) != broken.scaled(monomial(-n))


def test_max_word_coefficient_specialize():
    f = qshuffle(W(A2, 1), W(A2, 2))
    assert max_word(f) == (2, 1)
    assert coefficient(f, (1, 2)) == monomial(1)
    assert coefficient(f, (2, 2)) == ZERO
    assert specialize_q1(f) == {(1, 2): 1, (2, 1): 1}
    assert specialize_q1(W(B2, 1, 1, 2).scaled(q_int(2, 1))) == {(1, 1, 2): 2}
    with pytest.raises(ZeroElement):
        max_word(ShuffleElt.zero(A2, (1, 1)))


def test_datum_mismatch():
    with pytest.raises(DatumMismatch):
        qshuffle(W(A2, 1), W(B2, 1))


def test_text_and_json_rendering():
    f = qshuffle(W(B2, 1), W(B2, 1)).scaled(monomial(1))
    text = str(f)
    assert "w[1,1]" in text
    data = f.to_json()
    assert ShuffleElt.from_json(B2, data) == f
    assert data["weight"] == [2, 0]
    assert str(ShuffleElt.zero(A2, (1, 1))) == "0"
