import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qshuffle import laurent
from qshuffle.laurent import (
    ONE,
    ZERO,
    InexactDivision,
    LaurentPoly,
    NotAPerfectSquare,
    exact_div,
    monomial,
    q_binom,
    q_factorial,
    q_int,
    sqrt_exact,
)


def P(**terms):
    """Shorthand: P(e2=1, em1=3) = q^2 + 3q^-1 (em = negative exponent)."""
    out = {}
    for key, c in terms.items():
        e = int(key[2:]) * -1 if key.startswith("em") else int(key[1:])
        out[e] = c
    return LaurentPoly(out)


def random_poly(rng, max_span=4, max_coeff=5, allow_zero=True):
    if allow_zero and rng.random() < 0.1:
        return ZERO
    lo = rng.randint(-max_span, max_span)
    return LaurentPoly(
        {lo + i: rng.randint(-max_coeff, max_coeff) for i in range(rng.randint(1, max_span))}
    )


def test_ring_ops_examples():
    two_cosh = P(e1=1, em1=1)
    assert two_cosh + ZERO == two_cosh
    assert two_cosh * P(e1=1, em1=-1) == P(e2=1, em2=-1)
    assert (P(e2=1, e0=1)).shifted(-2) == P(e0=1, em2=1)
    assert -P(e1=2) == P(e1=-2)
    assert P(e1=1) - P(e1=1) == ZERO


def test_normalization_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, 0: 0})
    assert p.terms == {1: 2}
    assert LaurentPoly({5: 0}) == ZERO
    assert not ZERO


@pytest.mark.parametrize("n", [0, 1, -3])
def test_a_constant_hashes_like_the_integer_it_equals(n):
    c = LaurentPoly({0: n})
    assert c == n and hash(c) == hash(n)
    assert len({c, n}) == 1 and {n: "x"}.get(c) == "x" and {c: "x"}.get(n) == "x"
    # a monomial of the same coefficient is another key
    assert n == 0 or monomial(1, n) not in {c, n}


def test_non_integer_input_rejected():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1})


def test_degree_valuation():
    p = P(e3=1, em2=4)
    assert p.degree() == 3 and p.valuation() == -2
    assert p.leading_coefficient() == 1
    with pytest.raises(ValueError):
        ZERO.degree()


def test_bar_examples():
    assert P(e2=1, e1=1).bar() == P(em2=1, em1=1)
    assert P(e1=1, em1=1).bar() == P(e1=1, em1=1)
    assert ZERO.bar() == ZERO


def test_bar_is_an_involution():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        assert p.bar().bar() == p


def test_is_bar_symmetric():
    assert P(e1=1, em1=1).is_bar_symmetric()
    assert not P(e1=1).is_bar_symmetric()
    assert P(e2=1, e0=1, em2=1).is_bar_symmetric()


def test_q_int_examples():
    assert q_int(2, 1) == P(e1=1, em1=1)
    assert q_int(3, 1) == P(e2=1, e0=1, em2=1)
    assert q_int(0, 1) == ZERO
    assert q_int(1, 3) == ONE
    assert q_int(2, 3) == P(e3=1, em3=1)
    assert q_binom(2, 1, 1) == q_int(2, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_combinatorics_bar_symmetric(d):
    for k in range(13):
        assert q_int(k, d).is_bar_symmetric()
        assert q_factorial(k, d).is_bar_symmetric()
        for j in range(k + 1):
            assert q_binom(k, j, d).is_bar_symmetric()


def test_q_binom_against_product_oracle():
    # [m choose k] * [k]! * [m-k]! must reproduce [m]! exactly.
    for m in range(7):
        for k in range(m + 1):
            assert q_binom(m, k, 2) * q_factorial(k, 2) * q_factorial(m - k, 2) == q_factorial(m, 2)


def test_exact_div_examples():
    assert exact_div(ONE - monomial(4), ONE - monomial(2)) == ONE + monomial(2)
    assert exact_div(P(e2=1, e0=2, em2=1), P(e1=1, em1=1)) == P(e1=1, em1=1)
    with pytest.raises(InexactDivision):
        exact_div(P(e1=1, e0=1), P(e1=1, e0=-1))
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)


def test_exact_div_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        p = random_poly(rng)
        d = random_poly(rng, allow_zero=False)
        if not d:
            continue
        assert exact_div(p * d, d) == p


def test_sqrt_examples():
    two = P(e1=1, em1=1)
    assert sqrt_exact(two * two) == two
    assert sqrt_exact(ONE) == ONE
    assert sqrt_exact(ZERO) == ZERO
    # multiply [2]*[3] out by hand and square it independently
    prod = q_int(2, 1) * q_int(3, 1)
    assert prod == P(e3=1, e1=2, em1=2, em3=1)
    assert sqrt_exact(prod * prod) == prod


def test_sqrt_normalizes_leading_sign():
    rng = random.Random(13)
    for _ in range(200):
        s = random_poly(rng, allow_zero=False)
        if not s:
            continue
        root = sqrt_exact(s * s)
        assert root == s or root == -s
        assert root.leading_coefficient() > 0


def test_sqrt_rejects_non_squares():
    with pytest.raises(NotAPerfectSquare):
        sqrt_exact(P(e1=1))  # odd exponent
    with pytest.raises(NotAPerfectSquare):
        sqrt_exact(P(e2=2))  # non-square coefficient
    with pytest.raises(NotAPerfectSquare):
        sqrt_exact(P(e2=1, e0=1))


def test_positive_part_examples():
    assert P(e2=1, e0=1, em2=1).positive_part() == P(e2=1)
    assert P(em1=1).positive_part() == ZERO
    assert P(e3=1, e1=1).positive_part() == P(e3=1, e1=1)


def test_positive_part_partition_property():
    rng = random.Random(17)
    for _ in range(300):
        p = random_poly(rng)
        const = LaurentPoly({0: p.coefficient(0)})
        assert p.positive_part() + p.bar().positive_part().bar() + const == p


def test_at_one():
    assert P(e1=1, em1=1).at_one() == 2
    assert ZERO.at_one() == 0


def test_text_rendering():
    assert str(q_int(2, 1) * q_int(3, 1)) == "q^3 + 2*q + 2*q^-1 + q^-3"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(P(e1=-1, e0=2)) == "-q + 2"
    assert str(P(e2=1, em1=-3)) == "q^2 - 3*q^-1"


def test_json_roundtrip():
    p = q_int(2, 1) * q_int(3, 1)
    assert p.to_json() == {"3": 1, "1": 2, "-1": 2, "-3": 1}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json({}) == ZERO


@st.composite
def packable(draw):
    """A width W and a nonzero exponent map whose coefficients lie strictly
    between -2^(W-1) and 2^(W-1), the extreme ones often."""
    width = draw(st.integers(2, 80))
    top = 2 ** (width - 1) - 1
    digits = st.sampled_from([top, -top]) | st.integers(-top, top).filter(bool)
    return width, draw(st.dictionaries(st.integers(-20, 20), digits, min_size=1, max_size=8))


@given(packable())
@example((2, {-5: 1, -2: -1, 0: 1}))
@example((64, {-9: 2**63 - 1, -8: -(2**63 - 1), -1: -(2**63 - 1), 4: 2**63 - 1}))
def test_pack_and_unpack_round_trip(case):
    # negative exponents, the extreme digits and zero digits between them
    width, terms = case
    value, low = laurent._pack(terms, width)
    assert low == min(terms)
    assert value == sum(c * 2 ** (width * (e - low)) for e, c in terms.items())
    assert laurent._unpack(value, low, width) == terms
    assert laurent._unpack(0, low, width) == {}
