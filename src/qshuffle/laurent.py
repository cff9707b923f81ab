"""Sparse exact Laurent polynomials in one variable q over the integers.

Every coefficient in this package is a value of this ring.  Polynomials are
dict-backed (exponent -> nonzero integer coefficient) with arbitrary-precision
integers, and support the bar involution q -> q^{-1}, exact division and exact
square roots.  Division and square roots fail loudly (`InexactDivision`,
`NotAPerfectSquare`) instead of ever falling back to rational arithmetic:
inexactness always means a bug or a violated structural assumption upstream.

This module owns raw exponent-map arithmetic: `_mul_add` is the only loop
that accumulates into an exponent -> coefficient map.  The ring operations
here and the shuffle kernel, which keeps its coefficients as raw maps, all go
through it; adding c * q^k * p is `_mul_add` with the one-term map {k: c}.

It also owns the packed form that `shuffle.product_coefficients` deals in
(Kronecker substitution).  A pair (V, e0) stands for q^e0 times the
polynomial P with P(2^W) = V, so V = sum c_e 2^(W (e - e0)): the value at
q = 2^W, one integer.  Adding, multiplying and multiplying by q^k act on
these integers exactly, whatever W is.  Reading the coefficients back with
balanced digits in [-2^(W-1), 2^(W-1)) gives P only when every coefficient
of P lies strictly between -2^(W-1) and 2^(W-1), and then V = 0 only for
P = 0; the caller fixes W from a bound on the coefficients before it packs.
"""

from __future__ import annotations

from math import isqrt

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Mapping


class TheoryViolation(ArithmeticError):
    """An exactness guarantee of the algorithms failed; signals a bug or corrupt input."""


class InexactDivision(TheoryViolation):
    """Laurent polynomial division left a remainder."""


class NotAPerfectSquare(TheoryViolation):
    """Square-root extraction was requested for a polynomial that is not a square."""


class LaurentPoly:
    """An integer Laurent polynomial as a sparse exponent -> coefficient map.

    Instances are immutable by convention: no method mutates ``terms`` and
    callers must not either.  The zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    terms: dict[int, int]

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        for e, c in (terms or {}).items():
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be integers")
            if c:
                clean[e] = c
        self.terms = clean

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def coefficient(self, exponent: int) -> int:
        return self.terms.get(exponent, 0)

    def leading_coefficient(self) -> int:
        return self.terms[self.degree()]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if not self.terms.keys() - {0}:  # a constant equals its integer, so hashes like it
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        _mul_add(out, {0: 1}, other.terms)
        return _raw(out)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        _mul_add(out, {0: -1}, other.terms)
        return _raw(out)

    def __neg__(self) -> LaurentPoly:
        return _raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return _raw({e: c * other for e, c in self.terms.items()}) if other else ZERO
        out: dict[int, int] = {}
        _mul_add(out, self.terms, other.terms)
        return _raw(out)

    def __rmul__(self, other: int) -> LaurentPoly:
        return self.__mul__(other)

    def shifted(self, k: int) -> LaurentPoly:
        """Multiplication by the monomial q^k."""
        return _raw({e + k: c for e, c in self.terms.items()})

    # -- bar involution and exponent restrictions -----------------------------

    def bar(self) -> LaurentPoly:
        """The involution q -> q^{-1}."""
        return _raw({-e: c for e, c in self.terms.items()})

    def is_bar_symmetric(self) -> bool:
        return self.terms == {-e: c for e, c in self.terms.items()}

    def positive_part(self) -> LaurentPoly:
        """Restriction to strictly positive exponents."""
        return _raw({e: c for e, c in self.terms.items() if e > 0})

    def at_one(self) -> int:
        """Specialization q = 1."""
        return sum(self.terms.values())

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def to_json(self) -> dict[str, int]:
        """JSON object form: exponent strings to coefficients, descending."""
        return {str(e): self.terms[e] for e in sorted(self.terms, reverse=True)}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> LaurentPoly:
        return cls({int(e): int(c) for e, c in data.items()})


def _raw(terms: dict[int, int]) -> LaurentPoly:
    """Wrap an already-normalized dict without copying (internal fast path)."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = terms
    return p


# Raw exponent maps: acc is owned by the caller and stays normalized (no zero
# coefficient); the operands are only read and must be normalized.


def _mul_add(acc: dict[int, int], p: Mapping[int, int], q: Mapping[int, int]) -> None:
    """acc += p * q on raw exponent maps; the shorter operand runs outside."""
    if len(p) > len(q):
        p, q = q, p
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]


def _pack(p: Mapping[int, int], width: int) -> tuple[int, int]:
    """(V, e0) for a nonzero raw exponent map p: e0 is its valuation and
    V = sum c_e 2^(width (e - e0))."""
    low = min(p)
    return sum(c << width * (e - low) for e, c in p.items()), low


def _unpack(value: int, low: int, width: int) -> dict[int, int]:
    """The raw exponent map of q^low P, where P(2^width) = value and every
    coefficient of P lies strictly between -2^(width-1) and 2^(width-1)."""
    out: dict[int, int] = {}
    base = 1 << width
    half = base >> 1
    while value:
        c = value & (base - 1)
        value >>= width
        if c >= half:
            c -= base
            value += 1
        if c:
            out[low] = c
        low += 1
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
    """The monomial coefficient * q^exponent."""
    return LaurentPoly({exponent: coefficient})


def q_int(k: int, d: int = 1) -> LaurentPoly:
    """[k]_d = (q^{dk} - q^{-dk}) / (q^d - q^{-d}), as the explicit k-term sum."""
    if k < 0:
        raise ValueError("q-integer needs k >= 0")
    return _raw({d * (k - 1 - 2 * j): 1 for j in range(k)})


def q_factorial(k: int, d: int = 1) -> LaurentPoly:
    if k < 0:
        raise ValueError("q-factorial needs k >= 0")
    out = ONE
    for j in range(2, k + 1):
        out = out * q_int(j, d)
    return out


def q_binom(m: int, k: int, d: int = 1) -> LaurentPoly:
    """[m choose k]_d; the quotient of q-factorials is always exact."""
    if not 0 <= k <= m:
        raise ValueError("q-binomial needs 0 <= k <= m")
    return exact_div(q_factorial(m, d), q_factorial(k, d) * q_factorial(m - k, d))


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Quotient u with u * d == p; raises InexactDivision if no such u exists."""
    if not d.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return ZERO
    d_top = d.degree()
    d_lead = d.terms[d_top]
    # The quotient's valuation is pinned for an exact division.
    min_exp = p.valuation() - d.valuation()
    rem = dict(p.terms)
    out: dict[int, int] = {}
    while rem:
        top = max(rem)
        qe = top - d_top
        if qe < min_exp:
            raise InexactDivision(f"({p}) is not divisible by ({d})")
        qc, r = divmod(rem[top], d_lead)
        if r:
            raise InexactDivision(f"({p}) is not divisible by ({d})")
        out[qe] = qc
        _mul_add(rem, {qe: -qc}, d.terms)
    return _raw(out)


def sqrt_exact(p: LaurentPoly) -> LaurentPoly:
    """Square root with positive leading coefficient; raises NotAPerfectSquare."""
    if not p.terms:
        return ZERO
    v = p.valuation()
    top = p.degree()
    if v % 2 or top % 2:
        raise NotAPerfectSquare(f"({p}) has odd extreme exponents")
    # Shift to an ordinary polynomial with nonzero constant term and extract
    # coefficients bottom-up: c_k = 2 s_0 s_k + sum_{0<i<k} s_i s_{k-i}.
    n = top - v
    c = [p.terms.get(v + i, 0) for i in range(n + 1)]
    if c[0] <= 0:
        raise NotAPerfectSquare(f"({p}) has non-square lowest term")
    s0 = isqrt(c[0])
    if s0 * s0 != c[0]:
        raise NotAPerfectSquare(f"({p}) has non-square lowest term")
    m = n // 2
    s = [0] * (m + 1)
    s[0] = s0
    for k in range(1, m + 1):
        num = c[k] - sum(s[i] * s[k - i] for i in range(1, k))
        qc, r = divmod(num, 2 * s0)
        if r:
            raise NotAPerfectSquare(f"({p}) is not a perfect square")
        s[k] = qc
    root = _raw({v // 2 + i: s[i] for i in range(m + 1) if s[i]})
    if root * root != p:
        raise NotAPerfectSquare(f"({p}) is not a perfect square")
    if root.leading_coefficient() < 0:
        root = -root
    return root
