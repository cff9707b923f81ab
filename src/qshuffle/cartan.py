"""Finite-type Cartan data: roots, weights, the bilinear form, Kostant partitions.

Node numbering conventions (1-based), fixed here once and relied on everywhere:

  A_r : chain 1-2-...-r, all roots short (d_i = 1).
  B_r : chain 1-2-...-r with node 1 short (d_1 = 1) and nodes 2..r long (d = 2).
  C_r : chain 1-2-...-r with node 1 long (d_1 = 2) and nodes 2..r short.
  D_r : fork nodes 1 and 2 both attached to node 3, then chain 3-4-...-r.
  E_r : chain 1-3-4-5-...-r with the branch node 2 attached to node 4; with
        this numbering the highest root of E_8 is
        2a1 + 3a2 + 4a3 + 6a4 + 5a5 + 4a6 + 3a7 + 2a8.
  F_4 : chain 1-2-3-4 with nodes 1, 2 long (d = 2) and nodes 3, 4 short.
  G_2 : node 1 short (d_1 = 1), node 2 long (d_2 = 3).

Weights are plain coefficient tuples over the simple roots.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations_with_replacement

from .laurent import TheoryViolation

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class UnsupportedRank(ValueError):
    """The requested rank is not valid for the requested family."""


_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class Record:
    """Mixed in before a namedtuple base: a record equals only records of its
    own class, never a plain tuple, and hashes by its fields; `_make` and
    `_replace` build through the class, so its validation runs."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)


class CartanDatum(Record, namedtuple("CartanDatum", "family rank cartan d bilinear")):
    """A finite-type Cartan matrix with its symmetrizers and bilinear form."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int, cartan: Matrix, d: tuple[int, ...], bilinear: Matrix):
        a, b = cartan, bilinear
        for i in range(rank):
            if a[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            if d[i] not in (1, 2, 3):
                raise ValueError("symmetrizers must lie in {1,2,3}")
            if b[i][i] != 2 * d[i]:
                raise ValueError("bilinear diagonal must be 2*d_i")
            for j in range(rank):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if b[i][j] != d[i] * a[i][j] or b[i][j] != b[j][i]:
                    raise ValueError("bilinear form must be the symmetrized Cartan matrix")
        return super().__new__(cls, family, rank, cartan, d, bilinear)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "D":
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    if family == "E":
        return [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, rank)]
    return [(i, i + 1) for i in range(1, rank)]


def _symmetrizers(family: str, rank: int) -> tuple[int, ...]:
    if family == "B":
        return (1,) + (2,) * (rank - 1)
    if family == "C":
        return (2,) + (1,) * (rank - 1)
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return (1,) * rank


def build(family: str, rank: int) -> CartanDatum:
    """Construct the datum for one of the families A-G at the given rank."""
    if family not in _RANK_BOUNDS:
        raise UnsupportedRank(f"unknown family {family!r}")
    lo, hi = _RANK_BOUNDS[family]
    if rank < lo or (hi is not None and rank > hi):
        raise UnsupportedRank(f"rank {rank} is not valid for family {family}")
    if family == "D" and rank == 3:
        import warnings

        warnings.warn("D3 is isomorphic to A3 with relabeled nodes", stacklevel=2)
    d = _symmetrizers(family, rank)
    bil = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        bil[i][i] = 2 * d[i]
    for i, j in _edges(family, rank):
        # Adjacent simple roots pair to minus the longer root's half-length.
        bil[i - 1][j - 1] = bil[j - 1][i - 1] = -max(d[i - 1], d[j - 1])
    cart = [[bil[i][j] // d[i] for j in range(rank)] for i in range(rank)]
    return CartanDatum(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cart),
        d=d,
        bilinear=tuple(tuple(row) for row in bil),
    )


def parse(label: str) -> CartanDatum:
    """Parse a type label such as "A3", "B2" or "G2"."""
    text = label.strip()
    family, rank = text[:1], text[1:]
    if family not in _RANK_BOUNDS or not rank.isdecimal():
        raise UnsupportedRank(f"cannot parse type label {label!r}")
    return build(family, int(rank))


def reorder(datum: CartanDatum, order: Sequence[int]) -> CartanDatum:
    """Relabel nodes so that position k holds the original node order[k-1].

    Used to realize an arbitrary total order on the simple roots: computations
    run on the relabeled datum with the natural order and are translated back.
    """
    r = datum.rank
    if sorted(order) != list(range(1, r + 1)):
        raise ValueError(f"order must be a permutation of 1..{r}")
    if tuple(order) == tuple(range(1, r + 1)):
        return datum
    idx = [o - 1 for o in order]
    return CartanDatum(
        family=datum.family,
        rank=r,
        cartan=tuple(tuple(datum.cartan[i][j] for j in idx) for i in idx),
        d=tuple(datum.d[i] for i in idx),
        bilinear=tuple(tuple(datum.bilinear[i][j] for j in idx) for i in idx),
    )


# -- weights -----------------------------------------------------------------


def simple_root(datum: CartanDatum, i: int) -> Weight:
    if not 1 <= i <= datum.rank:
        raise ValueError(f"letter {i} outside alphabet 1..{datum.rank}")
    return tuple(1 if j == i - 1 else 0 for j in range(datum.rank))


def word_weight(datum: CartanDatum, word: Sequence[int]) -> Weight:
    counts = [0] * datum.rank
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def add(nu: Weight, mu: Weight) -> Weight:
    return tuple(x + y for x, y in zip(nu, mu))


def sub(nu: Weight, mu: Weight) -> Weight:
    return tuple(x - y for x, y in zip(nu, mu))


def height(nu: Weight) -> int:
    return sum(nu)


def bilinear_form(datum: CartanDatum, nu: Weight, mu: Weight) -> int:
    """(nu, mu) for the symmetric form extending the simple-root pairings."""
    b = datum.bilinear
    total = 0
    for i, ci in enumerate(nu):
        if ci:
            row = b[i]
            total += ci * sum(cj * row[j] for j, cj in enumerate(mu) if cj)
    return total


def n_of(datum: CartanDatum, nu: Weight) -> int:
    """The integer N(nu) = ((nu,nu) - sum_i c_i (a_i,a_i)) / 2."""
    norm = bilinear_form(datum, nu, nu)
    diag = sum(c * datum.bilinear[i][i] for i, c in enumerate(nu))
    return (norm - diag) // 2


def format_weight(nu: Weight) -> str:
    return ",".join(str(c) for c in nu)


def parse_weight(text: str, rank: int) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise ValueError(f"weight needs {rank} comma-separated entries")
    nu = tuple(int(p) for p in parts)
    if any(c < 0 for c in nu):
        raise ValueError("weight entries must be nonnegative")
    return nu


# -- positive roots ----------------------------------------------------------


@lru_cache(maxsize=None)
def positive_roots(datum: CartanDatum) -> tuple[Weight, ...]:
    """All positive roots, by root-string closure, sorted by (height, coeffs)."""
    r = datum.rank
    a = datum.cartan
    simples = [simple_root(datum, i) for i in range(1, r + 1)]
    roots: set[Weight] = set(simples)
    current = list(simples)
    while current:
        nxt: list[Weight] = []
        for beta in current:
            for i in range(1, r + 1):
                alpha = simples[i - 1]
                if beta == alpha:
                    continue
                # Walk down the alpha_i-string through beta.
                p = 0
                g = sub(beta, alpha)
                while all(x >= 0 for x in g) and g in roots:
                    p += 1
                    g = sub(g, alpha)
                pairing = sum(beta[j] * a[i - 1][j] for j in range(r))
                if p - pairing > 0:
                    up = add(beta, alpha)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        current = nxt
    expected = _ROOT_COUNTS[datum.family](datum.rank)
    if len(roots) != expected:
        raise TheoryViolation(f"root closure for {datum} found {len(roots)} roots, expected {expected}")
    return tuple(sorted(roots, key=lambda w: (height(w), w)))


@lru_cache(maxsize=None)
def kostant_partitions(datum: CartanDatum, nu: Weight) -> tuple[tuple[Weight, ...], ...]:
    """All multisets of positive roots summing to nu, each exactly once.

    Each partition is a tuple of roots, non-increasing in the fixed
    (height, coefficients) order, and the list of partitions is in the
    deterministic depth-first order of that root ordering.
    """
    if any(c < 0 for c in nu):
        raise ValueError("weights lie in the nonnegative cone")
    roots = positive_roots(datum)[::-1]
    out: list[tuple[Weight, ...]] = []
    # an explicit stack, so that a weight of any height is in reach; the
    # children are pushed in reverse, so the smallest index is taken first
    stack: list[tuple[int, Weight, tuple[Weight, ...]]] = [(0, nu, ())]
    while stack:
        start, remaining, acc = stack.pop()
        if not any(remaining):
            out.append(acc)
            continue
        for k in range(len(roots) - 1, start - 1, -1):
            beta = roots[k]
            if all(x <= y for x, y in zip(beta, remaining)):
                stack.append((k, sub(remaining, beta), acc + (beta,)))
    return tuple(out)


def weights_up_to_height(rank: int, max_height: int) -> Iterator[Weight]:
    """All nonzero weights of height <= max_height, by ascending (height, coeffs)."""
    for h in range(1, max_height + 1):
        seen: set[Weight] = set()
        for split in combinations_with_replacement(range(rank), h):
            nu = [0] * rank
            for i in split:
                nu[i] += 1
            seen.add(tuple(nu))
        yield from sorted(seen)
