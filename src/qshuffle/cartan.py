"""Finite-type Cartan data: roots, weights, the bilinear form, Kostant
partitions, diagram automorphisms.

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

from itertools import chain, combinations_with_replacement, permutations

from .laurent import TheoryViolation

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Iterable, Iterator, Sequence

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


class Record(tuple):
    """An immutable record: a tuple whose class names its fields, as in
    `class GoodWord(Record, fields="word factors")`.

    A record iterates, indexes, orders and hashes as the tuple of its fields
    and reads each by name, but equals only records of its own class, never
    a plain tuple.  `_make` and `_replace` build through the class, so its
    validation runs."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = tuple.__hash__

    def __init_subclass__(cls, fields: str | None = None):
        super().__init_subclass__()
        if fields is not None:
            cls._fields = cls.__match_args__ = tuple(fields.split())
            for k, name in enumerate(cls._fields):
                setattr(cls, name, property(lambda self, k=k: self[k]))

    def __new__(cls, *values, **named):
        if named:
            values += tuple(named.pop(name) for name in cls._fields[len(values) :] if name in named)
        if named or len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        return tuple.__new__(cls, values)

    def __getnewargs__(self) -> tuple:
        """The fields, from which copy and pickle rebuild the record."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self))})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)

    def _replace(self, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record


class CartanDatum(Record, fields="family rank cartan d bilinear"):
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
        # finite type: every leading principal minor is positive (Sylvester), by Bareiss elimination
        m, prev = [list(row) for row in b], 1
        for k in range(rank):
            if m[k][k] <= 0:
                raise ValueError("bilinear form must be positive definite")
            m[k + 1 :] = [[(x * m[k][k] - row[k] * y) // prev for x, y in zip(row, m[k])] for row in m[k + 1 :]]
            prev = m[k][k]
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
        if not 1 <= a <= datum.rank:
            raise ValueError(f"letter {a} outside alphabet 1..{datum.rank}")
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


_POSITIVE_ROOTS: dict[CartanDatum, tuple[Weight, ...]] = {}


def positive_roots(datum: CartanDatum) -> tuple[Weight, ...]:
    """All positive roots, sorted by (height, coeffs): the closure of the simple
    roots under the reflections s_i(beta) = beta - <beta, a_i^v> a_i that raise
    them.  s_i permutes the positive roots other than a_i and lowers every
    non-simple one with <beta, a_i^v> > 0, so the closure is all of them.  A
    closure that outgrows the family's count, as off finite type, raises.
    Each datum's roots are computed once per process."""
    if (out := _POSITIVE_ROOTS.get(datum)) is not None:
        return out
    expected = _ROOT_COUNTS[datum.family](datum.rank)
    roots = {simple_root(datum, i) for i in range(1, datum.rank + 1)}
    todo = list(roots)
    for beta in todo:  # todo grows as it is read
        for i, row in enumerate(datum.cartan):
            pairing = sum(c * x for c, x in zip(beta, row))
            if pairing < 0 and (up := beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]) not in roots:
                roots.add(up)
                todo.append(up)
        if len(roots) > expected:
            break
    if len(roots) != expected:
        raise TheoryViolation(f"root closure for {datum} found {len(roots)} roots, expected {expected}")
    _POSITIVE_ROOTS[datum] = out = tuple(sorted(roots, key=lambda w: (height(w), w)))
    return out


def kostant_partitions(datum: CartanDatum, nu: Weight) -> tuple[tuple[Weight, ...], ...]:
    """All multisets of positive roots summing to nu, each exactly once.

    Each partition is a tuple of roots, non-increasing in the fixed
    (height, coefficients) order, and the list of partitions is in the
    deterministic depth-first order of that root ordering.
    """
    if len(nu) != datum.rank:
        raise ValueError(f"weight needs {datum.rank} entries")
    if any(c < 0 for c in nu):
        raise ValueError("weights lie in the nonnegative cone")
    roots = positive_roots(datum)[::-1]
    # One integer per weight, a field per coordinate whose top bit is a guard.
    # The remainder keeps every guard set; since no coordinate reaches the
    # guard, subtracting a root never borrows across fields, and it clears a
    # field's guard exactly when the root exceeds the remainder there.
    width = max(chain(nu, *roots)).bit_length() + 1

    def pack(w: Iterable[int]) -> int:
        return sum(x << width * i for i, x in enumerate(w))

    guards = pack([1 << width - 1] * len(nu))
    packed = [pack(beta) for beta in roots]
    out: list[tuple[Weight, ...]] = []
    # an explicit stack, so that a weight of any height is in reach; the
    # children are pushed in reverse, so the smallest index is taken first
    stack = [(0, guards + pack(nu), ())]
    while stack:
        start, remaining, acc = stack.pop()
        if remaining == guards:
            out.append(acc)
            continue
        for k in range(len(roots) - 1, start - 1, -1):
            rest = remaining - packed[k]
            if rest & guards == guards:
                stack.append((k, rest, acc + (roots[k],)))
    return tuple(out)


def automorphisms(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """Every permutation s of the nodes other than the identity with
    a[s(i)][s(j)] = a[i][j] and d[s(i)] = d[i], as (s(1), ..., s(r)), ascending.

    A finite-type diagram is a tree with at most three leaves, and its nodes
    are told apart by their distances to the leaves, which s keeps; so each
    permutation of the leaves gives one candidate, kept when it keeps a and
    d.  Raises ValueError when the distances do not separate the nodes.
    """
    r, a, d = datum.rank, datum.cartan, datum.d
    far = []  # far[k][i]: the distance from the k-th leaf to node i, r when out of reach
    for leaf in (i for i in range(r) if sum(map(bool, a[i])) <= 2):
        dist, ring = [r] * r, [leaf]
        for x in range(r):
            for i in ring:
                dist[i] = x
            ring = [j for i in ring for j in range(r) if a[i][j] and dist[j] == r]
        far.append(dist)
    node = {key: i for i, key in enumerate(zip(*far))}
    if len(node) < r:
        raise ValueError(f"the distances to the leaves do not separate the nodes of {datum}")
    found = []
    for image in permutations(far):
        # dist(s(l), s(i)) = dist(l, i) for every leaf l
        s = [node.get(key) for key in zip(*image)]
        if None not in s and all(d[s[i]] == d[i] and tuple(a[s[i]][c] for c in s) == a[i] for i in range(r)):
            found.append(tuple(c + 1 for c in s))
    return tuple(sorted(s for s in found if s != tuple(range(1, r + 1))))


def weights_up_to_height(rank: int, max_height: int) -> Iterator[Weight]:
    """All nonzero weights of height <= max_height, by ascending (height, coeffs)."""
    for h in range(1, max_height + 1):
        # each multiset of h letters is one weight, and a lexicographically
        # larger multiset has the smaller weight, so the reversal ascends
        weights = []
        for split in combinations_with_replacement(range(rank), h):
            nu = [0] * rank
            for i in split:
                nu[i] += 1
            weights.append(tuple(nu))
        yield from reversed(weights)
