"""Tableau characters: skew Young diagrams and shifted Young diagrams with
their standard tableaux, the tableau-to-word map, and the resulting character
sums as shuffle elements.

These are built by direct enumeration, independently of the basis machinery,
so they can be compared against computed dual canonical vectors.
"""

from __future__ import annotations

from . import cartan
from .cartan import CartanDatum, Record
from .laurent import ONE
from .shuffle import ShuffleElt
from .words import Word

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Iterator


class ShapeConstraintViolated(ValueError):
    """The diagram does not satisfy the constraints of its character formula."""


# -- diagrams and standard tableaux ------------------------------------------------

Cell = tuple[int, int]


class SkewShape(Record, fields="lam mu"):
    """A skew Young diagram lam/mu; cell (i, j) has content j - i."""

    __slots__ = ()

    # whether the parts of lam and mu must decrease strictly
    _strict = False

    def __new__(cls, lam: tuple[int, ...], mu: tuple[int, ...] = ()):
        for p in (lam, mu):
            if any(x <= 0 for x in p):
                raise ShapeConstraintViolated("partition parts must be positive")
            if any(a < b or (cls._strict and a == b) for a, b in zip(p, p[1:])):
                raise ShapeConstraintViolated("partition parts must decrease")
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
            raise ShapeConstraintViolated("inner shape must fit inside the outer shape")
        return super().__new__(cls, lam, mu)

    def _indent(self, i: int) -> int:
        """How many columns row i is moved to the right."""
        return 0

    def rows(self) -> int:
        return len(self.lam)

    def cells(self) -> list[Cell]:
        out = []
        for i, l in enumerate(self.lam, start=1):
            m = self.mu[i - 1] if i - 1 < len(self.mu) else 0
            k = self._indent(i)
            out.extend((i, j) for j in range(k + m + 1, k + l + 1))
        return out

    def content(self, cell: Cell) -> int:
        return cell[1] - cell[0]

    def size(self) -> int:
        return len(self.cells())


class ShiftedSkewShape(SkewShape):
    """A (skew) shifted Young diagram of strict partitions; row i is indented
    i - 1 cells and cell (i, j) has content j - i + 1."""

    __slots__ = ()
    _strict = True

    def _indent(self, i: int) -> int:
        return i - 1

    def content(self, cell: Cell) -> int:
        return cell[1] - cell[0] + 1


def standard_tableaux(shape: SkewShape) -> Iterator[tuple[Cell, ...]]:
    """All standard fillings, each as the cell sequence in numbering order.

    The next value goes to any empty cell, in ascending order, whose left
    and upper neighbours inside the shape are filled, and the rest of the
    filling is a standard filling of the cells still empty.
    """

    def fillings(empty: frozenset[Cell], placed: tuple[Cell, ...]) -> Iterator[tuple[Cell, ...]]:
        if not empty:
            yield placed
        for i, j in sorted(empty):
            if (i, j - 1) not in empty and (i - 1, j) not in empty:
                yield from fillings(empty - {(i, j)}, placed + ((i, j),))

    return fillings(frozenset(shape.cells()), ())


# -- character sums ------------------------------------------------------------------


class TableauCharacter(Record, fields="good_word element"):
    """A tableau character sum: the indexing good word and the full element."""

    __slots__ = ()

    @property
    def tableau_count(self) -> int:
        return sum(c.at_one() for c in self.element.terms.values())


def _require(datum: CartanDatum, shape: SkewShape, family: str, kind: str) -> None:
    if datum.family != family:
        raise ShapeConstraintViolated(f"{kind} characters live over the {family} family")
    if shape.size() == 0:
        raise ShapeConstraintViolated("empty shape")


def _character(datum: CartanDatum, shape: SkewShape, shift: int) -> TableauCharacter:
    """Sum of w[T] over standard tableaux T of the shape, each letter the
    content of its cell plus shift, with the row-reading word of the shape."""
    good = tuple(shape.content(cell) + shift for cell in shape.cells())
    terms: dict[Word, int] = {}
    for filling in standard_tableaux(shape):
        w = tuple(shape.content(cell) + shift for cell in filling)
        terms[w] = terms.get(w, 0) + 1
    elt = ShuffleElt(
        datum,
        cartan.word_weight(datum, good),
        {w: ONE * c for w, c in terms.items()},
    )
    return TableauCharacter(good, elt)


def skew_tableau_character(datum: CartanDatum, shape: SkewShape, shift: int) -> TableauCharacter:
    """Sum of w[T, s] over standard tableaux of a skew shape, letters shifted
    into 1..r, together with the row-reading good word of the shape."""
    _require(datum, shape, "A", "skew")
    r = datum.rank
    j = shape.rows()
    widest = 1 - shape.lam[0] + r
    if widest < j:
        raise ShapeConstraintViolated(f"shape too wide for rank {r}")
    if not j <= shift <= widest:
        raise ShapeConstraintViolated(f"shift must lie in [{j}, {widest}]")
    return _character(datum, shape, shift)


def shifted_tableau_character(datum: CartanDatum, shape: ShiftedSkewShape) -> TableauCharacter:
    """Sum of w[T] over standard shifted tableaux, with the row-reading good word."""
    _require(datum, shape, "B", "shifted")
    if shape.lam[0] > datum.rank:
        raise ShapeConstraintViolated(f"first part must be at most the rank {datum.rank}")
    return _character(datum, shape, 0)


def parse_shape(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse "5,5,3/3,1" into outer and inner coefficient lists; "/0" or a
    missing inner part denotes the empty partition."""
    outer, _, inner = text.partition("/")
    lam = tuple(int(p) for p in outer.split(",") if p.strip())
    if not lam:
        raise ValueError(f"cannot parse shape {text!r}")
    inner = inner.strip()
    if inner in ("", "0"):
        return lam, ()
    return lam, tuple(int(p) for p in inner.split(",") if p.strip())
