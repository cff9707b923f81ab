"""Cross-checks of the library's objects that avoid its bracketing and
straightening route, used only by tests: closed-form root vectors of the
classical families, commutation-class sums for simply-laced data, the
standard factorization of Lyndon words, and type-A multisegments with their
standard module characters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from qshuffle import cartan, laurent, shuffle, words
from qshuffle.basis import GoodLyndonTable
from qshuffle.cartan import CartanDatum, Weight
from qshuffle.laurent import ONE, TheoryViolation
from qshuffle.shuffle import ShuffleElt
from qshuffle.words import Word, format_word


class UnsupportedFamily(ValueError):
    """The closed-form root vectors exist for the classical families only."""


class NotSimplyLaced(ValueError):
    """The commutation-class description needs a simply-laced datum."""


# -- words -------------------------------------------------------------------------


def standard_factorization(l: Word) -> tuple[Word, Word]:
    """Split before the longest proper right factor that is Lyndon."""
    words._check_factorable(l)
    for s in range(1, len(l)):
        if words.is_lyndon(l[s:]):
            return l[:s], l[s:]
    raise TheoryViolation(f"no Lyndon right factor of {format_word(l)}; the last letter is always one")


def commutation_class(w: Word, datum: CartanDatum) -> frozenset[Word]:
    """Closure of w under swaps of adjacent letters i, j with a_ij = 0."""
    a = datum.cartan
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        for p in range(len(v) - 1):
            x, y = v[p], v[p + 1]
            if x != y and a[x - 1][y - 1] == 0:
                u = v[:p] + (y, x) + v[p + 2 :]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return frozenset(seen)


# -- root vectors ------------------------------------------------------------------


def is_positive_root(datum: CartanDatum, nu: Weight) -> bool:
    return nu in set(cartan.positive_roots(datum))


def _segment_elt(datum: CartanDatum, lo: int, hi: int) -> ShuffleElt:
    """The word w[lo..hi], or the empty word when hi < lo."""
    return ShuffleElt.from_word(datum, tuple(range(lo, hi + 1)))


def closed_form_root_vector(datum: CartanDatum, beta: Weight) -> ShuffleElt:
    """Closed shuffle formulas for the root vectors of the classical families
    under the standard node order; independent of the bracketing route."""
    if datum.family not in "ABCD":
        raise UnsupportedFamily(f"no closed form for family {datum.family}")
    beta = tuple(beta)
    if not is_positive_root(datum, beta):
        raise ValueError(f"{beta} is not a positive root of {datum}")
    support = [i + 1 for i, c in enumerate(beta) if c]
    if datum.family == "A":
        return _segment_elt(datum, support[0], support[-1])
    if datum.family == "B":
        if max(beta) == 1:
            return _segment_elt(datum, support[0], support[-1])
        j = max(i + 1 for i, c in enumerate(beta) if c == 2)
        k = support[-1]
        inner = shuffle.qshuffle(_segment_elt(datum, 2, j), _segment_elt(datum, 1, k))
        return shuffle.prepend_letter(1, inner).scaled(laurent.q_int(2, datum.d[0]))
    if datum.family == "C":
        if max(beta) == 1:
            return _segment_elt(datum, support[0], support[-1])
        j = max(i + 1 for i, c in enumerate(beta) if c == 2)
        k = support[-1]
        inner = shuffle.qshuffle(_segment_elt(datum, 2, j), _segment_elt(datum, 2, k))
        out = shuffle.prepend_letter(1, inner)
        # Equal factors double the leading interleaving; the extra q restores
        # the bar-symmetric leading coefficient the root vector must carry.
        return out.scaled(laurent.monomial(1)) if j == k else out
    # family D: chains avoiding a fork node, the 1-3-...-i chain, or the full fork
    if beta[0] == 0:
        return _segment_elt(datum, support[0], support[-1])
    if beta[1] == 0:
        w = (1,) + tuple(range(3, support[-1] + 1))
        return ShuffleElt.from_word(datum, w)
    doubled = [i + 1 for i, c in enumerate(beta) if c == 2]
    j = max(doubled) if doubled else 2
    k = support[-1]
    inner = shuffle.qshuffle(_segment_elt(datum, 2, j), _segment_elt(datum, 3, k)) - shuffle.qshuffle(
        _segment_elt(datum, 2, k), _segment_elt(datum, 3, j)
    ).scaled(laurent.monomial(1))
    return shuffle.prepend_letter(1, inner)


def commutation_class_root_vector(table: GoodLyndonTable, l: Word) -> ShuffleElt:
    """For simply-laced data the root vector is the plain sum, coefficient one,
    of the commutation class of its good Lyndon word."""
    datum = table.datum
    if any(d != 1 for d in datum.d):
        raise NotSimplyLaced(f"{datum} is not simply laced")
    table.root_of_lyndon(l)  # validates membership
    cls = commutation_class(tuple(l), datum)
    return ShuffleElt(datum, cartan.word_weight(datum, l), {w: ONE for w in cls})


# -- segments and multisegments ----------------------------------------------------


@dataclass(frozen=True, order=True)
class Segment:
    """An integer interval [start, end] with 1 <= start <= end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 1 <= self.start <= self.end:
            raise ValueError(f"invalid segment [{self.start},{self.end}]")

    def word(self) -> Word:
        return tuple(range(self.start, self.end + 1))

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


MultiSegment = tuple[Segment, ...]


def multi_segment(spans: Sequence[tuple[int, int]]) -> MultiSegment:
    """A multisegment: the given intervals sorted increasingly."""
    return tuple(sorted(Segment(i, j) for i, j in spans))


def multisegment_to_good_word(m: MultiSegment) -> Word:
    """Concatenate the segment words in decreasing order of segment."""
    out: tuple[int, ...] = ()
    for seg in sorted(m, reverse=True):
        out += seg.word()
    return out


def good_word_to_multisegment(g: Word) -> MultiSegment:
    """Inverse of the correspondence; the factors must be interval words."""
    spans = []
    for factor in words.lyndon_factorization(tuple(g)):
        if factor != tuple(range(factor[0], factor[0] + len(factor))):
            raise ValueError(f"factor {words.format_word(factor)} is not an interval word")
        spans.append((factor[0], factor[-1]))
    return multi_segment(spans)


@lru_cache(maxsize=None)
def _interleavings(w1: Word, w2: Word) -> tuple[tuple[Word, int], ...]:
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    acc: dict[Word, int] = {}
    for u, c in _interleavings(w1[1:], w2):
        w = (w1[0],) + u
        acc[w] = acc.get(w, 0) + c
    for u, c in _interleavings(w1, w2[1:]):
        w = (w2[0],) + u
        acc[w] = acc.get(w, 0) + c
    return tuple(sorted(acc.items()))


def standard_module_character(m: MultiSegment) -> dict[Word, int]:
    """The plain (q = 1) shuffle of the segment words, with multiplicities."""
    chars: dict[Word, int] = {(): 1}
    for seg in m:
        nxt: dict[Word, int] = {}
        for w, c in chars.items():
            for u, k in _interleavings(w, seg.word()):
                nxt[u] = nxt.get(u, 0) + c * k
        chars = nxt
    return chars
