"""Words over the alphabet 1..r: the Lyndon test, the Lyndon factorization
and the co-standard factorization of a Lyndon word.

Words are plain tuples of integers, so Python's tuple comparison is exactly
the lexicographic order in which a proper prefix is smaller.
"""

from __future__ import annotations

from .laurent import TheoryViolation

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Sequence

Word = tuple[int, ...]


class EmptyWord(ValueError):
    """The operation needs a nonempty word."""


class NotLyndon(ValueError):
    """The operation needs a Lyndon word."""


class TooShort(ValueError):
    """Factorization needs a word of length at least 2."""


def format_word(w: Sequence[int]) -> str:
    return "w[" + ",".join(str(a) for a in w) + "]"


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than every proper right factor."""
    if not w:
        raise EmptyWord("the empty word is not eligible")
    return all(w < w[j:] for j in range(1, len(w)))


def lyndon_factorization(w: Word) -> list[Word]:
    """The unique non-increasing factorization into Lyndon words (Duval's algorithm)."""
    out: list[Word] = []
    k, n = 0, len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        while k <= i:
            out.append(w[k : k + j - i])
            k += j - i
    return out


def _check_factorable(l: Word) -> None:
    if len(l) < 2:
        raise TooShort(f"{format_word(l)} has no nontrivial factorization")
    if not is_lyndon(l):
        raise NotLyndon(f"{format_word(l)} is not Lyndon")


def costandard_factorization(l: Word) -> tuple[Word, Word]:
    """Split after the longest proper left factor that is Lyndon."""
    _check_factorable(l)
    for s in range(len(l) - 1, 0, -1):
        if is_lyndon(l[:s]):
            left, right = l[:s], l[s:]
            # Both halves of either canonical split are Lyndon again.
            if not is_lyndon(right):
                raise TheoryViolation(f"co-standard right factor of {format_word(l)} is not Lyndon")
            return left, right
    raise TheoryViolation(f"no Lyndon left factor of {format_word(l)}; the first letter is always one")

