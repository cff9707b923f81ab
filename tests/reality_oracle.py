"""Reference version of the reality check.

This is the full-vector comparison that `GoodLyndonTable._is_real_i`
replaced: build the square, straighten the whole weight 2nu of the square,
and compare the square with a power of q times the straightened vector at
its maximal word.  `_is_real_i` builds nothing at 2nu: it enters nu and
extracts the square's coefficients and those of the dual PBW vectors it
needs at the good words of 2nu only, holding those rows in the reality
workspace of the table's scope at nu.
This reference shares none of that route, and is kept only so tests can
require the two to agree; it enters the square's weight in the table's scope
like any straightening, which drops those rows.

`row` is the row route that `_is_real_i` took before it split the row of a
single factor group l^a into two half-powers: it extracts E*_h from the full
vectors E*_{l^a} of all of h's factor groups.
"""

from __future__ import annotations

from qshuffle import laurent, shuffle
from qshuffle.basis import GoodLyndonTable
from qshuffle.shuffle import ShuffleElt


def is_real(table: GoodLyndonTable, elt: ShuffleElt) -> bool:
    """True when the square of an internal element is a power of q times
    the dual canonical vector at the square's maximal word."""
    square = shuffle.qshuffle(elt, elt)
    top = shuffle.max_word(square)
    for g, candidate, _ in table._dual_canonical_weight_i(square.weight):
        if g == top:
            break
    else:
        return False
    try:
        ratio = laurent.exact_div(square.terms[top], candidate.terms[top])
    except laurent.InexactDivision:
        return False
    if not ratio.is_monomial() or ratio.leading_coefficient() != 1:
        return False
    return square == candidate.scaled(ratio)


def row(table: GoodLyndonTable, factors: tuple[tuple[tuple[int, ...], int], ...], targets) -> dict:
    """The raw coefficients of the dual PBW vector of a good word with these
    grouped factors at the target words, from the product of the full vectors
    of its factor groups."""
    return shuffle.product_coefficients(table._group_vectors(factors), targets)
