"""Reference versions of the straightening loop and the dual PBW expansion.

These are the element-level algorithms the in-place kernel in `basis`
replaced: every correction is `elt - b.scaled(gamma)` on whole `ShuffleElt`
values, every loop turn re-tests every coefficient for bar symmetry, and a
word is a pivot when its Lyndon factors are all good.  They are kept only so
tests can require the kernel to agree with them; they read the table's
internals and write none of its caches but the dual PBW memo, whose weight
they enter as the library's entry points do.
"""

from __future__ import annotations

from qshuffle import cartan, laurent, shuffle
from qshuffle.basis import GoodLyndonTable, NotInU, StraighteningFailure
from qshuffle.cartan import Weight
from qshuffle.laurent import LaurentPoly
from qshuffle.shuffle import ShuffleElt
from qshuffle.words import Word, format_word


def dual_canonical_weight(table: GoodLyndonTable, nui: Weight) -> tuple[tuple[Word, ShuffleElt, LaurentPoly], ...]:
    """All dual canonical vectors of one internal weight, ascending by good word."""
    table._enter(nui)
    goods = []
    for part in cartan.kostant_partitions(table._idatum, nui):
        factors = sorted((table._lyndon_of_root[b] for b in part), reverse=True)
        goods.append(tuple(a for l in factors for a in l))
    goods.sort()
    done: dict[Word, tuple[ShuffleElt, LaurentPoly]] = {}
    out = []
    for g in goods:
        factors = table._factors_i(g)
        elt, kappa = table._dual_pbw_i(g, factors), table._kappa_i(factors)
        last_pivot: Word | None = None
        while True:
            bad = [w for w, c in elt.terms.items() if not c.is_bar_symmetric()]
            if not bad:
                break
            pivots = [w for w in bad if table._factors_i(w) is not None]
            if not pivots:
                raise StraighteningFailure(f"no good pivot below {format_word(g)}")
            pivot = max(pivots)
            if pivot >= g or (last_pivot is not None and pivot >= last_pivot):
                raise StraighteningFailure(f"pivot {format_word(pivot)} fails to decrease")
            last_pivot = pivot
            alpha = elt.terms[pivot]
            kappa_p = table._kappa_i(table._factors_i(pivot))
            delta = laurent.exact_div(alpha - alpha.bar(), kappa_p)
            if delta.bar() != -delta:
                raise StraighteningFailure(f"correction at {format_word(pivot)} is not antisymmetric")
            gamma = delta.positive_part()
            if not gamma:
                raise StraighteningFailure(f"empty correction at {format_word(pivot)}")
            b_pivot, _ = done[pivot]
            elt = elt - b_pivot.scaled(gamma)
        if shuffle.max_word(elt) != g or elt.terms[g] != kappa:
            raise StraighteningFailure(f"straightened vector at {format_word(g)} has wrong leading term")
        done[g] = (elt, kappa)
        out.append((g, elt, kappa))
    return tuple(out)


def expand(table: GoodLyndonTable, elt_i: ShuffleElt) -> dict[Word, LaurentPoly]:
    """Coefficients of an internal element over the dual PBW vectors."""
    table._enter(elt_i.weight)
    residual = elt_i
    out: dict[Word, LaurentPoly] = {}
    while residual:
        w = shuffle.max_word(residual)
        factors = table._factors_i(w)
        if factors is None:
            raise NotInU(f"maximal word {format_word(w)} of the residual is not good")
        elt, kappa = table._dual_pbw_i(w, factors), table._kappa_i(factors)
        try:
            c = laurent.exact_div(residual.terms[w], kappa)
        except laurent.InexactDivision as exc:
            raise NotInU(f"leading coefficient at {format_word(w)} not divisible") from exc
        out[w] = c
        residual = residual - elt.scaled(c)
    return out
