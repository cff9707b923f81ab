"""Dual PBW vectors by the route `basis` took before each factor group l^a
became a good word with a memoised vector of its own: one shuffle power
E*_l^a per factor group, the product of the powers smallest first, and the
normalizing power q^s, s = sum over the groups of C(a, 2) d_l, on the first
operand.  Each kappa is the product over the groups of kappa_l^a [a]_{d_l}!.
It reads the table's dual root vectors and writes none of its caches; tests
require the table's vectors to equal these."""

from __future__ import annotations

from math import comb

from qshuffle import cartan, laurent, shuffle
from qshuffle.basis import GoodLyndonTable
from qshuffle.laurent import ONE, LaurentPoly
from qshuffle.shuffle import ShuffleElt
from qshuffle.words import Word


class Oracle:
    """The reference route over one table, with its own memo of powers."""

    def __init__(self, table: GoodLyndonTable):
        self.table = table
        self.powers: dict[tuple[Word, int], ShuffleElt] = {}

    def d(self, l: Word) -> int:
        beta = self.table._root_of_lyndon[l]
        return cartan.bilinear_form(self.table._idatum, beta, beta) // 2

    def power(self, l: Word, a: int) -> ShuffleElt:
        """E*_l^a, the a-fold q-shuffle of the dual root vector of l."""
        hit = self.powers.get((l, a))
        if hit is None:
            _, base, _, _ = self.table._root_i(l)
            hit = self.powers[(l, a)] = base if a == 1 else shuffle.qshuffle(self.power(l, a - 1), base)
        return hit

    def group(self, l: Word, a: int) -> ShuffleElt:
        """E*_{l^a} = q^{C(a, 2) d_l} E*_l^a."""
        return self.power(l, a).scaled(laurent.monomial(comb(a, 2) * self.d(l)))

    def kappa(self, factors: tuple[tuple[Word, int], ...]) -> LaurentPoly:
        out = ONE
        for l, a in factors:
            _, _, kappa_l, _ = self.table._root_i(l)
            out = out * laurent.q_factorial(a, self.d(l))
            for _ in range(a):
                out = out * kappa_l
        return out

    def dual_pbw(self, factors: tuple[tuple[Word, int], ...]) -> tuple[ShuffleElt, LaurentPoly]:
        """E*_g and kappa_g for the good word g with grouped factors `factors`."""
        if not factors:
            return ShuffleElt.from_word(self.table._idatum, ()), ONE
        powers = [self.power(l, a) for l, a in reversed(factors)]
        shift = sum(comb(a, 2) * self.d(l) for l, a in factors)
        elt = powers[0].scaled(laurent.monomial(shift))
        for power in powers[1:]:
            elt = shuffle.qshuffle(elt, power)
        return elt, self.kappa(factors)
