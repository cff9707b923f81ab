"""Good Lyndon words, dual PBW vectors and the dual canonical basis.

The table fixes a total order on the simple roots (default w1 < ... < wr) and
realizes everything over that order.  A non-default order is handled by
relabeling letters so that the chosen order becomes the natural tuple order,
computing on the relabeled Cartan datum, and translating words, weights and
elements back at the public boundary; every construction here commutes with a
simultaneous relabeling of letters and Cartan data.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import groupby
from math import comb

from . import cartan, laurent, shuffle, words
from .cartan import CartanDatum, Record, Weight
from .laurent import ONE, ZERO, LaurentPoly
from .shuffle import ShuffleElt
from .words import Word, format_word


class NotGoodLyndon(ValueError):
    """The word is not a good Lyndon word of this table."""


class NotGoodWord(ValueError):
    """The word is not a good word of this table."""


class NotInU(ValueError):
    """Expansion over the dual PBW family failed: the element lies outside the
    letter-generated subalgebra (or has non-integral expansion coefficients)."""


class StraighteningFailure(laurent.TheoryViolation):
    """The correction step of the straightening loop could not proceed."""


class GoodWord(Record, namedtuple("GoodWord", "word factors")):
    """A good word together with its non-increasing good-Lyndon factorization."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_word(self.word)


class DualPBWVector(Record, namedtuple("DualPBWVector", "good_word elt kappa")):
    __slots__ = ()


class DualCanonicalVector(Record, namedtuple("DualCanonicalVector", "good_word elt kappa")):
    __slots__ = ()


class GoodLyndonTable:
    """The bijection between positive roots and good Lyndon words, the induced
    convex order, and cached basis vectors built on top of it."""

    def __init__(self, datum: CartanDatum, order: Sequence[int] | None = None):
        r = datum.rank
        self.datum = datum
        self.order = tuple(order) if order is not None else tuple(range(1, r + 1))
        if sorted(self.order) != list(range(1, r + 1)):
            raise ValueError(f"order must be a permutation of 1..{r}")
        self._natural = self.order == tuple(range(1, r + 1))
        self._idatum = cartan.reorder(datum, self.order)
        # internal letter k <-> original letter self.order[k-1]
        self._out_letters = (0,) + self.order
        inv = [0] * (r + 1)
        for k, orig in enumerate(self.order, start=1):
            inv[orig] = k
        self._in_letters = tuple(inv)

        self._lyndon_of_root: dict[Weight, Word] = self._good_lyndon_map()
        self._root_of_lyndon = {l: b for b, l in self._lyndon_of_root.items()}
        self._gl = frozenset(self._root_of_lyndon)
        self._r_cache: dict[Word, ShuffleElt] = {}
        self._dual_root_cache: dict[Word, tuple[ShuffleElt, LaurentPoly]] = {}
        # One weight scope: the dual PBW and, once straightened, the dual
        # canonical vectors of the current weight; entering another clears both.
        self._pbw_memo_weight: Weight | None = None
        self._pbw_memo: dict[Word, tuple[ShuffleElt, LaurentPoly]] = {}
        self._canonical_memo: tuple[tuple[Word, ShuffleElt, LaurentPoly], ...] | None = None

    # -- letter/weight/element translation -------------------------------------

    def _w_in(self, w: Word) -> Word:
        if any(not 1 <= a <= self.datum.rank for a in w):
            raise ValueError(f"{format_word(tuple(w))} has letters outside 1..{self.datum.rank}")
        if self._natural:
            return tuple(w)
        return tuple(self._in_letters[a] for a in w)

    def _w_out(self, w: Word) -> Word:
        if self._natural:
            return w
        return tuple(self._out_letters[a] for a in w)

    def _nu_in(self, nu: Weight) -> Weight:
        if len(nu) != self.datum.rank:
            raise ValueError(f"weight needs {self.datum.rank} entries")
        if self._natural:
            return tuple(nu)
        return tuple(nu[o - 1] for o in self.order)

    def _nu_out(self, nu: Weight) -> Weight:
        if self._natural:
            return nu
        out = [0] * len(nu)
        for k, o in enumerate(self.order):
            out[o - 1] = nu[k]
        return tuple(out)

    def _elt_out(self, e: ShuffleElt) -> ShuffleElt:
        if self._natural:
            return e
        return ShuffleElt(
            self.datum,
            self._nu_out(e.weight),
            {self._w_out(w): c for w, c in e.terms.items()},
        )

    def _elt_in(self, e: ShuffleElt) -> ShuffleElt:
        if e.datum != self.datum:
            raise shuffle.DatumMismatch("element does not live over this table's datum")
        if self._natural:
            return e
        return ShuffleElt(
            self._idatum,
            self._nu_in(e.weight),
            {self._w_in(w): c for w, c in e.terms.items()},
        )

    def _where(self, g: Word | None = None, pivot: Word | None = None) -> str:
        """Where a construction failed: datum and order, then the weight, good
        word and pivot where there is one."""
        text = f"[{self.datum} order {','.join(map(str, self.order))}"
        if g is not None:
            nu = self._nu_out(cartan.word_weight(self._idatum, g))
            text += f" weight {cartan.format_weight(nu)} good word {format_word(self._w_out(g))}"
        if pivot is not None:
            text += f" pivot {format_word(self._w_out(pivot))}"
        return text + "]"

    # -- the bijection and the convex order --------------------------------------

    def _good_lyndon_map(self) -> dict[Weight, Word]:
        """The bijection root -> Lyndon word, by increasing height: a simple root
        maps to its letter, and a composite root takes the maximal concatenation
        l(b1) l(b2) over decompositions b1 + b2 = b with l(b1) < l(b2)."""
        roots = cartan.positive_roots(self._idatum)
        root_set = set(roots)
        table: dict[Weight, Word] = {}
        for beta in roots:  # already ordered by increasing height
            if cartan.height(beta) == 1:
                table[beta] = (beta.index(1) + 1,)
                continue
            best: Word | None = None
            for gamma in roots:
                if cartan.height(gamma) >= cartan.height(beta):
                    break
                delta = cartan.sub(beta, gamma)
                if any(x < 0 for x in delta) or delta not in root_set:
                    continue
                l1, l2 = table[gamma], table[delta]
                if l1 < l2:
                    cand = l1 + l2
                    if best is None or cand > best:
                        best = cand
            if best is None or not words.is_lyndon(best):
                root = cartan.format_weight(self._nu_out(beta))
                raise laurent.TheoryViolation(f"no Lyndon cover found for root {root} {self._where()}")
            table[beta] = best
        return table

    def lyndon_words(self) -> tuple[Word, ...]:
        """All good Lyndon words, ascending in the table's lexicographic order."""
        return tuple(self._w_out(l) for l in sorted(self._gl))

    def lyndon_of_root(self, beta: Weight) -> Word:
        try:
            return self._w_out(self._lyndon_of_root[self._nu_in(tuple(beta))])
        except KeyError:
            raise NotGoodLyndon(f"{beta} is not a positive root") from None

    def root_of_lyndon(self, l: Word) -> Weight:
        li = self._w_in(tuple(l))
        if li not in self._root_of_lyndon:
            raise NotGoodLyndon(f"{format_word(l)} is not a good Lyndon word")
        return self._nu_out(self._root_of_lyndon[li])

    def roots_in_convex_order(self) -> tuple[Weight, ...]:
        """Positive roots sorted by their good Lyndon words."""
        return tuple(self._nu_out(self._root_of_lyndon[l]) for l in sorted(self._gl))

    # -- good words ----------------------------------------------------------------

    def _factors_i(self, w: Word) -> tuple[tuple[Word, int], ...] | None:
        parts = words.lyndon_factorization(w)
        if any(p not in self._gl for p in parts):
            return None
        return _grouped(parts)

    def _good_words_i(self, nui: Weight) -> list[tuple[Word, tuple[tuple[Word, int], ...]]]:
        """The good word of each Kostant partition of nu with its grouped
        factors, ascending.  A non-increasing product of good Lyndon words has
        exactly those words as its Lyndon factorization."""
        out = []
        for part in cartan.kostant_partitions(self._idatum, nui):
            lyndons = sorted((self._lyndon_of_root[b] for b in part), reverse=True)
            out.append((tuple(a for l in lyndons for a in l), _grouped(lyndons)))
        return sorted(out)

    def _good_out(self, wi: Word, factors: tuple[tuple[Word, int], ...]) -> GoodWord:
        return GoodWord(self._w_out(wi), tuple((self._w_out(l), m) for l, m in factors))

    def is_good(self, w: Word) -> bool:
        return self._factors_i(self._w_in(tuple(w))) is not None

    def good_word(self, w: Word) -> GoodWord:
        wi = self._w_in(tuple(w))
        factors = self._factors_i(wi)
        if factors is None:
            raise NotGoodWord(f"{format_word(w)} is not a good word")
        return self._good_out(wi, factors)

    def good_words_of_weight(self, nu: Weight) -> tuple[GoodWord, ...]:
        """One good word per Kostant partition of nu, ascending lexicographically."""
        return tuple(self._good_out(w, f) for w, f in self._good_words_i(self._nu_in(tuple(nu))))

    # -- Lyndon basis vectors -------------------------------------------------------

    def _r_i(self, l: Word) -> ShuffleElt:
        hit = self._r_cache.get(l)
        if hit is not None:
            return hit
        if len(l) == 1:
            out = ShuffleElt.from_word(self._idatum, l)
        else:
            l1, l2 = words.costandard_factorization(l)
            out = shuffle.shuffle_bracket(self._r_i(l1), self._r_i(l2))
        self._r_cache[l] = out
        return out

    def r_of_lyndon(self, l: Word) -> ShuffleElt:
        """The iterated shuffle bracket over the co-standard factorization."""
        li = self._w_in(tuple(l))
        if li not in self._gl:
            raise NotGoodLyndon(f"{format_word(l)} is not a good Lyndon word")
        return self._elt_out(self._r_i(li))

    # -- dual PBW vectors -------------------------------------------------------------

    def _dual_root_i(self, l: Word) -> tuple[ShuffleElt, LaurentPoly]:
        hit = self._dual_root_cache.get(l)
        if hit is not None:
            return hit
        datum = self._idatum
        beta = self._root_of_lyndon[l]
        n_val = cartan.n_of(datum, beta)
        norm = cartan.bilinear_form(datum, beta, beta)
        # Normalize the bracket vector: scale by (-1)^{len-1} q^{-N} times the
        # inverse of the squared-norm product, which is exact by construction.
        numerator = ONE - laurent.monomial(norm)
        denominator = ONE
        for i, c in enumerate(beta):
            if c:
                factor = ONE - laurent.monomial(2 * datum.d[i])
                for _ in range(c):
                    denominator = denominator * factor
        sign = 1 if len(l) % 2 else -1
        scale = numerator.shifted(-n_val) * sign
        scaled = self._r_i(l).scaled(scale)
        try:
            normalized = {w: laurent.exact_div(c, denominator) for w, c in scaled.terms.items()}
            kappa = laurent.sqrt_exact(normalized.get(l, ZERO))
            elt = ShuffleElt(datum, beta, {w: laurent.exact_div(c, kappa) for w, c in normalized.items()})
        except (laurent.InexactDivision, laurent.NotAPerfectSquare) as exc:
            raise type(exc)(f"{exc} {self._where(l)}") from exc
        if shuffle.max_word(elt) != l:
            raise StraighteningFailure(f"dual root vector has wrong maximal word {self._where(l)}")
        self._dual_root_cache[l] = (elt, kappa)
        return elt, kappa

    def dual_root_vector(self, l: Word) -> DualPBWVector:
        li = self._w_in(tuple(l))
        if li not in self._gl:
            raise NotGoodLyndon(f"{format_word(l)} is not a good Lyndon word")
        elt, kappa = self._dual_root_i(li)
        return DualPBWVector(self.good_word(tuple(l)), self._elt_out(elt), kappa)

    def _d_of_lyndon(self, l: Word) -> int:
        beta = self._root_of_lyndon[l]
        d = cartan.bilinear_form(self._idatum, beta, beta) // 2
        if d not in (1, 2, 3):
            raise laurent.TheoryViolation(f"root has (b,b)/2 = {d}, not 1, 2 or 3 {self._where(l)}")
        return d

    def _kappa_i(self, factors: Iterable[tuple[Word, int]]) -> LaurentPoly:
        out = ONE
        for l, a in factors:
            _, kappa_l = self._dual_root_i(l)
            for _ in range(a):
                out = out * kappa_l
            out = out * laurent.q_factorial(a, self._d_of_lyndon(l))
        return out

    def kappa(self, g: Word | GoodWord) -> LaurentPoly:
        """The bar-symmetric leading coefficient attached to a good word."""
        if isinstance(g, GoodWord):
            g = g.word
        wi = self._w_in(tuple(g))
        factors = self._factors_i(wi)
        if factors is None:
            raise NotGoodWord(f"{format_word(g)} is not a good word")
        return self._kappa_i(factors)

    def _enter(self, nui: Weight) -> None:
        """Make nui the current weight of the scope, dropping the old one's vectors."""
        if nui != self._pbw_memo_weight:
            self._pbw_memo_weight, self._pbw_memo, self._canonical_memo = nui, {}, None

    def _dual_pbw_i(
        self, wi: Word, factors: tuple[tuple[Word, int], ...] | None = None
    ) -> tuple[ShuffleElt, LaurentPoly]:
        """The one route to a dual PBW vector.  The memo lives in the weight
        scope, so straightening and the expansions of that weight share one
        build per good word.  Without `factors` the word is factorized on a
        miss only."""
        hit = self._pbw_memo.get(wi)
        if hit is not None:
            return hit
        self._enter(cartan.word_weight(self._idatum, wi))
        if factors is None and (factors := self._factors_i(wi)) is None:
            raise NotGoodWord(f"{format_word(self._w_out(wi))} is not a good word")
        if not factors:  # the empty good word indexes the unit
            hit = ShuffleElt.from_word(self._idatum, ()), ONE
        elif len(factors) == 1 and factors[0][1] == 1:
            hit = self._dual_root_i(wi)
        else:
            # qshuffle is bilinear, so the normalizing power of q scales the
            # smallest factor's power, not the product's whole support; it is
            # applied after that power is built, which keeps a repeated
            # factor's first product on the square path of qshuffle
            shift = sum(comb(a, 2) * self._d_of_lyndon(l) for l, a in factors)
            powers = []
            for l, a in reversed(factors):
                base, _ = self._dual_root_i(l)
                power = base
                for _ in range(a - 1):
                    power = shuffle.qshuffle(power, base)
                powers.append(power)
            elt = powers[0].scaled(laurent.monomial(shift))
            for power in powers[1:]:
                elt = shuffle.qshuffle(elt, power)
            kappa = self._kappa_i(factors)
            if shuffle.max_word(elt) != wi or elt.terms[wi] != kappa:
                raise StraighteningFailure(f"dual PBW vector has wrong leading term {self._where(wi)}")
            hit = elt, kappa
        self._pbw_memo[wi] = hit
        return hit

    def dual_pbw(self, g: Word | GoodWord) -> DualPBWVector:
        """The normalized shuffle product of dual root vectors, smallest factor first."""
        w = tuple(g.word if isinstance(g, GoodWord) else g)
        wi = self._w_in(w)
        factors = self._factors_i(wi)
        if factors is None:
            raise NotGoodWord(f"{format_word(w)} is not a good word")
        elt, kappa = self._dual_pbw_i(wi, factors)
        return DualPBWVector(self._good_out(wi, factors), self._elt_out(elt), kappa)

    # -- the dual canonical basis --------------------------------------------------------

    def _dual_canonical_weight_i(self, nui: Weight) -> tuple[tuple[Word, ShuffleElt, LaurentPoly], ...]:
        """The dual canonical vectors of nui, ascending by good word, built
        once while nui is the scope's weight."""
        self._enter(nui)
        if self._canonical_memo is not None:
            return self._canonical_memo
        goods = self._good_words_i(nui)
        done: dict[Word, tuple[ShuffleElt, LaurentPoly]] = {}
        out: list[tuple[Word, ShuffleElt, LaurentPoly]] = []
        for k, (g, factors) in enumerate(goods):
            pbw, kappa = self._dual_pbw_i(g, factors)
            # The dual PBW vectors are triangular on the good words, so one
            # pass from g down fixes every good coefficient: a correction at p
            # subtracts in place from a private copy and changes only words <= p.
            acc = {w: dict(c.terms) for w, c in pbw.terms.items()}
            for p, _ in goods[k::-1]:
                alpha = laurent._raw(acc.get(p, {}))
                if alpha.is_bar_symmetric():
                    continue
                if p == g:
                    raise StraighteningFailure(f"leading coefficient is not bar-symmetric {self._where(g, p)}")
                b_pivot, kappa_p = done[p]
                # Bar symmetry of alpha - gamma*kappa_p with gamma in q Z[q]
                # pins gamma: gamma - bar(gamma) = (alpha - bar(alpha)) / kappa_p.
                try:
                    delta = laurent.exact_div(alpha - alpha.bar(), kappa_p)
                except laurent.InexactDivision as exc:
                    raise laurent.InexactDivision(f"{exc} {self._where(g, p)}") from exc
                if delta.bar() != -delta:
                    raise StraighteningFailure(f"correction is not antisymmetric {self._where(g, p)}")
                gamma = delta.positive_part()
                if not gamma:
                    raise StraighteningFailure(f"empty correction {self._where(g, p)}")
                shuffle._sub_scaled(acc, b_pivot, gamma)
            elt = shuffle._raw_elt(self._idatum, pbw.weight, {w: laurent._raw(d) for w, d in acc.items()})
            bad = [w for w, c in elt.terms.items() if not c.is_bar_symmetric()]
            if bad:
                raise StraighteningFailure(
                    f"no good pivot {self._where(g)}; asymmetric words "
                    f"{[format_word(self._w_out(w)) for w in sorted(bad, reverse=True)]}"
                )
            if shuffle.max_word(elt) != g or elt.terms[g] != kappa:
                raise StraighteningFailure(f"straightened vector has wrong leading term {self._where(g)}")
            done[g] = (elt, kappa)
            out.append((g, elt, kappa))
        self._canonical_memo = tuple(out)
        return self._canonical_memo

    def dual_canonical_weight(self, nu: Weight) -> tuple[DualCanonicalVector, ...]:
        """All dual canonical vectors of one weight, ascending by good word."""
        return tuple(
            DualCanonicalVector(self._good_out(g, self._factors_i(g)), self._elt_out(elt), kappa)
            for g, elt, kappa in self._dual_canonical_weight_i(self._nu_in(tuple(nu)))
        )

    def dual_canonical_vector(self, g: Word) -> DualCanonicalVector:
        """The dual canonical vector indexed by one good word."""
        good = self.good_word(tuple(g))
        wi = self._w_in(good.word)
        for h, elt, kappa in self._dual_canonical_weight_i(cartan.word_weight(self._idatum, wi)):
            if h == wi:
                return DualCanonicalVector(good, self._elt_out(elt), kappa)
        raise laurent.TheoryViolation(
            f"no dual canonical vector for good word {good}; every good word indexes one"
        )

    # -- expansion over the dual PBW family ------------------------------------------------

    def _expand_i(self, elt_i: ShuffleElt) -> dict[Word, LaurentPoly]:
        residual = {w: dict(c.terms) for w, c in elt_i.terms.items()}
        out: dict[Word, LaurentPoly] = {}
        while residual:
            w = max(residual)
            try:
                elt, kappa = self._dual_pbw_i(w)
            except NotGoodWord:
                raise NotInU(
                    f"maximal word {format_word(self._w_out(w))} of the residual is not good"
                ) from None
            try:
                c = laurent.exact_div(laurent._raw(residual[w]), kappa)
            except laurent.InexactDivision as exc:
                raise NotInU(f"leading coefficient at {format_word(self._w_out(w))} not divisible") from exc
            out[w] = c
            shuffle._sub_scaled(residual, elt, c)
        return out

    def expand_in_dual_pbw(self, f: ShuffleElt) -> dict[Word, LaurentPoly]:
        """Coefficients of f over the dual PBW vectors, by elimination at the
        maximal word; raises NotInU when the maximal word is not good."""
        return {self._w_out(w): c for w, c in self._expand_i(self._elt_in(f)).items()}


def _grouped(lyndons: Sequence[Word]) -> tuple[tuple[Word, int], ...]:
    """Runs of equal words in a non-increasing Lyndon factorization, with multiplicities."""
    return tuple((l, len(list(run))) for l, run in groupby(lyndons))


# -- reality and whole-range scans ----------------------------------------------------
# The checks read the internal vectors of the weight scope, where the table's
# order is the natural tuple order, and translate only the words they report.


def is_real(table: GoodLyndonTable, vec: DualCanonicalVector) -> bool:
    """True when the shuffle square of vec is a power of q times another
    dual canonical vector.  vec must be a dual canonical vector of this
    table, so that its square lies in U."""
    return _is_real_i(table, table._elt_in(vec.elt))


def _is_real_i(table: GoodLyndonTable, elt: ShuffleElt) -> bool:
    """`is_real` on an element in internal coordinates.  With N = (nu, nu),
    nu the weight of elt, the square path of `qshuffle` makes q^{N/2} times
    the square bar-symmetric, so the square can be q^k times a dual
    canonical vector only at k = -N/2.  The square lies in U, where an
    element is fixed by its coefficients at the good words of its weight,
    and by uniqueness an element with bar-symmetric coefficients in
    E*_top + sum q Z[q] E*_h is the dual canonical vector at top.  So the
    check solves the dual PBW expansion of q^{-k} times the square on the
    good words only, from top down; a top word that is not good or a top
    coefficient other than q^k kappa_top breaks the theory and raises."""
    square = shuffle.qshuffle(elt, elt)
    top = shuffle.max_word(square)
    k = -(cartan.bilinear_form(table._idatum, elt.weight, elt.weight) // 2)
    goods = [(h, f) for h, f in reversed(table._good_words_i(square.weight)) if h <= top]
    if not goods or goods[0][0] != top:
        raise laurent.TheoryViolation(f"top word of the square is not good {table._where(top)}")
    _, kappa = table._dual_pbw_i(top, goods[0][1])
    if square.terms[top] != kappa.shifted(k):
        raise laurent.TheoryViolation(f"top coefficient of the square is not q^{k} kappa {table._where(top)}")
    residual = {h: square.terms[h].shifted(-k).terms for h, _ in goods if h in square.terms}
    for i, (h, f) in enumerate(goods):
        if not residual.get(h):
            continue
        pbw, kappa_h = table._dual_pbw_i(h, f)
        try:
            c = laurent.exact_div(laurent._raw(residual[h]), kappa_h)
        except laurent.InexactDivision as exc:
            raise laurent.InexactDivision(f"{exc} {table._where(top, h)}") from exc
        if h != top and c.valuation() < 1:  # at top c is 1 by the guard above
            return False
        neg = {e: -x for e, x in c.terms.items()}
        for g, _ in goods[i + 1 :]:
            if g in pbw.terms:
                laurent._mul_add(residual.setdefault(g, {}), pbw.terms[g].terms, neg)
    return True


class WeightEntry(Record, namedtuple("WeightEntry", "weight vectors violations elapsed")):
    __slots__ = ()


class ScanReport(Record, namedtuple("ScanReport", "check max_height entries elapsed")):
    __slots__ = ()

    @property
    def total_vectors(self) -> int:
        return sum(e.vectors for e in self.entries)

    @property
    def total_violations(self) -> int:
        return sum(len(e.violations) for e in self.entries)


# Each check takes the vectors of one weight from `scan`, which builds them once.
Vectors = Sequence[tuple[Word, ShuffleElt, LaurentPoly]]


def _positivity_violations(table: GoodLyndonTable, vectors: Vectors) -> list[dict]:
    """Every negative coefficient of the dual canonical vectors of one weight."""
    return [
        {"good_word": list(table._w_out(g)), "word": list(table._w_out(w)), "coefficient": elt.terms[w].to_json()}
        for g, elt, _ in vectors
        for w in sorted((w for w, c in elt.terms.items() if min(c.terms.values()) < 0), key=table._w_out)
    ]


def _reality_violations(table: GoodLyndonTable, vectors: Vectors) -> list[dict]:
    return [
        {"good_word": list(table._w_out(g)), "kind": "imaginary"} for g, elt, _ in vectors if not _is_real_i(table, elt)
    ]


def _invariant_violations(table: GoodLyndonTable, vectors: Vectors) -> list[dict]:
    """Membership in U and the q Z[q] expansion over the dual PBW family:
    construction raises on everything else a dual canonical vector must satisfy."""
    out = []
    for g, elt, _ in vectors:
        record = {"good_word": list(table._w_out(g))}
        membership = shuffle.serre_membership(elt)
        if not membership.ok:
            out.append({**record, "kind": "not-in-subalgebra", "witness": str(membership.witness)})
        for h, c in table._expand_i(elt).items():
            # the expansion pivots only below g, and off-diagonal coefficients live in q Z[q]
            if h != g and c.valuation() < 1:
                out.append(
                    {**record, "kind": "expansion-off-diagonal", "at": list(table._w_out(h)), "value": str(c)}
                )
    return out


_SCAN_CHECKS = {
    "positivity": _positivity_violations,
    "reality": _reality_violations,
    "invariants": _invariant_violations,
}


def scan(table: GoodLyndonTable, max_height: int, check: str) -> ScanReport:
    """Run one check over every nonzero weight of height at most max_height."""
    if check not in _SCAN_CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {sorted(_SCAN_CHECKS)}")
    run = _SCAN_CHECKS[check]
    entries = []
    t0 = time.perf_counter()
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        w0 = time.perf_counter()
        vectors = table._dual_canonical_weight_i(table._nu_in(nu))
        violations = tuple(run(table, vectors))
        entries.append(WeightEntry(nu, len(vectors), violations, time.perf_counter() - w0))
    return ScanReport(check, max_height, tuple(entries), time.perf_counter() - t0)
