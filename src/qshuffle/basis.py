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
from itertools import groupby

from . import cartan, laurent, shuffle, words
from .cartan import CartanDatum, Record, Weight
from .laurent import ONE, ZERO, LaurentPoly
from .shuffle import ShuffleElt
from .words import Word, format_word

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Iterable, Sequence


class NotGoodLyndon(ValueError):
    """The word is not a good Lyndon word of this table."""


class NotGoodWord(ValueError):
    """The word is not a good word of this table."""


class NotInU(ValueError):
    """Expansion over the dual PBW family failed: the element lies outside the
    letter-generated subalgebra (or has non-integral expansion coefficients)."""


class StraighteningFailure(laurent.TheoryViolation):
    """The correction step of the straightening loop could not proceed."""


class GoodWord(Record, fields="word factors"):
    """A good word together with its non-increasing good-Lyndon factorization."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_word(self.word)


class DualPBWVector(Record, fields="good_word elt"):
    __slots__ = ()

    @property
    def kappa(self) -> LaurentPoly:
        """The vector's coefficient at its own good word."""
        return shuffle.coefficient(self.elt, self.good_word.word)


class DualCanonicalVector(Record, fields="good_word elt"):
    __slots__ = ()
    kappa = DualPBWVector.kappa


class GoodLyndonTable:
    """The bijection between positive roots and good Lyndon words, the induced
    convex order, and cached basis vectors built on top of it."""

    def __init__(self, datum: CartanDatum, order: Sequence[int] | None = None):
        r = datum.rank
        self.datum = datum
        self.order = tuple(order) if order is not None else tuple(range(1, r + 1))
        self._idatum = cartan.reorder(datum, self.order)
        # internal letter k <-> original letter self.order[k-1]
        self._out_letters = (0,) + self.order
        inv = [0] * (r + 1)
        for k, orig in enumerate(self.order, start=1):
            inv[orig] = k
        self._in_letters = tuple(inv)

        self._lyndon_of_root: dict[Weight, Word] = self._good_lyndon_map()
        self._root_of_lyndon = {l: b for b, l in self._lyndon_of_root.items()}
        # For the table's life: each good Lyndon word's (r_l, E*_l, kappa_l,
        # d_l) and each factor group's kappa value.
        self._roots: dict[Word, tuple[ShuffleElt, ShuffleElt, LaurentPoly, int]] = {}
        self._kappa_cache: dict[tuple[Word, int], LaurentPoly] = {}
        # One weight scope, which only the table writes and entering another
        # weight clears: the dual PBW vectors, with those of their factor groups
        # l^j and of the groups of the good words of twice the weight, and the
        # reality workspace, the good words of twice the weight, descending,
        # with the solve's rows.  A vector's kappa is its coefficient at its own
        # good word, checked against `_kappa_i` before it is held.
        self._pbw_memo_weight: Weight | None = None
        self._pbw_memo: dict[Word, ShuffleElt] = {}
        self._reality_workspace: (
            tuple[list[tuple[Word, tuple[tuple[Word, int], ...]]], dict[Word, dict[Word, dict[int, int]]]] | None
        ) = None

    # -- letter/weight/element translation -------------------------------------

    def _w_in(self, w: Word) -> Word:
        if any(not 1 <= a <= self.datum.rank for a in w):
            raise ValueError(f"{format_word(tuple(w))} has letters outside 1..{self.datum.rank}")
        return tuple(self._in_letters[a] for a in w)

    def _w_out(self, w: Word) -> Word:
        return tuple(self._out_letters[a] for a in w)

    def _nu_in(self, nu: Weight) -> Weight:
        if len(nu) != self.datum.rank:
            raise ValueError(f"weight needs {self.datum.rank} entries")
        return _moved(self._in_letters, nu)

    def _nu_out(self, nu: Weight) -> Weight:
        return _moved(self._out_letters, nu)

    def _elt_out(self, e: ShuffleElt) -> ShuffleElt:
        return _moved_elt(self._out_letters, self.datum, e)

    def _elt_in(self, e: ShuffleElt) -> ShuffleElt:
        if e.datum != self.datum:
            raise shuffle.DatumMismatch("element does not live over this table's datum")
        return ShuffleElt(
            self._idatum,
            self._nu_in(e.weight),
            {self._w_in(w): c for w, c in e.terms.items()},
        )

    def _witness_out(self, w: shuffle.MembershipWitness) -> shuffle.MembershipWitness:
        """A failing Serre relation in the table's letters."""
        out = self._out_letters
        return w._replace(i=out[w.i], j=out[w.j], left=self._w_out(w.left), right=self._w_out(w.right))

    def _where(self, g: Word | None = None, pivot: Word | None = None) -> str:
        """Where a construction failed: datum and order, then the weight, word
        (labeled good word when it is one) and pivot where there is one."""
        text = f"[{self.datum} order {','.join(map(str, self.order))}"
        if g is not None:
            nu = self._nu_out(cartan.word_weight(self._idatum, g))
            label = "word" if self._factors_i(g) is None else "good word"
            text += f" weight {cartan.format_weight(nu)} {label} {format_word(self._w_out(g))}"
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
        return tuple(self._w_out(l) for l in sorted(self._root_of_lyndon))

    def lyndon_of_root(self, beta: Weight) -> Word:
        try:
            return self._w_out(self._lyndon_of_root[self._nu_in(tuple(beta))])
        except KeyError:
            raise NotGoodLyndon(f"{beta} is not a positive root") from None

    def _lyndon_i(self, l: Word) -> Word:
        """A good Lyndon word in internal letters; raises NotGoodLyndon otherwise."""
        li = self._w_in(tuple(l))
        if li not in self._root_of_lyndon:
            raise NotGoodLyndon(f"{format_word(l)} is not a good Lyndon word")
        return li

    def root_of_lyndon(self, l: Word) -> Weight:
        return self._nu_out(self._root_of_lyndon[self._lyndon_i(l)])

    def roots_in_convex_order(self) -> tuple[Weight, ...]:
        """Positive roots sorted by their good Lyndon words."""
        return tuple(self._nu_out(self._root_of_lyndon[l]) for l in sorted(self._root_of_lyndon))

    # -- good words ----------------------------------------------------------------

    def _factors_i(self, w: Word) -> tuple[tuple[Word, int], ...] | None:
        parts = words.lyndon_factorization(w)
        if any(p not in self._root_of_lyndon for p in parts):
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

    def _good_i(self, g: Word | GoodWord) -> tuple[Word, tuple[tuple[Word, int], ...]]:
        """A good word in internal letters with its grouped factors; raises
        NotGoodWord otherwise."""
        w = tuple(g.word if isinstance(g, GoodWord) else g)
        wi = self._w_in(w)
        factors = self._factors_i(wi)
        if factors is None:
            raise NotGoodWord(f"{format_word(w)} is not a good word")
        return wi, factors

    def is_good(self, w: Word) -> bool:
        return self._factors_i(self._w_in(tuple(w))) is not None

    def good_word(self, w: Word) -> GoodWord:
        return self._good_out(*self._good_i(w))

    def good_words_of_weight(self, nu: Weight) -> tuple[GoodWord, ...]:
        """One good word per Kostant partition of nu, ascending lexicographically."""
        return tuple(self._good_out(w, f) for w, f in self._good_words_i(self._nu_in(tuple(nu))))

    # -- Lyndon basis vectors and dual root vectors -----------------------------------

    def _root_i(self, l: Word) -> tuple[ShuffleElt, ShuffleElt, LaurentPoly, int]:
        """(r_l, E*_l, kappa_l, d_l) of a good Lyndon word l, built once per
        table: r_l is the iterated shuffle bracket over the co-standard
        factorization, E*_l its normalization with coefficient kappa_l at l,
        and d_l = (b, b)/2 for the root b of l."""
        hit = self._roots.get(l)
        if hit is not None:
            return hit
        datum = self._idatum
        beta = self._root_of_lyndon[l]
        norm = cartan.bilinear_form(datum, beta, beta)
        d = norm // 2
        if d not in (1, 2, 3):
            raise laurent.TheoryViolation(f"root has (b,b)/2 = {d}, not 1, 2 or 3 {self._where(l)}")
        if len(l) == 1:
            r = ShuffleElt.from_word(datum, l)
        else:
            l1, l2 = words.costandard_factorization(l)
            r = shuffle.shuffle_bracket(self._root_i(l1)[0], self._root_i(l2)[0])
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
        scaled = r.scaled(numerator.shifted(-cartan.n_of(datum, beta)) * sign)
        try:
            normalized = {w: laurent.exact_div(c, denominator) for w, c in scaled.terms.items()}
            kappa = laurent.sqrt_exact(normalized.get(l, ZERO))
            elt = ShuffleElt(datum, beta, {w: laurent.exact_div(c, kappa) for w, c in normalized.items()})
        except (laurent.InexactDivision, laurent.NotAPerfectSquare) as exc:
            raise type(exc)(f"{exc} {self._where(l)}") from exc
        if shuffle.max_word(elt) != l:
            raise StraighteningFailure(f"dual root vector has wrong maximal word {self._where(l)}")
        hit = self._roots[l] = r, elt, kappa, d
        return hit

    def r_of_lyndon(self, l: Word) -> ShuffleElt:
        """The iterated shuffle bracket over the co-standard factorization."""
        return self._elt_out(self._root_i(self._lyndon_i(l))[0])

    # -- dual PBW vectors -------------------------------------------------------------

    def dual_root_vector(self, l: Word) -> DualPBWVector:
        li = self._lyndon_i(l)
        return DualPBWVector(self._good_out(li, ((li, 1),)), self._elt_out(self._root_i(li)[1]))

    def _kappa_i(self, factors: Iterable[tuple[Word, int]]) -> LaurentPoly:
        """The product over the factor groups (l, a) of kappa_l^a [a]_{d_l}!,
        each group's value built once per table."""
        out = ONE
        for group in factors:
            value = self._kappa_cache.get(group)
            if value is None:
                l, a = group
                _, _, kappa_l, d_l = self._root_i(l)
                value = laurent.q_factorial(a, d_l)
                for _ in range(a):
                    value = value * kappa_l
                self._kappa_cache[group] = value
            out = out * value
        return out

    def kappa(self, g: Word | GoodWord) -> LaurentPoly:
        """The bar-symmetric leading coefficient attached to a good word."""
        return self._kappa_i(self._good_i(g)[1])

    def _enter(self, nui: Weight) -> None:
        """Make nui the current weight of the scope, dropping the old one's state."""
        if nui != self._pbw_memo_weight:
            self._pbw_memo_weight, self._pbw_memo, self._reality_workspace = nui, {}, None

    def _dual_pbw_i(self, wi: Word, factors: tuple[tuple[Word, int], ...] | None = None) -> ShuffleElt:
        """The one route to a dual PBW vector, memoised in the weight scope
        that the caller enters.  A factor group l^a is a good word whose
        vector is E*_l for a = 1 and E*_{l^(a-1)} * q^{(a-1) d_l} E*_l after,
        so q^{C(a,2) d_l} E*_l^a; a word of several groups takes the plain
        product of their vectors, smallest first.  Without `factors` the word
        is factorized on a miss only."""
        hit = self._pbw_memo.get(wi)
        if hit is not None:
            return hit
        if factors is None and (factors := self._factors_i(wi)) is None:
            raise NotGoodWord(f"{format_word(self._w_out(wi))} is not a good word")
        if not factors:  # the empty good word indexes the unit
            elt = ShuffleElt.from_word(self._idatum, ())
        elif len(factors) > 1:
            elt, *groups = self._group_vectors(factors)
            for group in groups:
                elt = shuffle.qshuffle(elt, group)
        else:
            ((l, a),) = factors
            _, elt, _, d_l = self._root_i(l)
            if a > 1:  # the power of q scales the operand of smaller support
                shift = laurent.monomial((a - 1) * d_l)
                elt = shuffle.qshuffle(self._dual_pbw_i(l * (a - 1), ((l, a - 1),)), elt.scaled(shift))
        if shuffle.max_word(elt) != wi or elt.terms[wi] != self._kappa_i(factors):
            raise StraighteningFailure(f"dual PBW vector has wrong leading term {self._where(wi)}")
        self._pbw_memo[wi] = elt
        return elt

    def _group_vectors(self, factors: tuple[tuple[Word, int], ...]) -> list[ShuffleElt]:
        """The vectors E*_{l^a} of a good word's factor groups, smallest first."""
        return [self._dual_pbw_i(l * a, ((l, a),)) for l, a in reversed(factors)]

    def dual_pbw(self, g: Word | GoodWord) -> DualPBWVector:
        """The normalized shuffle product of dual root vectors, smallest factor first."""
        wi, factors = self._good_i(g)
        self._enter(cartan.word_weight(self._idatum, wi))
        return DualPBWVector(self._good_out(wi, factors), self._elt_out(self._dual_pbw_i(wi, factors)))

    # -- the dual canonical basis --------------------------------------------------------

    def _dual_canonical_weight_i(
        self, nui: Weight, images: Iterable[tuple[Word, ShuffleElt]] | None = None
    ) -> tuple[tuple[Word, ShuffleElt, Word], ...]:
        """The dual canonical vectors of nui, ascending by good word, each as
        (g, b*_g, origin): the good word of the vector that b*_g is an image
        of.  kappa_g is b*_g's coefficient at g.  The tuple is returned, not
        held: the call enters nui, and a repeat call at the scope's weight
        builds no E*_g again, only the straightening pass over them.

        Two symmetries map the dual canonical basis onto itself, keeping every
        coefficient but not the lexicographic order, so each image of a dual
        canonical vector is the vector b*_h indexed by its own maximal word h:
        the reversal tau of words (Kashiwara's anti-involution *, which fixes
        every E_i) permutes the vectors of nui, and a letter map sigma that
        fixes the internal datum is an algebra automorphism (Lusztig), so
        `images`, the sigma-images of the vectors of sigma^-1(nui), each given
        with its origin, are the vectors of nui.  The pass goes up the good
        words and takes each image held at h as b*_h with the image's origin,
        so E*_h is never built here.  Given `images`, it holds each at its
        maximal word and straightens nothing.  Otherwise a good word g that no
        earlier reversal reached is straightened from its dual PBW vector
        E*_g and is its own origin, and if the reversal of b*_g has a maximal
        word h > g, it is held with origin g; a tau-fixed good word, h = g, is
        straightened like any other.  As tau is an involution, b*_h with
        h < g was met earlier and would have held g instead, and a second
        vector cannot reverse onto a held h.  So a reversal onto an h below g, not good or held already,
        two images with one maximal word, a held image whose coefficient at h
        is not kappa_h, a good word that no given image reaches and an image
        still held at the end, such as one at a word that is not good, all
        break the theory and raise."""
        self._enter(nui)
        goods = self._good_words_i(nui)
        done: dict[Word, tuple[ShuffleElt, Word]] = {}
        held: dict[Word, tuple[Word, ShuffleElt]] = {}
        for origin, elt in images or ():
            if (h := shuffle.max_word(elt)) in held:
                raise StraighteningFailure(f"two images have this maximal word {self._where(h)}")
            held[h] = origin, elt
        for k, (g, factors) in enumerate(goods):
            if g in held:
                origin, elt = held.pop(g)
                if elt.terms[g] != self._kappa_i(factors):
                    raise StraighteningFailure(f"image's coefficient is not kappa {self._where(g)}")
                done[g] = (elt, origin)
                continue
            if images is not None:
                raise StraighteningFailure(f"no image has this maximal word {self._where(g)}")
            pbw = self._dual_pbw_i(g, factors)
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
                b_pivot = done[p][0]
                # Bar symmetry of alpha - gamma*kappa_p with gamma in q Z[q]
                # pins gamma: gamma - bar(gamma) = (alpha - bar(alpha)) / kappa_p.
                try:
                    delta = laurent.exact_div(alpha - alpha.bar(), b_pivot.terms[p])
                except laurent.InexactDivision as exc:
                    raise laurent.InexactDivision(f"{exc} {self._where(g, p)}") from exc
                if delta.bar() != -delta:
                    raise StraighteningFailure(f"correction is not antisymmetric {self._where(g, p)}")
                gamma = delta.positive_part()
                if not gamma:
                    raise StraighteningFailure(f"empty correction {self._where(g, p)}")
                shuffle._scaled_into(acc, shuffle._maps(b_pivot), (-gamma).terms)
            elt = shuffle._from_maps(self._idatum, pbw.weight, acc)
            bad = [w for w, c in elt.terms.items() if not c.is_bar_symmetric()]
            if bad:
                raise StraighteningFailure(
                    f"no good pivot {self._where(g)}; asymmetric words "
                    f"{[format_word(self._w_out(w)) for w in sorted(bad, reverse=True)]}"
                )
            if shuffle.max_word(elt) != g or elt.terms[g] != self._kappa_i(factors):
                raise StraighteningFailure(f"straightened vector has wrong leading term {self._where(g)}")
            done[g] = (elt, g)
            reversal = shuffle.tau(elt)
            h = shuffle.max_word(reversal)
            if h == g:
                continue
            if h < g or h in held or self._factors_i(h) is None:
                raise StraighteningFailure(
                    f"the reversal has maximal word {format_word(self._w_out(h))}: "
                    f"below the good word, held already or not good {self._where(g)}"
                )
            held[h] = g, reversal
        if held:
            raise StraighteningFailure(f"an image was never reached {self._where(min(held))}")
        return tuple((g, *done[g]) for g, _ in goods)

    def dual_canonical_weight(self, nu: Weight) -> tuple[DualCanonicalVector, ...]:
        """All dual canonical vectors of one weight, ascending by good word."""
        return tuple(
            DualCanonicalVector(self._good_out(g, self._factors_i(g)), self._elt_out(elt))
            for g, elt, _ in self._dual_canonical_weight_i(self._nu_in(tuple(nu)))
        )

    def dual_canonical_vector(self, g: Word) -> DualCanonicalVector:
        """The dual canonical vector indexed by one good word."""
        wi, factors = self._good_i(g)
        good = self._good_out(wi, factors)
        for h, elt, _ in self._dual_canonical_weight_i(cartan.word_weight(self._idatum, wi)):
            if h == wi:
                return DualCanonicalVector(good, self._elt_out(elt))
        raise laurent.TheoryViolation(
            f"no dual canonical vector for good word {good}; every good word indexes one {self._where(wi)}"
        )

    # -- expansion over the dual PBW family ------------------------------------------------

    def _expand_i(self, elt_i: ShuffleElt) -> dict[Word, LaurentPoly]:
        self._enter(elt_i.weight)
        residual = {w: dict(c.terms) for w, c in elt_i.terms.items()}
        out: dict[Word, LaurentPoly] = {}
        while residual:
            w = max(residual)
            try:
                elt = self._dual_pbw_i(w)
            except NotGoodWord:
                raise NotInU(
                    f"maximal word {format_word(self._w_out(w))} of the residual is not good"
                ) from None
            try:
                c = laurent.exact_div(laurent._raw(residual[w]), elt.terms[w])
            except laurent.InexactDivision as exc:
                raise NotInU(f"leading coefficient at {format_word(self._w_out(w))} not divisible") from exc
            out[w] = c
            shuffle._scaled_into(residual, shuffle._maps(elt), (-c).terms)
        return out

    def expand_in_dual_pbw(self, f: ShuffleElt) -> dict[Word, LaurentPoly]:
        """Coefficients of f over the dual PBW vectors, by elimination at the
        maximal word; raises NotInU when the maximal word is not good."""
        return {self._w_out(w): c for w, c in self._expand_i(self._elt_in(f)).items()}

    # -- reality ----------------------------------------------------------------------------

    def _is_real_i(self, elt: ShuffleElt) -> tuple[Word, LaurentPoly] | None:
        """`is_real` on an element in internal coordinates, building nothing at
        the square's weight 2nu: None when elt is real, else the witness (h, c_h),
        the first good word h of 2nu below the top, from top down, whose
        coefficient c_h in the dual PBW expansion of q^{-k} times the square
        lies outside q Z[q].  The maximal word g of elt fixes the square's top
        word: the good word whose Lyndon factors are g's with every
        multiplicity doubled, with coefficient q^k kappa_top.  With N = (nu, nu),
        v * u = q^{-N} bar(u * v) for words u, v of weight nu, bar acting on
        the coefficients only, so q^{N/2} times the square of elt, whose
        coefficients are bar-symmetric, is bar-symmetric too, and k = -N/2.
        The unit squares to itself and is real.  The square lies in U, where an
        element is fixed by its coefficients at the good words of its weight,
        and by uniqueness an element with bar-symmetric coefficients in
        E*_top + sum q Z[q] E*_h is the dual canonical vector at top.  So the
        check solves the dual PBW expansion of q^{-k} times the square on its
        coefficients at the good words of 2nu, from top down, dividing by each
        row's kappa_h at h and subtracting the row.  It enters nu, whose
        reality workspace holds the good words of 2nu, descending, and each
        row: E*_h at the good words <= h, extracted once per weight from the
        product of the scope's vectors E*_{l^a} of h's factor groups.  A good
        word above top in the square, a top coefficient other than q^k
        kappa_top or a row whose kappa_h is not `_kappa_i` of h's factors
        breaks the theory and raises."""
        self._enter(elt.weight)
        if self._reality_workspace is None:
            self._reality_workspace = self._good_words_i(cartan.add(elt.weight, elt.weight))[::-1], {}
        goods, rows = self._reality_workspace
        g = shuffle.max_word(elt)
        factors = self._factors_i(g)
        if factors is None:
            raise laurent.TheoryViolation(f"maximal word is not good {self._where(g)}")
        if not factors:  # the unit squares to itself
            return None
        top = tuple(x for l, a in factors for _ in range(2 * a) for x in l)
        k = -(cartan.bilinear_form(self._idatum, elt.weight, elt.weight) // 2)
        square = shuffle.product_coefficients((elt, elt), (h for h, _ in goods))
        above = [h for h in square if h > top]
        if above:
            raise laurent.TheoryViolation(f"square has a good word above its top {self._where(top, max(above))}")
        residual = {h: {e - k: x for e, x in c.items()} for h, c in square.items()}
        for i, (h, h_factors) in enumerate(goods):
            if h != top and not residual.get(h):
                continue
            row = rows.get(h)
            if row is None:
                row = shuffle.product_coefficients(self._group_vectors(h_factors), (p for p, _ in goods[i:]))
                if row.get(h) != self._kappa_i(h_factors).terms:
                    raise StraighteningFailure(f"dual PBW vector has wrong leading term {self._where(h)}")
                rows[h] = row
            if h == top and residual.get(h) != row[h]:
                raise laurent.TheoryViolation(f"top coefficient of the square is not q^{k} kappa {self._where(top)}")
            try:
                c = laurent.exact_div(laurent._raw(residual[h]), laurent._raw(row[h]))
            except laurent.InexactDivision as exc:
                raise laurent.InexactDivision(f"{exc} {self._where(top, h)}") from exc
            if h != top and c.valuation() < 1:  # at top c is 1 by the guard above
                return h, c
            shuffle._scaled_into(residual, row.items(), (-c).terms)
        return None


def _grouped(lyndons: Sequence[Word]) -> tuple[tuple[Word, int], ...]:
    """Runs of equal words in a non-increasing Lyndon factorization, with multiplicities."""
    return tuple((l, len(list(run))) for l, run in groupby(lyndons))


def _moved(sigma: Sequence[int], nu: Weight) -> Weight:
    """The weight of sigma(w) for the words w of weight nu, under the letter
    map sigma = (0, s(1), ..., s(r))."""
    out = [0] * len(nu)
    for i, c in enumerate(nu, start=1):
        out[sigma[i] - 1] = c
    return tuple(out)


def _moved_elt(sigma: Sequence[int], datum: CartanDatum, e: ShuffleElt) -> ShuffleElt:
    """sigma applied to every letter of e, each coefficient kept, over datum."""
    terms = {tuple(map(sigma.__getitem__, w)): c for w, c in e.terms.items()}
    return shuffle._raw_elt(datum, _moved(sigma, e.weight), terms)


# -- reality and whole-range scans ----------------------------------------------------
# The checks read the internal vectors of the weight scope, where the table's
# order is the natural tuple order, and translate only the words they report.


def is_real(table: GoodLyndonTable, vec: DualCanonicalVector) -> bool:
    """True when the shuffle square of vec is a power of q times another
    dual canonical vector.  vec must be a dual canonical vector of this
    table, so that its square lies in U."""
    return table._is_real_i(table._elt_in(vec.elt)) is None


class WeightEntry(Record, fields="weight vectors violations elapsed"):
    __slots__ = ()


class ScanReport(Record, fields="entries elapsed"):
    __slots__ = ()

    @property
    def total_vectors(self) -> int:
        return sum(e.vectors for e in self.entries)

    @property
    def total_violations(self) -> int:
        return sum(len(e.violations) for e in self.entries)


# Each check takes the vectors of one weight from `scan`, which builds them
# once, with the scan's one map of verdicts by origin: whether the origin is
# real for the reality check, whether it lies in U for the invariants check.
# The first vector of each origin, the origin itself, writes its verdict and
# every other vector reads it.  The reversal and the diagram automorphisms
# keep both, so an image's verdict is its origin's.
if TYPE_CHECKING:
    Vectors = Sequence[tuple[Word, ShuffleElt, Word]]


def _positivity_violations(table: GoodLyndonTable, vectors: Vectors, verdicts: dict[Word, bool]) -> list[dict]:
    """Every negative coefficient of the dual canonical vectors of one weight."""
    return [
        {"good_word": list(table._w_out(g)), "word": list(table._w_out(w)), "coefficient": elt.terms[w].to_json()}
        for g, elt, _ in vectors
        for w in sorted((w for w, c in elt.terms.items() if min(c.terms.values()) < 0), key=table._w_out)
    ]


def _reality_violations(table: GoodLyndonTable, vectors: Vectors, verdicts: dict[Word, bool]) -> list[dict]:
    """The imaginary vectors of one weight.  The reversal tau and the
    diagram automorphisms sigma map the dual canonical basis onto itself and
    respect squares, tau(b)^2 = tau(b^2) and sigma(b)^2 = sigma(b^2), so an
    image is real exactly when its origin is.  `table._is_real_i` decides
    the first vector of each origin, which in scan order is the origin
    itself, into the scan-wide `verdicts`, and every other vector reads its
    verdict there."""
    out = []
    for g, elt, origin in vectors:
        if origin not in verdicts:
            verdicts[origin] = table._is_real_i(elt) is None
        if not verdicts[origin]:
            out.append({"good_word": list(table._w_out(g)), "kind": "imaginary"})
    return out


def _invariant_violations(table: GoodLyndonTable, vectors: Vectors, verdicts: dict[Word, bool]) -> list[dict]:
    """The records of one weight's vectors outside U, each with its Serre
    witness in the table's letters, and of expansion coefficients over the
    dual PBW family off the diagonal and outside q Z[q]: construction raises
    on everything else a dual canonical vector must satisfy.

    sigma maps the Serre relation at (i, j, z, t) to the one at (sigma i,
    sigma j, sigma z, sigma t), and tau to the one at (i, j, tau t, tau z),
    as [m choose k] = [m choose m-k], so an image is in U exactly when its
    origin is.  Every vector is expanded first, as the expansion depends on
    the order, and an expansion proves membership.  `serre_membership` runs
    on an origin, whose verdict is that it found no witness, on a vector
    with no expansion and on an image of an origin outside U.  A vector it
    finds outside U is reported with its own witness; one in U with no
    expansion or with its origin outside U raises a located violation."""
    out = []
    for g, elt, origin in vectors:
        record = {"good_word": list(table._w_out(g))}
        try:
            expansion, failure = table._expand_i(elt), None
        except NotInU as exc:
            expansion, failure = None, exc
        if origin not in verdicts or expansion is None or not verdicts[origin]:
            witness = shuffle.serre_membership(elt)
            verdicts.setdefault(origin, witness is None)
            if witness is not None:
                # an element outside U has no expansion over the dual PBW family
                out.append({**record, "kind": "not-in-subalgebra", "witness": str(table._witness_out(witness))})
                continue
            if expansion is None or not verdicts[origin]:
                if g == origin:  # its own verdict, stored above, is that it lies in U
                    broken = f"{format_word(table._w_out(g))} lies in U, but has no dual PBW expansion: {failure}"
                else:
                    broken = "has no dual PBW expansion" if verdicts[origin] else "lies in U, but its origin does not"
                    broken = f"image of {format_word(table._w_out(origin))} {broken}"
                raise laurent.TheoryViolation(f"{broken} {table._where(g)}") from failure
        for h, c in expansion.items():
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
    """Run one check over every nonzero weight of height at most max_height:
    the report holds one entry per weight, in scan order, and the time.

    The diagram automorphisms of the internal datum split the weights into
    orbits.  Only the first weight of each orbit, in scan order, is
    straightened; its vectors are held until every later member has taken
    their images as its own (`_dual_canonical_weight_i` with `images`).
    Each image carries its source's origin, a good word of the orbit's first
    weight, and words of different weights differ, so one map of verdicts
    by origin serves the whole scan: reality for the reality check,
    membership in U for the invariants check, both kept by every image.
    Every weight runs the check on its own vectors with that map."""
    if check not in _SCAN_CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {sorted(_SCAN_CHECKS)}")
    run = _SCAN_CHECKS[check]
    sigmas = [(0, *s) for s in cartan.automorphisms(table._idatum)]
    # a later member -> its map and the source's vectors
    sources: dict[Weight, tuple[tuple[int, ...], Vectors]] = {}
    verdicts: dict[Word, bool] = {}
    entries = []
    t0 = time.perf_counter()
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        w0 = time.perf_counter()
        nui = table._nu_in(nu)
        source = sources.pop(nui, None)
        if source is None:
            vectors = table._dual_canonical_weight_i(nui)
            for sigma in sigmas:
                if (mui := _moved(sigma, nui)) != nui:
                    sources.setdefault(mui, (sigma, vectors))
        else:
            sigma, first = source
            images = [(origin, _moved_elt(sigma, table._idatum, elt)) for _, elt, origin in first]
            vectors = table._dual_canonical_weight_i(nui, images)
        violations = tuple(run(table, vectors, verdicts))
        entries.append(WeightEntry(nu, len(vectors), violations, time.perf_counter() - w0))
    return ScanReport(tuple(entries), time.perf_counter() - t0)
