"""The twisted shuffle algebra on words: homogeneous elements with Laurent
polynomial coefficients, the q-shuffle product, concatenation, letter-deletion
operators, the reversal / bar / composite twists, and the linear-relation
membership test for the subalgebra generated by the letters.

`_scaled_into` is the one loop that accumulates into elements, each word's
map through `laurent._mul_add`; `_maps` and `_from_maps` convert between an
element and its raw word -> exponent maps.
"""

from __future__ import annotations

from . import cartan, laurent
from .cartan import CartanDatum, Record, Weight
from .laurent import ONE, ZERO, LaurentPoly
from .words import Word, format_word

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Iterable, Iterator, Mapping, Sequence


class DatumMismatch(ValueError):
    """Operands live over different Cartan data."""


class ZeroElement(ValueError):
    """The operation needs a nonzero element."""


class HomogeneityError(ValueError):
    """Words of different weights were mixed in one element."""


class ShuffleElt:
    """A homogeneous element: a weight plus a sparse map word -> coefficient.

    Immutable by convention.  Every stored word has the element's weight and
    no stored coefficient is zero; the zero element is the empty map (its
    weight tag may lie outside the nonnegative cone, e.g. after deletions).
    """

    __slots__ = ("datum", "weight", "terms")

    def __init__(self, datum: CartanDatum, weight: Weight, terms: Mapping[Word, LaurentPoly] | None = None):
        if len(weight) != datum.rank:
            raise HomogeneityError("weight length must equal the rank")
        clean: dict[Word, LaurentPoly] = {}
        for w, c in (terms or {}).items():
            if not isinstance(c, LaurentPoly):
                raise TypeError(f"coefficient of {format_word(w)} must be a LaurentPoly")
            if not c:
                continue
            if cartan.word_weight(datum, w) != weight:
                raise HomogeneityError(f"word {format_word(w)} does not have weight {weight}")
            clean[w] = c
        self.datum = datum
        self.weight = tuple(weight)
        self.terms = clean

    @classmethod
    def from_word(cls, datum: CartanDatum, w: Word, coefficient: LaurentPoly = ONE) -> ShuffleElt:
        return cls(datum, cartan.word_weight(datum, w), {tuple(w): coefficient})

    @classmethod
    def zero(cls, datum: CartanDatum, weight: Weight) -> ShuffleElt:
        return cls(datum, weight, {})

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShuffleElt):
            return NotImplemented
        if self.datum != other.datum or self.terms != other.terms:
            return False
        # Zero elements compare equal across weight tags; nonzero ones share
        # the weight automatically through their words.
        return True

    def __hash__(self) -> int:
        return hash((self.datum, frozenset(self.terms.items())))

    def __add__(self, other: ShuffleElt) -> ShuffleElt:
        self._check_peer(other, same_weight=True)
        weight = self.weight if self.terms or not other.terms else other.weight
        acc = {w: dict(p) for w, p in _maps(self)}
        _scaled_into(acc, _maps(other), {0: 1})
        return _from_maps(self.datum, weight, acc)

    def __sub__(self, other: ShuffleElt) -> ShuffleElt:
        return self + (-other)

    def __neg__(self) -> ShuffleElt:
        return _raw_elt(self.datum, self.weight, {w: -c for w, c in self.terms.items()})

    def scaled(self, c: LaurentPoly | int) -> ShuffleElt:
        if isinstance(c, int):
            c = LaurentPoly({0: c})
        if c == ONE:
            return self
        acc: dict[Word, dict[int, int]] = {}
        _scaled_into(acc, _maps(self), c.terms)
        return _from_maps(self.datum, self.weight, acc)

    def _check_peer(self, other: ShuffleElt, same_weight: bool = False) -> None:
        if self.datum != other.datum:
            raise DatumMismatch("operands live over different Cartan data")
        if same_weight and self.terms and other.terms and self.weight != other.weight:
            raise HomogeneityError(f"cannot mix weights {self.weight} and {other.weight}")

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for w in sorted(self.terms, reverse=True):
            c = self.terms[w]
            if c == ONE:
                lines.append(format_word(w))
            elif c.is_monomial():
                lines.append(f"{c} * {format_word(w)}")
            else:
                lines.append(f"({c}) * {format_word(w)}")
        return " + ".join(lines)

    def __repr__(self) -> str:
        return f"ShuffleElt({self.datum}, {str(self)!r})"

    def to_json(self) -> dict:
        return {
            "weight": list(self.weight),
            "terms": [
                {"word": list(w), "coef": self.terms[w].to_json()}
                for w in sorted(self.terms, reverse=True)
            ],
        }

    @classmethod
    def from_json(cls, datum: CartanDatum, data: Mapping) -> ShuffleElt:
        terms = {
            tuple(entry["word"]): LaurentPoly.from_json(entry["coef"])
            for entry in data["terms"]
        }
        return cls(datum, tuple(data["weight"]), terms)


def _raw_elt(datum: CartanDatum, weight: Weight, terms: dict[Word, LaurentPoly]) -> ShuffleElt:
    e = ShuffleElt.__new__(ShuffleElt)
    e.datum = datum
    e.weight = weight
    e.terms = terms
    return e


def _maps(f: ShuffleElt) -> Iterator[tuple[Word, dict[int, int]]]:
    """The words of f with their raw exponent maps, which are f's own: read only."""
    return ((w, c.terms) for w, c in f.terms.items())


def _from_maps(datum: CartanDatum, weight: Weight, acc: dict[Word, dict[int, int]]) -> ShuffleElt:
    """The element of a normalized raw {word: {exponent: coeff}} map, whose maps it takes over."""
    return _raw_elt(datum, weight, {w: laurent._raw(d) for w, d in acc.items()})


# -- the q-shuffle product -----------------------------------------------------

# Word-pair shuffles are memoized as raw {word: {exponent: coeff}} maps; cached
# values are shared and must never be mutated.  They are hash-consed: each
# distinct word and each distinct map (keyed by its items in insertion order,
# so reads iterate it as built) is held once, in intern tables that live as
# long as the memo.
_CACHE: dict[tuple[CartanDatum, Word, Word], dict[Word, dict[int, int]]] = {}
_WORDS: dict[Word, Word] = {}
_MAPS: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}


def _scaled_into(
    acc: dict[Word, dict[int, int]], product: Iterable[tuple[Word, dict[int, int]]], scale: dict[int, int]
) -> None:
    """acc += scale * product on raw {word: {exponent: coeff}} maps.

    Words that cancel are deleted.  A word that acc does not hold yet gets a
    fresh map, so no map of product is shared into acc.
    """
    for w, p in product:
        d = acc.setdefault(w, {})
        laurent._mul_add(d, scale, p)
        if not d:
            del acc[w]


def _shuffle_words(datum: CartanDatum, w1: Word, w2: Word) -> dict[Word, dict[int, int]]:
    """The product of two single words: peel the last letter of either factor,
    twisting the second branch by q^{-(|w1|, last of w2)}."""
    if not w1:
        return {w2: {0: 1}}
    if not w2:
        return {w1: {0: 1}}
    key = (datum, w1, w2)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    a, b = w1[-1], w2[-1]
    bil = datum.bilinear
    # the first branch's words are distinct, so its maps are copied whole
    out = {u + (a,): dict(p) for u, p in _shuffle_words(datum, w1[:-1], w2).items()}
    shift = -sum(bil[x - 1][b - 1] for x in w1)
    _scaled_into(out, ((u + (b,), p) for u, p in _shuffle_words(datum, w1, w2[:-1]).items()), {shift: 1})
    out = {_WORDS.setdefault(u, u): _MAPS.setdefault(tuple(p.items()), p) for u, p in out.items()}
    _CACHE[key] = out
    return out


def qshuffle(f: ShuffleElt, g: ShuffleElt) -> ShuffleElt:
    """The bilinear q-shuffle product: the sum over word pairs of the product
    of their coefficients times the shuffle of the two words."""
    f._check_peer(g)
    datum = f.datum
    acc: dict[Word, dict[int, int]] = {}
    for wf, cf in f.terms.items():
        for wg, cg in g.terms.items():
            scale: dict[int, int] = {}
            laurent._mul_add(scale, cf.terms, cg.terms)
            _scaled_into(acc, _shuffle_words(datum, wf, wg).items(), scale)
    return _from_maps(datum, cartan.add(f.weight, g.weight), acc)


def product_coefficients(factors: Sequence[ShuffleElt], targets: Iterable[Word]) -> dict[Word, dict[int, int]]:
    """The nonzero coefficients of F1 * ... * Fk at the target words, as raw
    exponent maps, without building the product.

    The coefficient at w sums over the ways to deal the letters of w out to
    the factors so that each receives a word of its support: the product of
    those words' coefficients and of q^{-(alpha_x, alpha_y)} for each letter
    x dealt to an earlier factor than a letter y to its right.  One pass
    reads w from left to right; a state is the prefix each factor has
    received, as a node of the trie of its support, and dealing y to factor
    b twists by q^{-(|prefix_a|, alpha_y)} for every a < b.  A factor whose
    word is complete has its coefficient multiplied in and moves to its one
    done node, so equal states merge.  Sorted targets share the states of
    their common prefixes.

    Every Laurent value of the pass is packed at q = 2^W (`laurent._pack`):
    a twist moves only its exponent, completing a factor is one integer
    multiply and merging two states one shift and add; only the final
    coefficients are unpacked.  W is fixed before the pass so that every
    coefficient of every state lies below 2^(W-1) in absolute value.  With
    n the longest target, a state after m <= n letters sums over at most
    k^m dealings, each contributing q^t times one product of at most one
    coefficient polynomial per factor, so each of its coefficients is at most
    bound = k^n * prod_f max_w ||c_f(w)||_1 in absolute value, ||.||_1
    being the sum of the absolute values of the coefficients; W is
    bound.bit_length() + 1.
    """
    if not factors or any(() in f.terms for f in factors):
        raise ValueError("a product needs factors, none of weight zero")
    words = sorted(set(map(tuple, targets)))
    bound = len(factors) ** max(map(len, words), default=0)
    for f in factors:
        f._check_peer(factors[0])
        bound *= max((sum(map(abs, c.terms.values())) for c in f.terms.values()), default=0)
    width = bound.bit_length() + 1
    tries = {i: _support_trie(f, width) for i, f in {id(f): f for f in factors}.items()}
    steps = [tries[id(f)][0] for f in factors]
    pairings = [tries[id(f)][1] for f in factors]
    levels = [{(0,) * len(factors): (1, 0)}]
    done = (-1,) * len(factors)
    out: dict[Word, dict[int, int]] = {}
    prev: Word = ()
    for w in words:
        n = 0
        while n < min(len(w), len(prev)) and w[n] == prev[n]:
            n += 1
        del levels[n + 1 :]
        prev = w
        for y in w[n:]:
            nxt: dict[tuple[int, ...], tuple[int, int]] = {}
            for state, (value, low) in levels[-1].items():
                for b, node in enumerate(state):
                    hit = steps[b][node].get(y) if node >= 0 else None
                    if hit is not None:
                        child, packed = hit
                        v, e = (value, low) if packed is None else (value * packed[0], low + packed[1])
                        key = state[:b] + (child,) + state[b + 1 :]
                        old = nxt.get(key)
                        if old is not None:
                            u, d = old
                            if d < e:
                                v, e = u + (v << width * (e - d)), d
                            else:
                                v += u << width * (d - e)
                        nxt[key] = v, e
                    low -= pairings[b][node][y]
            levels.append({s: ve for s, ve in nxt.items() if ve[0]})
        final = levels[-1].get(done)
        if final is not None:
            out[w] = laurent._unpack(*final, width)
    return out


def _support_trie(f: ShuffleElt, width: int) -> tuple[list[dict], list[list[int]]]:
    """The support of f as a trie whose last node, -1, is done.
    `steps[node][y]` is (child, None), or (-1, coefficient packed at
    q = 2^width) when the letter y completes a word of f;
    `pairing[node][y]` is (|prefix|, alpha_y)."""
    rows = [[]] + [[0, *row] for row in f.datum.bilinear]  # rows[x][y] = (alpha_x, alpha_y)
    nodes: dict[Word, int] = {(): 0}
    steps: list[dict] = [{}]
    pairing = [[0] * len(rows)]
    for w, c in f.terms.items():
        node = 0
        for n, y in enumerate(w[:-1], start=1):
            child = nodes.get(w[:n])
            if child is None:
                child = nodes[w[:n]] = len(steps)
                steps[node][y] = (child, None)
                steps.append({})
                pairing.append([p + r for p, r in zip(pairing[node], rows[y])])
            node = child
        steps[node][w[-1]] = (-1, laurent._pack(c.terms, width))
    pairing.append([0] + [sum(m * row[y] for m, row in zip(f.weight, rows[1:])) for y in range(1, len(rows))])
    return steps, pairing


def concat(f: ShuffleElt, g: ShuffleElt) -> ShuffleElt:
    """Coefficient-wise bilinear concatenation; the words of f have one length."""
    f._check_peer(g)
    terms = {wf + wg: cf * cg for wf, cf in f.terms.items() for wg, cg in g.terms.items()}
    return _raw_elt(f.datum, cartan.add(f.weight, g.weight), terms)


def prepend_letter(i: int, f: ShuffleElt) -> ShuffleElt:
    alpha = cartan.simple_root(f.datum, i)
    return _raw_elt(
        f.datum,
        cartan.add(alpha, f.weight),
        {(i,) + w: c for w, c in f.terms.items()},
    )


def shuffle_bracket(f: ShuffleElt, g: ShuffleElt) -> ShuffleElt:
    """f * g - q^{(|f|,|g|)} g * f."""
    f._check_peer(g)
    e = cartan.bilinear_form(f.datum, f.weight, g.weight)
    return qshuffle(f, g) - qshuffle(g, f).scaled(laurent.monomial(e))


# -- deletion operators and twists ----------------------------------------------


def e_prime(f: ShuffleElt, i: int) -> ShuffleElt:
    """Linear extension of last-letter deletion (delete a trailing i)."""
    alpha = cartan.simple_root(f.datum, i)
    terms = {w[:-1]: c for w, c in f.terms.items() if w and w[-1] == i}
    return _raw_elt(f.datum, cartan.sub(f.weight, alpha), terms)


def e_prime_dag(f: ShuffleElt, i: int) -> ShuffleElt:
    """Linear extension of first-letter deletion (delete a leading i)."""
    alpha = cartan.simple_root(f.datum, i)
    terms = {w[1:]: c for w, c in f.terms.items() if w and w[0] == i}
    return _raw_elt(f.datum, cartan.sub(f.weight, alpha), terms)


def tau(f: ShuffleElt) -> ShuffleElt:
    """Word reversal, a bijection on words; an anti-automorphism of the shuffle product."""
    return _raw_elt(f.datum, f.weight, {w[::-1]: c for w, c in f.terms.items()})


def sigma(f: ShuffleElt) -> ShuffleElt:
    """bar composed with reversal: words kept, each coefficient c mapped to
    bar(c) * q^{-N(nu)} for the weight nu of f.

    The twist of a word w is q^{-sum_{s<t}(alpha_{w_s}, alpha_{w_t})}.  The
    form is symmetric, so that sum is half of sum_{s != t}, which is
    ((nu,nu) - sum_i c_i (alpha_i,alpha_i)) / 2 = N(nu) (`cartan.n_of`) for
    every word of weight nu; one exponent serves the whole element."""
    n = cartan.n_of(f.datum, f.weight)
    return _raw_elt(f.datum, f.weight, {w: c.bar().shifted(-n) for w, c in f.terms.items()})


def bar_elt(f: ShuffleElt) -> ShuffleElt:
    """q -> q^{-1} on coefficients, each word reversed and twisted by
    q^{-sum_{s<t}(alpha_{w_s}, alpha_{w_t})}, which is q^{-N(nu)} for every
    word of weight nu (see `sigma`): the reversal of sigma(f)."""
    return tau(sigma(f))


# -- queries ---------------------------------------------------------------------


def max_word(f: ShuffleElt) -> Word:
    if not f.terms:
        raise ZeroElement("the zero element has no maximal word")
    return max(f.terms)


def coefficient(f: ShuffleElt, w: Word) -> LaurentPoly:
    return f.terms.get(tuple(w), ZERO)


def specialize_q1(f: ShuffleElt) -> dict[Word, int]:
    """Evaluate every coefficient at q = 1, dropping zeros."""
    out = {w: c.at_one() for w, c in f.terms.items()}
    return {w: v for w, v in out.items() if v}


# -- membership in the letter-generated subalgebra --------------------------------


class MembershipWitness(Record, fields="i j left right total"):
    """One failing linear relation: the context (i, j, z, t) and its value."""

    __slots__ = ()

    def __str__(self) -> str:
        return (
            f"relation i={self.i} j={self.j} z={format_word(self.left)} "
            f"t={format_word(self.right)} sums to {self.total}"
        )


_SERRE_WEIGHTS: dict[tuple[int, int], tuple[dict[int, int], ...]] = {}


def _serre_weights(m: int, d: int) -> tuple[dict[int, int], ...]:
    """(-1)^k [m choose k]_d as raw exponent maps, k = 0..m; shared and never mutated."""
    if (m, d) not in _SERRE_WEIGHTS:
        _SERRE_WEIGHTS[m, d] = tuple(
            {e: -x if k % 2 else x for e, x in laurent.q_binom(m, k, d).terms.items()} for k in range(m + 1)
        )
    return _SERRE_WEIGHTS[m, d]


def serre_membership(f: ShuffleElt) -> MembershipWitness | None:
    """Test membership in the subalgebra generated by the letters: None when
    f lies in it, else the first failing relation, in sorted context order.

    For every pair i != j, with m = 1 - a_ij, and every context (z, t), the
    alternating sum of coefficients of z i^k j i^{m-k} t, weighted by
    [m choose k]_i, must vanish.  Contexts are harvested from the support, so
    absent words contribute zero.

    The harvest reads run lengths.  Since m >= 1, a word z i^k j i^{m-k} t
    has an i next to its j, so a position p holding j only needs the letters
    i != j beside it.  With L and R the runs of i ending just left of p and
    starting just right of it, both capped at m, the contexts through p are
    exactly those with k in range(m - R, L + 1).
    """
    datum = f.datum
    a = datum.cartan
    contexts: set[tuple[int, int, Word, Word]] = set()
    for w in f.terms:
        n = len(w)
        for p, j in enumerate(w):
            left = w[p - 1] if p else j
            right = w[p + 1] if p + 1 < n else j
            for i in {left, right}:
                if i == j:
                    continue
                m = 1 - a[i - 1][j - 1]
                left_run = 0
                while left_run < m and left_run < p and w[p - 1 - left_run] == i:
                    left_run += 1
                right_run = 0
                while right_run < m and p + 1 + right_run < n and w[p + 1 + right_run] == i:
                    right_run += 1
                for k in range(m - right_run, left_run + 1):
                    contexts.add((i, j, w[: p - k], w[p + 1 + m - k :]))
    for i, j, z, t in sorted(contexts):
        m = 1 - a[i - 1][j - 1]
        total: dict[int, int] = {}
        for k, weight in enumerate(_serre_weights(m, datum.d[i - 1])):
            c = f.terms.get(z + (i,) * k + (j,) + (i,) * (m - k) + t)
            if c is not None:
                laurent._mul_add(total, weight, c.terms)
        if total:
            return MembershipWitness(i, j, z, t, laurent._raw(total))
    return None
