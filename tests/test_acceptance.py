"""Acceptance suite: each test covers one release criterion, asserts exact
values (symbolic arithmetic admits no tolerance), and prints one line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines)."""

import random
import time
from itertools import product

from oracles import closed_form_root_vector, commutation_class_root_vector
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import is_real
from qshuffle.characters import (
    ShiftedSkewShape,
    SkewShape,
    shifted_tableau_character,
    skew_tableau_character,
)
from qshuffle.laurent import ONE, LaurentPoly, monomial, q_binom, q_int
from qshuffle.shuffle import ShuffleElt, qshuffle, serre_membership

TWO1 = q_int(2, 1)
THREE1 = q_int(3, 1)
TWO2 = q_int(2, 2)
TWO3 = q_int(2, 3)


def report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def terms_of(table, g):
    return table.dual_canonical_vector(g).elt.terms


def test_c01_g2_golden(tables):
    t0 = time.perf_counter()
    t = tables("G2")
    assert t.lyndon_words() == ((1,), (1, 1, 1, 2), (1, 1, 2), (1, 1, 2, 1, 2), (1, 2), (2,))
    assert t.dual_root_vector((1, 1, 1, 2)).elt.terms == {(1, 1, 1, 2): TWO1 * THREE1}
    assert t.dual_root_vector((1, 1, 2)).elt.terms == {(1, 1, 2): TWO1}
    assert t.dual_root_vector((1, 2)).elt.terms == {(1, 2): ONE}
    assert t.dual_root_vector((1, 1, 2, 1, 2)).elt.terms == {
        (1, 1, 2, 1, 2): TWO1 * THREE1,
        (1, 1, 1, 2, 2): TWO1 * THREE1 * TWO3,
    }
    expected = {
        (1, 1, 2, 1, 2): {(1, 1, 2, 1, 2): TWO1 * THREE1, (1, 1, 1, 2, 2): TWO1 * THREE1 * TWO3},
        (1, 2, 1, 1, 2): {(1, 2, 1, 1, 2): TWO1},
        (1, 2, 1, 2, 1): {
            (1, 2, 1, 2, 1): TWO1,
            (1, 1, 2, 1, 2): TWO1,
            (1, 1, 2, 2, 1): TWO1 * TWO3,
        },
        (2, 1, 1, 1, 2): {(2, 1, 1, 1, 2): TWO1 * THREE1},
        (2, 1, 1, 2, 1): {(2, 1, 1, 2, 1): TWO1},
        (2, 1, 2, 1, 1): {
            (2, 1, 2, 1, 1): TWO1,
            (1, 2, 1, 2, 1): TWO1,
            (1, 2, 2, 1, 1): TWO1 * TWO3,
        },
        (2, 2, 1, 1, 1): {
            (2, 2, 1, 1, 1): TWO1 * TWO3 * THREE1,
            (2, 1, 2, 1, 1): TWO1 * THREE1,
        },
    }
    vectors = t.dual_canonical_weight((3, 2))
    assert [v.good_word.word for v in vectors] == sorted(expected)
    for v in vectors:
        assert v.elt.terms == expected[v.good_word.word]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    report(1, f"G2 golden values reproduced in {elapsed:.2f}s (< 1s)")


def test_c02_b3_golden(tables):
    t0 = time.perf_counter()
    t = tables("B3")
    assert terms_of(t, (1, 2)) == {(1, 2): ONE}
    assert terms_of(t, (2, 3)) == {(2, 3): ONE}
    assert terms_of(t, (2, 1)) == {(2, 1): ONE}
    assert terms_of(t, (3, 2)) == {(3, 2): ONE}
    assert terms_of(t, (1, 1, 2)) == {(1, 1, 2): TWO1}
    assert terms_of(t, (1, 2, 1)) == {(1, 2, 1): ONE}
    assert terms_of(t, (2, 1, 1)) == {(2, 1, 1): TWO1}
    assert terms_of(t, (2, 3, 2)) == {(2, 3, 2): ONE, (2, 2, 3): TWO2}
    assert terms_of(t, (3, 2, 2)) == {(3, 2, 2): TWO2, (2, 3, 2): ONE}
    assert terms_of(t, (1, 1, 2, 1)) == {(1, 1, 2, 1): TWO1, (1, 1, 1, 2): THREE1 * TWO1}
    assert terms_of(t, (1, 2, 1, 1)) == {(1, 2, 1, 1): TWO1, (1, 1, 2, 1): TWO1}
    assert terms_of(t, (2, 1, 1, 1)) == {(2, 1, 1, 1): THREE1 * TWO1, (1, 2, 1, 1): TWO1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    report(2, f"B3 golden identities (ten rows, twelve instances) in {elapsed:.2f}s (< 5s)")


def test_c03_b2_prime_images_and_positivity(tables):
    t0 = time.perf_counter()
    t = tables("B2")
    prime_images = {
        (1,): {(1,): ONE},
        (2,): {(2,): ONE},
        (1, 2): {(1, 2): ONE},
        (2, 1): {(2, 1): ONE},
        (1, 1, 2): {(1, 1, 2): TWO1},
        (2, 1, 1): {(2, 1, 1): TWO1},
        (1, 2, 1): {(1, 2, 1): ONE},
        (2, 1, 1, 2): {(2, 1, 1, 2): TWO1},
    }
    for g, terms in prime_images.items():
        assert terms_of(t, g) == terms, g
    rep = basis.scan(t, 6, "positivity")
    assert rep.total_violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    report(3, f"B2 prime images and positivity to height 6 in {elapsed:.2f}s (< 10s)")


def test_c04_a4_root_vectors(tables):
    t = tables("A4")
    expected_gl = sorted(tuple(range(i, j + 1)) for i in range(1, 5) for j in range(i, 5))
    assert list(t.lyndon_words()) == expected_gl
    for l in expected_gl:
        assert terms_of(t, l) == {l: ONE}
    report(4, "A4 root vectors are single interval words")


def test_c05_closed_forms(tables):
    t0 = time.perf_counter()
    for label in ["B3", "C3", "D4"]:
        t = tables(label)
        for beta in cartan.positive_roots(t.datum):
            lhs = closed_form_root_vector(t.datum, beta)
            rhs = t.dual_root_vector(t.lyndon_of_root(beta)).elt
            assert lhs == rhs, (label, beta)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    report(5, f"closed-form root vectors match in B3, C3, D4 in {elapsed:.2f}s (< 30s)")


def test_c06_commutation_class_root_vectors(tables):
    for label in ["A4", "D4"]:
        t = tables(label)
        for l in t.lyndon_words():
            vec = t.dual_root_vector(l)
            assert vec.kappa == ONE, (label, l)
            class_sum = commutation_class_root_vector(t, l)
            assert vec.elt == class_sum, (label, l)
            assert all(c == ONE for c in class_sum.terms.values())
    report(6, "A4 and D4 root vectors are commutation-class sums with unit coefficients")


SCAN_RANGES = [("A3", 8), ("B3", 6), ("G2", 6)]


def test_c07_leading_word_scan(tables):
    t0 = time.perf_counter()
    vectors = 0
    for label, bound in SCAN_RANGES:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            parts = cartan.kostant_partitions(t.datum, nu)
            vecs = t.dual_canonical_weight(nu)
            assert len(vecs) == len(parts)
            for vec in vecs:
                g = vec.good_word.word
                assert shuffle.max_word(vec.elt) == g
                assert vec.elt.terms[g] == vec.kappa == t.kappa(g)
                assert vec.kappa.is_bar_symmetric()
            vectors += len(vecs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    report(7, f"leading words and kappas verified for {vectors} vectors in {elapsed:.1f}s (< 5min)")


def test_c08_positivity():
    t0 = time.perf_counter()
    for label, bound in [("A3", 8), ("D4", 6)]:
        table = basis.GoodLyndonTable(cartan.parse(label))
        rep = basis.scan(table, bound, "positivity")
        assert rep.total_violations == 0, label
    elapsed = time.perf_counter() - t0
    report(8, f"positivity holds in A3 (height 8) and D4 (height 6) in {elapsed:.1f}s")


def test_c08_conjectured_positivity_report(tables):
    # expected to hold; a failure here discredits the report, not the build
    outcomes = []
    for label, bound in [("B3", 6), ("C3", 6), ("G2", 6)]:
        rep = basis.scan(tables(label), bound, "positivity")
        outcomes.append((label, rep.total_vectors, rep.total_violations))
    for label, vectors, violations in outcomes:
        assert violations == 0, (label, violations)
    text = ", ".join(f"{label}: 0/{vectors}" for label, vectors, _ in outcomes)
    report(8, f"conjectured positivity report (violations/vectors) {text}")


def test_c09_structural_characterization(tables):
    t0 = time.perf_counter()
    checked = 0
    for label, bound in SCAN_RANGES:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            for vec in t.dual_canonical_weight(nu):
                g = vec.good_word.word
                assert all(c.is_bar_symmetric() for c in vec.elt.terms.values()), g
                assert serre_membership(vec.elt) is None, g
                expansion = t.expand_in_dual_pbw(vec.elt)
                assert expansion.pop(g) == ONE, g
                for h, c in expansion.items():
                    assert h < g, (g, h)
                    assert c.valuation() >= 1, (g, h, c)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(9, f"expansion and membership characterization for {checked} vectors in {elapsed:.1f}s")


def _a4_skew_shapes():
    lams = []
    for j in range(1, 5):
        for lam in product(range(1, 5), repeat=j):
            if all(a >= b for a, b in zip(lam, lam[1:])) and lam[0] + j <= 5:
                lams.append(lam)
    for lam in lams:
        for mu_full in product(*[range(0, part + 1) for part in lam]):
            if any(a < b for a, b in zip(mu_full, mu_full[1:])):
                continue  # inner shape must be a partition
            mu = tuple(x for x in mu_full if x)
            size = sum(lam) - sum(mu)
            if 1 <= size <= 6:
                yield lam, mu


def _b3_shifted_shapes():
    strict = [(1,), (2,), (3,), (2, 1), (3, 1), (3, 2), (3, 2, 1)]
    for lam in strict:
        inners = [()] + [m for m in strict if len(m) <= len(lam)]
        for mu in inners:
            if any(m > l for m, l in zip(mu, lam)):
                continue
            size = sum(lam) - sum(mu)
            if 1 <= size <= 6:
                yield lam, mu


def test_c10_character_oracles(tables):
    t0 = time.perf_counter()
    a4 = tables("A4")
    skew_checked = 0
    for lam, mu in _a4_skew_shapes():
        shape = SkewShape(lam, mu)
        for s in range(len(lam), 1 - lam[0] + 4 + 1):
            char = skew_tableau_character(a4.datum, shape, s)
            assert char.element == a4.dual_canonical_vector(char.good_word).elt, (lam, mu, s)
            skew_checked += 1
    b3 = tables("B3")
    shifted_checked = 0
    for lam, mu in _b3_shifted_shapes():
        shape = ShiftedSkewShape(lam, mu)
        char = shifted_tableau_character(b3.datum, shape)
        assert char.element == b3.dual_canonical_vector(char.good_word).elt, (lam, mu)
        shifted_checked += 1
    assert skew_checked > 0 and shifted_checked > 0

    a7 = cartan.build("A", 7)
    fig1 = skew_tableau_character(a7, SkewShape((5, 5, 3), (3, 1)), 3)
    assert fig1.element.terms.get((3, 4, 6, 1, 7, 5, 2, 3, 6)) == ONE
    b5 = cartan.build("B", 5)
    fig2 = shifted_tableau_character(b5, ShiftedSkewShape((5, 3, 2)))
    assert fig2.element.terms.get((1, 2, 3, 1, 2, 4, 1, 3, 2, 5)) == ONE
    elapsed = time.perf_counter() - t0
    report(
        10,
        f"{skew_checked} skew and {shifted_checked} shifted character sums match in {elapsed:.1f}s",
    )


def _random_homogeneous(rng, datum, max_len=3, max_terms=3):
    base = tuple(rng.randint(1, datum.rank) for _ in range(rng.randint(1, max_len)))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = list(base)
        rng.shuffle(w)
        coef = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
        if coef:
            terms[tuple(w)] = coef
    return ShuffleElt(datum, cartan.word_weight(datum, base), terms)


def test_c11_algebra_properties():
    data = [cartan.parse(s) for s in ("A2", "A3", "B2", "B3", "C3", "D4", "G2")]
    rng = random.Random(2024)
    small = data[:3] + [data[-1]]

    for _ in range(200):  # associativity
        datum = rng.choice(small)
        f, g, h = (_random_homogeneous(rng, datum) for _ in range(3))
        assert qshuffle(qshuffle(f, g), h) == qshuffle(f, qshuffle(g, h))

    serre_pairs = 0  # the defining linear relation, every pair of every datum
    for datum in data:
        for i in range(1, datum.rank + 1):
            for j in range(1, datum.rank + 1):
                if i == j:
                    continue
                m = 1 - datum.cartan[i - 1][j - 1]
                d = datum.d[i - 1]
                wi = ShuffleElt.from_word(datum, (i,))
                total = ShuffleElt.zero(datum, cartan.word_weight(datum, (i,) * m + (j,)))
                for k in range(m + 1):
                    term = ShuffleElt.from_word(datum, (j,))
                    for _ in range(k):
                        term = qshuffle(wi, term)
                    for _ in range(m - k):
                        term = qshuffle(term, wi)
                    term = term.scaled(q_binom(m, k, d))
                    total = total - term if k % 2 else total + term
                assert total.is_zero(), (datum.family, i, j)
                serre_pairs += 1
    for _ in range(200):  # and the coefficient form on random letter products
        datum = rng.choice(small)
        letters = [rng.randint(1, datum.rank) for _ in range(rng.randint(2, 5))]
        f = ShuffleElt.from_word(datum, (letters[0],))
        for a in letters[1:]:
            f = qshuffle(f, ShuffleElt.from_word(datum, (a,)))
        assert serre_membership(f) is None

    from qshuffle.shuffle import bar_elt, e_prime, sigma, tau

    for _ in range(200):  # reversal and conjugation laws
        datum = rng.choice(small)
        f, g = _random_homogeneous(rng, datum), _random_homogeneous(rng, datum)
        assert tau(qshuffle(f, g)) == qshuffle(tau(g), tau(f))
        assert bar_elt(qshuffle(f, g)) == qshuffle(bar_elt(f), bar_elt(g))

    for _ in range(200):  # derivation rule for last-letter deletion
        datum = rng.choice(small)
        f, g = _random_homogeneous(rng, datum), _random_homogeneous(rng, datum)
        i = rng.randint(1, datum.rank)
        shift = monomial(-cartan.bilinear_form(datum, cartan.simple_root(datum, i), f.weight))
        assert e_prime(qshuffle(f, g), i) == qshuffle(e_prime(f, i), g) + qshuffle(
            f, e_prime(g, i)
        ).scaled(shift)

    for _ in range(200):  # twist eigenvalue iff bar-symmetric coefficients
        datum = rng.choice(small)
        f = _random_homogeneous(rng, datum)
        if f.is_zero():
            continue
        n = cartan.n_of(datum, f.weight)
        symmetric = all(c.is_bar_symmetric() for c in f.terms.values())
        assert (sigma(f) == f.scaled(monomial(-n))) == symmetric

    report(11, f"algebra properties: 5 randomized families x 200 cases, {serre_pairs} letter pairs")


def test_c12_reality(tables):
    t0 = time.perf_counter()
    checked = 0
    for label, bound in [("A2", 4), ("A3", 4), ("B2", 3)]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            for vec in t.dual_canonical_weight(nu):
                assert is_real(t, vec), (label, vec.good_word.word)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, elapsed
    report(12, f"all {checked} vectors real in A2/A3 (height 4) and B2 (height 3), {elapsed:.1f}s (< 5min)")
