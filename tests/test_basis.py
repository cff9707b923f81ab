import pytest

from oracles import (
    NotSimplyLaced,
    UnsupportedFamily,
    closed_form_root_vector,
    commutation_class,
    commutation_class_root_vector,
)
from qshuffle import basis, cartan, laurent, shuffle, words
from qshuffle.basis import NotGoodLyndon, NotGoodWord, NotInU, is_real
from qshuffle.laurent import ONE, LaurentPoly, monomial, q_int
from qshuffle.shuffle import ShuffleElt, max_word, qshuffle, serre_membership

TWO1 = q_int(2, 1)
THREE1 = q_int(3, 1)
TWO2 = q_int(2, 2)
TWO3 = q_int(2, 3)


def elt(table, mapping):
    datum = table.datum
    some_word = next(iter(mapping))
    return ShuffleElt(datum, cartan.word_weight(datum, some_word), mapping)


def segments(i, j):
    return tuple(range(i, j + 1))


# -- good Lyndon words ---------------------------------------------------------


def test_gl_a3(tables):
    t = tables("A3")
    assert t.lyndon_words() == ((1,), (1, 2), (1, 2, 3), (2,), (2, 3), (3,))


def test_gl_a4_interval_pattern(tables):
    t = tables("A4")
    expected = sorted(segments(i, j) for i in range(1, 5) for j in range(i, 5))
    assert list(t.lyndon_words()) == expected


def test_gl_g2(tables):
    t = tables("G2")
    assert t.lyndon_words() == (
        (1,),
        (1, 1, 1, 2),
        (1, 1, 2),
        (1, 1, 2, 1, 2),
        (1, 2),
        (2,),
    )


def test_gl_b3_doubled_pattern(tables):
    t = tables("B3")
    expected = {segments(i, j) for i in range(1, 4) for j in range(i, 4)}
    expected |= {segments(1, j) + segments(1, k) for j in range(1, 4) for k in range(j + 1, 4)}
    assert set(t.lyndon_words()) == expected


def test_gl_c3_pattern(tables):
    t = tables("C3")
    expected = {segments(i, j) for i in range(1, 4) for j in range(i, 4)}
    expected |= {segments(1, k) + segments(2, j) for j in range(2, 4) for k in range(j, 4)}
    assert set(t.lyndon_words()) == expected


def test_gl_d4_pattern(tables):
    t = tables("D4")
    expected = {(1,)} | {(1,) + segments(3, i) for i in range(3, 5)}
    expected |= {segments(i, j) for i in range(2, 5) for j in range(i, 5)}
    expected |= {(1,) + segments(3, k) + segments(2, j) for j in range(2, 5) for k in range(j + 1, 5)}
    assert set(t.lyndon_words()) == expected


def test_gl_e8_highest_root_word(tables):
    t = tables("E8")
    highest = max(cartan.positive_roots(t.datum), key=cartan.height)
    assert t.lyndon_of_root(highest) == (
        1, 3, 4, 5, 6, 7, 8, 2, 4, 5, 6, 3, 4, 5, 2, 4, 3,
        1, 3, 4, 5, 6, 7, 8, 2, 4, 5, 6, 7,
    )


def test_bijection_roundtrip(tables):
    for label in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        t = tables(label)
        roots = cartan.positive_roots(t.datum)
        assert len(t.lyndon_words()) == len(roots)
        for beta in roots:
            l = t.lyndon_of_root(beta)
            assert words.is_lyndon(l)
            assert cartan.word_weight(t.datum, l) == beta
            assert t.root_of_lyndon(l) == beta


def test_convex_order(tables):
    # any root sits strictly between two roots summing to it
    for label in ["A3", "B3", "C3", "D4", "G2"]:
        t = tables(label)
        roots = set(cartan.positive_roots(t.datum))
        key = {beta: t.lyndon_of_root(beta) for beta in roots}
        for b1 in roots:
            for b2 in roots:
                b = cartan.add(b1, b2)
                if b1 >= b2 or b not in roots:
                    continue
                lo, hi = sorted((key[b1], key[b2]))
                assert lo < key[b] < hi, (label, b1, b2)


def test_concatenation_bound(tables):
    # l(b1) < l(b2) forces l(b1) l(b2) <= l(b1 + b2)
    for label in ["A3", "B3", "G2", "D4"]:
        t = tables(label)
        roots = set(cartan.positive_roots(t.datum))
        for b1 in roots:
            for b2 in roots:
                b = cartan.add(b1, b2)
                if b not in roots:
                    continue
                l1, l2 = t.lyndon_of_root(b1), t.lyndon_of_root(b2)
                if l1 < l2:
                    assert l1 + l2 <= t.lyndon_of_root(b)


def test_lyndon_word_is_smallest_good_word_of_its_root(tables):
    for label in ["A3", "B3", "G2"]:
        t = tables(label)
        for beta in cartan.positive_roots(t.datum):
            goods = t.good_words_of_weight(beta)
            assert goods[0].word == t.lyndon_of_root(beta)


# -- good words -----------------------------------------------------------------


def test_good_words_examples(tables):
    t = tables("A2")
    assert [g.word for g in t.good_words_of_weight((1, 1))] == [(1, 2), (2, 1)]
    tg = tables("G2")
    assert [g.word for g in tg.good_words_of_weight((3, 2))] == [
        (1, 1, 2, 1, 2),
        (1, 2, 1, 1, 2),
        (1, 2, 1, 2, 1),
        (2, 1, 1, 1, 2),
        (2, 1, 1, 2, 1),
        (2, 1, 2, 1, 1),
        (2, 2, 1, 1, 1),
    ]


def test_good_word_count_matches_kostant(tables):
    for label, bound in [("A3", 6), ("B2", 6), ("G2", 6)]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            parts = cartan.kostant_partitions(t.datum, nu)
            assert len(t.good_words_of_weight(nu)) == len(parts)


def test_good_word_factors(tables):
    t = tables("G2")
    g = t.good_word((1, 2, 1, 2, 1))
    assert g.factors == (((1, 2), 2), ((1,), 1))
    assert t.is_good((2, 1, 2))  # factors (2,) >= (1,2), both good Lyndon
    assert t.is_good((1, 2, 1, 1, 2))
    assert not t.is_good((1, 1, 2, 2, 1))  # Lyndon factor (1,1,2,2) is not good
    with pytest.raises(NotGoodWord):
        t.good_word((1, 1, 2, 2, 1))


def test_every_factor_of_a_good_word_is_good(tables):
    for label in ["A3", "B2", "G2"]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, 6):
            for g in t.good_words_of_weight(nu):
                w = g.word
                for a in range(len(w)):
                    for b in range(a + 1, len(w) + 1):
                        assert t.is_good(w[a:b]), (label, w, w[a:b])


# -- Lyndon basis and dual PBW vectors ----------------------------------------------


def test_r_vectors_max_word(tables):
    for label in ["A3", "B3", "G2"]:
        t = tables(label)
        for l in t.lyndon_words():
            assert max_word(t.r_of_lyndon(l)) == l


def test_r_bracket_recursion_g2(tables):
    t = tables("G2")
    lhs = t.r_of_lyndon((1, 1, 2, 1, 2))
    rhs = shuffle.shuffle_bracket(t.r_of_lyndon((1, 1, 2)), t.r_of_lyndon((1, 2)))
    assert lhs == rhs


def test_dual_root_vectors_g2(tables):
    t = tables("G2")
    v = t.dual_root_vector((1, 2))
    assert v.elt == elt(t, {(1, 2): ONE}) and v.kappa == ONE
    v = t.dual_root_vector((1, 1, 2))
    assert v.elt == elt(t, {(1, 1, 2): TWO1}) and v.kappa == TWO1
    v = t.dual_root_vector((1, 1, 1, 2))
    assert v.elt == elt(t, {(1, 1, 1, 2): TWO1 * THREE1}) and v.kappa == TWO1 * THREE1
    v = t.dual_root_vector((1, 1, 2, 1, 2))
    assert v.elt == elt(
        t, {(1, 1, 2, 1, 2): TWO1 * THREE1, (1, 1, 1, 2, 2): TWO1 * THREE1 * TWO3}
    )
    assert v.kappa == TWO1 * THREE1


def test_dual_root_vectors_a4(tables):
    t = tables("A4")
    for l in t.lyndon_words():
        v = t.dual_root_vector(l)
        assert v.elt == elt(t, {l: ONE})
        assert v.kappa == ONE


def test_dual_pbw_g2_products(tables):
    t = tables("G2")
    v = t.dual_pbw((1, 2, 1, 1, 2))
    assert v.elt == elt(
        t,
        {
            (1, 2, 1, 1, 2): TWO1,
            (1, 1, 2, 1, 2): TWO1 * THREE1 * monomial(1),
            (1, 1, 1, 2, 2): TWO1 * THREE1 * TWO3 * monomial(1),
        },
    )
    assert v.kappa == TWO1
    v = t.dual_pbw((1, 2, 1, 2, 1))
    assert v.elt == elt(
        t,
        {
            (1, 2, 1, 2, 1): TWO1,
            (1, 2, 1, 1, 2): TWO1 * TWO1 * monomial(2),
            (1, 1, 2, 2, 1): TWO1 * TWO3,
            (1, 1, 2, 1, 2): TWO1 + TWO1 * THREE1 * monomial(4),
            (1, 1, 1, 2, 2): TWO1 * TWO3 * THREE1 * monomial(4),
        },
    )
    assert v.kappa == TWO1


def test_dual_pbw_single_factor_agrees_with_root_vector(tables):
    for label in ["B3", "G2"]:
        t = tables(label)
        for l in t.lyndon_words():
            assert t.dual_pbw(l).elt == t.dual_root_vector(l).elt


def test_dual_pbw_leading_terms(tables):
    for label in ["B2", "G2"]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, 5):
            for g in t.good_words_of_weight(nu):
                vec = t.dual_pbw(g)
                assert max_word(vec.elt) == g.word
                assert vec.elt.terms[g.word] == vec.kappa == t.kappa(g)


def test_kappa_product_rule(tables):
    t = tables("G2")
    assert t.kappa((1, 2, 1, 2, 1)) == TWO1  # kappa(12)^2 [2]! * kappa(1) [1]!
    assert t.kappa((2, 2, 1, 1, 1)) == TWO3 * TWO1 * THREE1
    tb = tables("B2")
    assert tb.kappa((1, 1)) == TWO1
    assert tb.kappa((2, 2)) == TWO2


# -- dual canonical basis ----------------------------------------------------------


def test_dual_canonical_g2_top_weight(tables):
    t = tables("G2")
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
        assert v.elt.terms == expected[v.good_word.word], v.good_word.word


def test_dual_canonical_b3_examples(tables):
    t = tables("B3")
    expected = {
        (1, 2): {(1, 2): ONE},
        (2, 3): {(2, 3): ONE},
        (2, 1): {(2, 1): ONE},
        (3, 2): {(3, 2): ONE},
        (1, 1, 2): {(1, 1, 2): TWO1},
        (1, 2, 1): {(1, 2, 1): ONE},
        (2, 1, 1): {(2, 1, 1): TWO1},
        (2, 3, 2): {(2, 3, 2): ONE, (2, 2, 3): TWO2},
        (3, 2, 2): {(3, 2, 2): TWO2, (2, 3, 2): ONE},
        (1, 1, 2, 1): {(1, 1, 2, 1): TWO1, (1, 1, 1, 2): THREE1 * TWO1},
        (1, 2, 1, 1): {(1, 2, 1, 1): TWO1, (1, 1, 2, 1): TWO1},
        (2, 1, 1, 1): {(2, 1, 1, 1): THREE1 * TWO1, (1, 2, 1, 1): TWO1},
    }
    for g, terms in expected.items():
        assert t.dual_canonical_vector(g).elt.terms == terms, g


def test_dual_canonical_b2_prime_images(tables):
    t = tables("B2")
    expected = {
        (1,): {(1,): ONE},
        (2,): {(2,): ONE},
        (1, 2): {(1, 2): ONE},
        (2, 1): {(2, 1): ONE},
        (1, 1, 2): {(1, 1, 2): TWO1},
        (2, 1, 1): {(2, 1, 1): TWO1},
        (1, 2, 1): {(1, 2, 1): ONE},
        (2, 1, 1, 2): {(2, 1, 1, 2): TWO1},
    }
    for g, terms in expected.items():
        assert t.dual_canonical_vector(g).elt.terms == terms, g


def test_dual_canonical_equals_dual_pbw_for_lyndon_words(tables):
    for label in ["A3", "B3", "G2"]:
        t = tables(label)
        for l in t.lyndon_words():
            assert t.dual_canonical_vector(l).elt == t.dual_root_vector(l).elt


def test_dual_canonical_structural_properties(tables):
    for label, bound in [("A3", 5), ("B2", 5), ("G2", 5)]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            for vec in t.dual_canonical_weight(nu):
                g = vec.good_word.word
                assert max_word(vec.elt) == g
                assert vec.elt.terms[g] == vec.kappa == t.kappa(g)
                assert vec.kappa.is_bar_symmetric()
                assert all(c.is_bar_symmetric() for c in vec.elt.terms.values())
                assert serre_membership(vec.elt).ok


# -- expansion over the dual PBW family ---------------------------------------------


def test_expand_dual_pbw_is_delta(tables):
    t = tables("G2")
    for g in t.good_words_of_weight((3, 2)):
        expansion = t.expand_in_dual_pbw(t.dual_pbw(g).elt)
        assert expansion == {g.word: ONE}


def test_expand_dual_canonical_g2_chain(tables):
    # composing the correction chain at weight (3, 2): the expansion of the
    # third vector carries -q^3 - q and q^2 below the diagonal
    t = tables("G2")
    vec = t.dual_canonical_vector((1, 2, 1, 2, 1))
    expansion = t.expand_in_dual_pbw(vec.elt)
    assert expansion == {
        (1, 2, 1, 2, 1): ONE,
        (1, 2, 1, 1, 2): LaurentPoly({3: -1, 1: -1}),
        (1, 1, 2, 1, 2): monomial(2),
    }


def test_expand_unitriangular_in_q_z_q(tables):
    for label, bound in [("A3", 5), ("B3", 4)]:
        t = tables(label)
        for nu in cartan.weights_up_to_height(t.datum.rank, bound):
            for vec in t.dual_canonical_weight(nu):
                g = vec.good_word.word
                expansion = t.expand_in_dual_pbw(vec.elt)
                assert expansion.pop(g) == ONE
                for h, c in expansion.items():
                    assert h < g
                    assert c.valuation() >= 1  # inside q Z[q]


def test_expand_rejects_elements_outside_the_subalgebra(tables):
    t = tables("A2")
    with pytest.raises(NotInU):
        t.expand_in_dual_pbw(ShuffleElt.from_word(t.datum, (1, 1, 2)))


# -- positivity and reality ------------------------------------------------------------


def test_positivity_report_g2(tables):
    t = tables("G2")
    vectors = t._dual_canonical_weight_i((3, 2))
    assert basis._positivity_violations(t, vectors) == []
    assert len(vectors) == 7


def test_positivity_scan_small(tables):
    for label in ["A3", "B2"]:
        rep = basis.scan(tables(label), 4, "positivity")
        assert rep.total_violations == 0


def test_invariant_scan_across_families(tables):
    # exercises the full pipeline on families no golden value touches
    for label in ["F4", "E6", "C4", "B4", "D5"]:
        rep = basis.scan(tables(label), 3, "invariants")
        assert rep.total_violations == 0, label


def test_is_real_single_letters(tables):
    for label in ["A2", "B2", "G2"]:
        t = tables(label)
        for i in range(1, t.datum.rank + 1):
            vec = t.dual_canonical_vector((i,))
            assert is_real(t, vec)


def test_is_real_a2_small(tables):
    t = tables("A2")
    for nu in cartan.weights_up_to_height(2, 4):
        for vec in t.dual_canonical_weight(nu):
            assert is_real(t, vec)


# -- closed forms and commutation classes ------------------------------------------------


def test_closed_form_matches_dual_root_vectors_small(tables):
    for label in ["A3", "B2", "C2", "D4"]:
        t = tables(label)
        for beta in cartan.positive_roots(t.datum):
            assert closed_form_root_vector(t.datum, beta) == t.dual_root_vector(
                t.lyndon_of_root(beta)
            ).elt, (label, beta)


def test_closed_form_b2_doubled_root(tables):
    t = tables("B2")
    f = closed_form_root_vector(t.datum, (2, 1))
    assert f == elt(t, {(1, 1, 2): TWO1})


def test_closed_form_rejects_exceptional_families(tables):
    with pytest.raises(UnsupportedFamily):
        closed_form_root_vector(tables("G2").datum, (1, 1))
    with pytest.raises(ValueError):
        closed_form_root_vector(tables("A3").datum, (2, 0, 0))


def test_commutation_class_root_vectors(tables):
    t = tables("A3")
    assert commutation_class_root_vector(t, (1, 2, 3)) == elt(t, {(1, 2, 3): ONE})
    d4 = tables("D4")
    v = commutation_class_root_vector(d4, (1, 3, 2))
    assert v == ShuffleElt(d4.datum, (1, 1, 1, 0), {(1, 3, 2): ONE})
    full = commutation_class_root_vector(d4, (1, 3, 4, 2))
    assert set(full.terms) == commutation_class((1, 3, 4, 2), d4.datum)
    assert all(c == ONE for c in full.terms.values())


def test_commutation_class_needs_simply_laced(tables):
    with pytest.raises(NotSimplyLaced):
        commutation_class_root_vector(tables("B2"), (1, 2))
    with pytest.raises(NotGoodLyndon):
        commutation_class_root_vector(tables("A3"), (2, 1))


# -- non-default orders -------------------------------------------------------------------


def test_swapped_order_mirrors_a2(tables):
    plain = tables("A2")
    swapped = tables("A2", (2, 1))

    def mirror(terms):
        return {tuple(3 - a for a in w): c for w, c in terms.items()}

    for nu in [(1, 1), (2, 1), (2, 2)]:
        got = {v.good_word.word: dict(v.elt.terms) for v in swapped.dual_canonical_weight(nu)}
        want = {
            tuple(3 - a for a in v.good_word.word): mirror(v.elt.terms)
            for v in plain.dual_canonical_weight((nu[1], nu[0]))
        }
        assert got == want


def test_swapped_order_g2_invariants(tables):
    t = tables("G2", (2, 1))
    assert (2,) in t.lyndon_words() and (1,) in t.lyndon_words()
    rep = basis.scan(t, 5, "invariants")
    assert rep.total_violations == 0


def test_order_validation(tables):
    with pytest.raises(ValueError):
        basis.GoodLyndonTable(cartan.parse("A2"), (1, 1))


def test_zero_weight_yields_the_unit(tables):
    t = tables("A2")
    vectors = t.dual_canonical_weight((0, 0))
    assert len(vectors) == 1
    assert vectors[0].good_word.word == ()
    assert vectors[0].elt == ShuffleElt.from_word(t.datum, ())
    assert t.expand_in_dual_pbw(vectors[0].elt) == {(): ONE}


# -- errors ---------------------------------------------------------------------------------


def test_not_good_lyndon_errors(tables):
    t = tables("A2")
    with pytest.raises(NotGoodLyndon):
        t.r_of_lyndon((1, 1, 2))
    with pytest.raises(NotGoodLyndon):
        t.dual_root_vector((2, 1))
    with pytest.raises(NotGoodLyndon):
        t.lyndon_of_root((2, 2))


def test_good_word_without_a_canonical_vector_is_an_internal_error(monkeypatch):
    t = basis.GoodLyndonTable(cartan.parse("A2"))
    monkeypatch.setattr(t, "_dual_canonical_weight_i", lambda nui: ())
    with pytest.raises(laurent.TheoryViolation, match="no dual canonical vector for good word w\\[1,2\\]"):
        t.dual_canonical_vector((1, 2))
