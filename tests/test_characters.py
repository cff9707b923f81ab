from math import factorial

import pytest

import tableaux_oracle
from oracles import (
    Segment,
    good_word_to_multisegment,
    multi_segment,
    multisegment_to_good_word,
    standard_module_character,
)
from qshuffle import cartan, shuffle
from qshuffle.characters import (
    ShapeConstraintViolated,
    ShiftedSkewShape,
    SkewShape,
    parse_shape,
    shifted_tableau_character,
    skew_tableau_character,
    standard_tableaux,
)
from qshuffle.laurent import ONE


def hook_count(lam):
    """Hook length formula; independent count oracle for straight shapes."""
    n = sum(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in lam[i + 1 :] if below > j)
            prod *= arm + leg + 1
    return factorial(n) // prod


def shifted_count(lam):
    """Closed product formula for standard shifted tableaux of a strict partition."""
    n = sum(lam)
    out = factorial(n)
    for part in lam:
        out //= factorial(part)
    num, den = 1, 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j]
            den *= lam[i] + lam[j]
    return out * num // den


# -- segments -------------------------------------------------------------------


def test_segment_validation():
    assert Segment(1, 3).word() == (1, 2, 3)
    with pytest.raises(ValueError):
        Segment(3, 2)
    with pytest.raises(ValueError):
        Segment(0, 1)


def test_multi_segment_sorting():
    m = multi_segment([(2, 3), (1, 2), (1, 1)])
    assert [str(s) for s in m] == ["[1,1]", "[1,2]", "[2,3]"]


def test_multisegment_to_good_word():
    assert multisegment_to_good_word(multi_segment([(1, 2), (2, 3)])) == (2, 3, 1, 2)
    assert multisegment_to_good_word(multi_segment([(2, 4)])) == (2, 3, 4)


def test_good_word_multisegment_roundtrip(tables):
    t = tables("A3")
    for nu in cartan.weights_up_to_height(3, 6):
        for g in t.good_words_of_weight(nu):
            m = good_word_to_multisegment(g.word)
            assert multisegment_to_good_word(m) == g.word


def test_standard_module_character_examples():
    assert standard_module_character(multi_segment([(1, 1), (2, 2)])) == {
        (1, 2): 1,
        (2, 1): 1,
    }
    assert standard_module_character(multi_segment([(2, 4)])) == {(2, 3, 4): 1}


def test_standard_module_character_matches_q1_specialization(tables):
    t = tables("A2")
    for nu in cartan.weights_up_to_height(2, 4):
        for g in t.good_words_of_weight(nu):
            m = good_word_to_multisegment(g.word)
            expected = standard_module_character(m)
            assert shuffle.specialize_q1(t.dual_pbw(g).elt) == expected


# -- tableaux -------------------------------------------------------------------


def test_standard_tableaux_counts_match_hook_formula():
    for lam in [(3,), (2, 1), (3, 2), (2, 2, 1), (4, 1), (3, 3, 1)]:
        assert len(list(standard_tableaux(SkewShape(lam)))) == hook_count(lam)


def test_shifted_tableaux_counts_match_product_formula():
    for lam in [(2,), (2, 1), (3, 1), (3, 2), (4, 2, 1), (3, 2, 1)]:
        assert len(list(standard_tableaux(ShiftedSkewShape(lam)))) == shifted_count(lam)


@pytest.mark.parametrize(
    "shape",
    [
        SkewShape((5, 5, 3), (3, 1)),
        SkewShape((5, 4, 3, 2)),
        SkewShape((4, 3, 1), (2, 1)),
        SkewShape((1,)),
        ShiftedSkewShape((6, 4, 2)),
        ShiftedSkewShape((5, 3, 2), (2,)),
        ShiftedSkewShape((4, 3, 2, 1), (3, 1)),
    ],
)
def test_standard_tableaux_equal_the_backtracking_enumeration(shape):
    assert list(standard_tableaux(shape)) == list(tableaux_oracle.standard_tableaux(shape))


def test_skew_character_small_golden(tables):
    t = tables("A3")
    char = skew_tableau_character(t.datum, SkewShape((2, 1)), 2)
    assert char.good_word == (2, 3, 1)
    assert char.element.terms == {(2, 3, 1): ONE, (2, 1, 3): ONE}
    assert char.element == t.dual_canonical_vector(char.good_word).elt


def test_skew_character_single_row(tables):
    t = tables("A4")
    char = skew_tableau_character(t.datum, SkewShape((3,)), 1)
    assert char.good_word == (1, 2, 3)
    assert char.element.terms == {(1, 2, 3): ONE}


def test_skew_figure_word_reproduced():
    a7 = cartan.build("A", 7)
    char = skew_tableau_character(a7, SkewShape((5, 5, 3), (3, 1)), 3)
    assert char.element.terms.get((3, 4, 6, 1, 7, 5, 2, 3, 6)) == ONE
    assert char.good_word == (6, 7, 3, 4, 5, 6, 1, 2, 3)


def test_shifted_figure_word_reproduced():
    b5 = cartan.build("B", 5)
    char = shifted_tableau_character(b5, ShiftedSkewShape((5, 3, 2)))
    assert char.element.terms.get((1, 2, 3, 1, 2, 4, 1, 3, 2, 5)) == ONE
    assert char.good_word == (1, 2, 3, 4, 5, 1, 2, 3, 1, 2)


def test_shifted_character_goldens(tables):
    t = tables("B2")
    char = shifted_tableau_character(t.datum, ShiftedSkewShape((2, 1)))
    assert char.good_word == (1, 2, 1)
    assert char.element.terms == {(1, 2, 1): ONE}
    assert char.element == t.dual_canonical_vector(char.good_word).elt

    single = shifted_tableau_character(t.datum, ShiftedSkewShape((2,)))
    assert single.good_word == (1, 2)
    assert single.element.terms == {(1, 2): ONE}


def test_shifted_skew_character_matches_basis(tables):
    t = tables("B3")
    char = shifted_tableau_character(t.datum, ShiftedSkewShape((3, 1), (1,)))
    assert char.good_word == (2, 3, 1)
    assert char.element == t.dual_canonical_vector(char.good_word).elt


def test_first_letter_deletion_steps_down_skew_shapes():
    # erasing the left-end cell of a row is first-letter deletion on the sum
    b3 = cartan.parse("B3")
    bigger = shifted_tableau_character(b3, ShiftedSkewShape((3, 1), (1,)))
    smaller = shifted_tableau_character(b3, ShiftedSkewShape((3, 1), (2,)))
    assert shuffle.e_prime_dag(bigger.element, 2) == smaller.element
    assert shuffle.e_prime_dag(bigger.element, 3).is_zero()


def test_character_words_have_uniform_weight_and_multiplicity_one():
    a7 = cartan.build("A", 7)
    char = skew_tableau_character(a7, SkewShape((5, 5, 3), (3, 1)), 3)
    nu = cartan.word_weight(a7, char.good_word)
    for w, c in char.element.terms.items():
        assert cartan.word_weight(a7, w) == nu
        assert c == ONE
    assert char.tableau_count == len(list(standard_tableaux(SkewShape((5, 5, 3), (3, 1)))))


def test_shape_constraints():
    with pytest.raises(ShapeConstraintViolated):
        SkewShape((1, 2))  # not a partition
    with pytest.raises(ShapeConstraintViolated):
        SkewShape((2, 1), (3,))  # inner sticks out
    with pytest.raises(ShapeConstraintViolated):
        ShiftedSkewShape((2, 2))  # not strict
    a3 = cartan.parse("A3")
    with pytest.raises(ShapeConstraintViolated):
        skew_tableau_character(a3, SkewShape((2, 1)), 5)  # shift too large
    with pytest.raises(ShapeConstraintViolated):
        skew_tableau_character(a3, SkewShape((2, 1)), 1)  # shift below the row count
    with pytest.raises(ShapeConstraintViolated):
        skew_tableau_character(a3, SkewShape((4, 4)), 2)  # too wide for the rank
    with pytest.raises(ShapeConstraintViolated):
        skew_tableau_character(a3, SkewShape(()), 1)  # empty outer shape
    b2 = cartan.parse("B2")
    with pytest.raises(ShapeConstraintViolated):
        shifted_tableau_character(b2, ShiftedSkewShape((3, 1)))  # first part exceeds rank
    with pytest.raises(ShapeConstraintViolated):
        shifted_tableau_character(b2, ShiftedSkewShape((2, 1), (2, 1)))  # empty
    with pytest.raises(ShapeConstraintViolated):
        shifted_tableau_character(b2, ShiftedSkewShape(()))  # empty outer shape
    with pytest.raises(ShapeConstraintViolated):
        skew_tableau_character(cartan.parse("B3"), SkewShape((2,)), 1)  # wrong family


def test_parse_shape():
    assert parse_shape("5,5,3/3,1") == ((5, 5, 3), (3, 1))
    assert parse_shape("2,1/0") == ((2, 1), ())
    assert parse_shape("2,1") == ((2, 1), ())
    with pytest.raises(ValueError):
        parse_shape("/2")
