from itertools import product

import pytest

from oracles import commutation_class, standard_factorization
from qshuffle import cartan, words
from qshuffle.laurent import TheoryViolation
from qshuffle.words import (
    EmptyWord,
    NotLyndon,
    TooShort,
    costandard_factorization,
    format_word,
    is_lyndon,
    lyndon_factorization,
)


def all_words(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from product(alphabet, repeat=n)


def greedy_factorization(w):
    """Independent oracle: repeatedly strip the longest Lyndon prefix."""
    out = []
    while w:
        for k in range(len(w), 0, -1):
            if is_lyndon(w[:k]):
                out.append(w[:k])
                w = w[k:]
                break
    return out


def test_lex_compare_examples():
    # words are tuples, and tuple order is the lexicographic order
    assert (1,) < (1, 1)  # proper prefix is smaller
    assert (1, 1, 2) < (1, 2)
    assert (2,) > (1, 9, 9)
    assert (1, 2) == (1, 2)


def test_is_lyndon_examples():
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((1, 2, 1))
    assert is_lyndon((1, 1, 2, 1, 2))
    assert not is_lyndon((1, 1))
    assert is_lyndon((2,))
    with pytest.raises(EmptyWord):
        is_lyndon(())


def test_inductive_characterization_exhaustive():
    # Lyndon iff a letter, or some split u v with both halves Lyndon and u < v.
    for w in all_words((1, 2, 3), 8):
        splits = any(
            is_lyndon(w[:k]) and is_lyndon(w[k:]) and w[:k] < w[k:] for k in range(1, len(w))
        )
        assert is_lyndon(w) == (len(w) == 1 or splits)


def test_lyndon_factorization_examples():
    assert lyndon_factorization((2, 1, 2, 1, 1)) == [(2,), (1, 2), (1,), (1,)]
    assert lyndon_factorization((1, 2)) == [(1, 2)]
    assert lyndon_factorization((2, 1)) == [(2,), (1,)]
    assert lyndon_factorization(()) == []


def test_lyndon_factorization_against_greedy_oracle():
    for w in all_words((1, 2, 3), 7):
        factors = lyndon_factorization(w)
        assert factors == greedy_factorization(w)
        assert tuple(a for f in factors for a in f) == w
        assert all(is_lyndon(f) for f in factors)
        assert all(x >= y for x, y in zip(factors, factors[1:]))


def test_costandard_factorization_examples():
    assert costandard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
    assert costandard_factorization((1, 2)) == ((1,), (2,))
    assert costandard_factorization((1, 1, 2)) == ((1,), (1, 2))


def test_standard_factorization_examples():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))


def test_factorization_errors():
    for fn in (standard_factorization, costandard_factorization):
        with pytest.raises(TooShort):
            fn((1,))
        with pytest.raises(NotLyndon):
            fn((2, 1))


def test_factorization_without_a_lyndon_half_is_an_internal_error(monkeypatch):
    # only the whole word passes the Lyndon test, so neither split finds a
    # half; correct code never gets here, and the failure must not be an assert
    monkeypatch.setattr(words, "is_lyndon", lambda w: w == (1, 2))
    for fn in (standard_factorization, costandard_factorization):
        with pytest.raises(TheoryViolation, match="w\\[1,2\\]"):
            fn((1, 2))


def test_both_factorizations_give_increasing_lyndon_halves():
    for w in all_words((1, 2, 3), 8):
        if len(w) < 2 or not is_lyndon(w):
            continue
        for fn in (standard_factorization, costandard_factorization):
            l1, l2 = fn(w)
            assert l1 + l2 == w
            assert is_lyndon(l1) and is_lyndon(l2)
            assert l1 < l2


def test_costandard_second_factor_structure():
    # the right factor is (l1)^k f x with f a left factor of l1 and f x > l1
    for w in all_words((1, 2, 3), 8):
        if len(w) < 2 or not is_lyndon(w):
            continue
        l1, l2 = costandard_factorization(w)
        rest = l2
        k = 0
        while rest[: len(l1)] == l1:
            rest = rest[len(l1) :]
            k += 1
        assert rest, (w, l1, l2)
        f, x = rest[:-1], rest[-1:]
        assert l1[: len(f)] == f
        assert f + x > l1


def test_commutation_class_examples():
    a3 = cartan.parse("A3")
    assert commutation_class((1, 3), a3) == {(1, 3), (3, 1)}
    a2 = cartan.parse("A2")
    assert commutation_class((1, 2), a2) == {(1, 2)}
    d4 = cartan.parse("D4")
    # letters 1, 2 commute; 3 blocks nothing between itself and 4
    assert commutation_class((1, 3, 2), d4) == {(1, 3, 2)}
    assert commutation_class((1, 2, 3), d4) == {(1, 2, 3), (2, 1, 3)}


def test_commutation_classes_partition_a_weight_space():
    d4 = cartan.parse("D4")
    weight_words = [w for w in all_words((1, 2, 3, 4), 4) if cartan.word_weight(d4, w) == (1, 1, 1, 1)]
    seen = set()
    classes = []
    for w in weight_words:
        if w in seen:
            continue
        cls = commutation_class(w, d4)
        assert all(commutation_class(v, d4) == cls for v in cls)
        classes.append(cls)
        seen |= cls
    assert sorted(seen) == sorted(weight_words)
    total = sum(len(c) for c in classes)
    assert total == len(weight_words)


def test_format_word():
    assert format_word((1, 1, 2)) == "w[1,1,2]"
    assert format_word(()) == "w[]"
