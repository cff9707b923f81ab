"""The dual PBW route of `basis` against the power-and-shift route of
`pbw_oracle`: every factor group l^a is a good word whose memoised vector
is q^{C(a, 2) d_l} E*_l^a, and every dual PBW vector, the plain product of
its groups' vectors, equals the oracle's normalized product of powers."""

import pytest

from pbw_oracle import Oracle
from qshuffle import basis, cartan

RANGES = [("B2", 6), ("G2", 7), ("C3", 5), ("D4", 5), ("F4", 4)]


def _raw(elt):
    return {w: c.terms for w, c in elt.terms.items()}


def _weights(table, max_height):
    """Each internal weight with its good words, their dual PBW vectors
    built in the weight's scope."""
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        nui = table._nu_in(nu)
        table._enter(nui)
        goods = table._good_words_i(nui)
        yield goods, [table._dual_pbw_i(g, factors) for g, factors in goods]


@pytest.mark.parametrize("label, max_height", RANGES)
def test_every_factor_group_vector_is_the_normalized_power(label, max_height):
    table = basis.GoodLyndonTable(cartan.parse(label))
    oracle = Oracle(table)
    seen = set()
    for _ in _weights(table, max_height):
        for w, elt in table._pbw_memo.items():
            factors = table._factors_i(w)
            if len(factors) == 1 and w not in seen:
                seen.add(w)
                ((l, a),) = factors
                assert _raw(elt) == _raw(oracle.group(l, a)) and elt.terms[w] == oracle.kappa(factors), w
    # every group reached, powers of two and more among them
    assert max(len(w) // len(table._factors_i(w)[0][0]) for w in seen) >= 3


@pytest.mark.parametrize("label, max_height", RANGES)
def test_every_dual_pbw_vector_is_the_oracle_product(label, max_height):
    table = basis.GoodLyndonTable(cartan.parse(label))
    oracle = Oracle(table)
    for goods, vectors in _weights(table, max_height):
        for (g, factors), elt in zip(goods, vectors):
            expected, expected_kappa = oracle.dual_pbw(factors)
            assert _raw(elt) == _raw(expected) and elt.terms[g] == expected_kappa, g


@pytest.mark.parametrize("good", [(1, 2), (1, 2, 1, 2)])
def test_a_dual_root_vector_off_its_stored_kappa_fails_the_guard(good):
    # kappa_l lives in the root record only; a guard that read it off E*_l
    # would accept E*_l scaled away from it, alone or in a factor group
    table = basis.GoodLyndonTable(cartan.parse("A2"))
    r, root, kappa, d = table._root_i((1, 2))
    table._roots[(1, 2)] = (r, root.scaled(2), kappa, d)
    with pytest.raises(basis.StraighteningFailure, match="dual PBW vector has wrong leading term"):
        table.dual_pbw(good)
