"""Order independence as a differential oracle.  The dual canonical basis
does not depend on the order of the simple roots: an order changes only the
good words that label it, the dual PBW vectors and every straightening step.
So every order must give, weight by weight, the same set of dual canonical
elements, and the same set of imaginary ones."""

from itertools import permutations

import pytest

from qshuffle import basis, cartan

BASIS_RANGES = [("B2", 6), ("G2", 6), ("A3", 5), ("C3", 4), ("B3", 4), ("D4", 4)]
REALITY_RANGES = [("G2", 5, 4), ("C3", 4, 1)]


def _orders(datum):
    return permutations(range(1, datum.rank + 1))


@pytest.mark.parametrize("label, max_height", BASIS_RANGES)
def test_every_order_gives_the_same_dual_canonical_elements(label, max_height):
    datum = cartan.parse(label)
    weights = list(cartan.weights_up_to_height(datum.rank, max_height))
    natural = basis.GoodLyndonTable(datum)
    expected = [{vec.elt for vec in natural.dual_canonical_weight(nu)} for nu in weights]
    for order in _orders(datum):
        table = basis.GoodLyndonTable(datum, order)
        for nu, elements in zip(weights, expected):
            assert {vec.elt for vec in table.dual_canonical_weight(nu)} == elements, (order, nu)


@pytest.mark.parametrize("label, max_height, imaginary", REALITY_RANGES)
def test_every_order_gives_the_same_imaginary_elements(label, max_height, imaginary):
    datum = cartan.parse(label)
    found = {}
    for order in _orders(datum):
        table = basis.GoodLyndonTable(datum, order)
        found[order] = {
            vec.elt
            for nu in cartan.weights_up_to_height(datum.rank, max_height)
            for vec in table.dual_canonical_weight(nu)
            if not basis.is_real(table, vec)
        }
    natural = found[tuple(range(1, datum.rank + 1))]
    assert len(natural) == imaginary
    assert all(elements == natural for elements in found.values())
