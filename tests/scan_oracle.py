"""Reference for `basis.scan`: every weight straightened on its own table
scope, with no diagram automorphism used, and reality decided on every
vector by `basis._is_real_i`, with no verdict carried from another vector.
The scan's records must equal these weight by weight."""

from qshuffle import basis, cartan


def _violations(table, vectors, check):
    if check != "reality":
        return tuple(basis._SCAN_CHECKS[check](table, vectors, {}))
    return tuple(
        {"good_word": list(table._w_out(g)), "kind": "imaginary"}
        for g, elt, *_ in vectors
        if basis._is_real_i(table, elt) is not None
    )


def scan_records(table, max_height, check):
    """(weight, vectors, violations) of every weight of height at most max_height."""
    records = []
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        vectors = table._dual_canonical_weight_i(table._nu_in(nu))
        records.append((nu, len(vectors), _violations(table, vectors, check)))
    return records
