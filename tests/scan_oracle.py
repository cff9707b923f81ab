"""Reference for `basis.scan`: every weight straightened on its own table
scope, with no diagram automorphism used.  The scan's records must equal
these weight by weight."""

from qshuffle import basis, cartan


def scan_records(table, max_height, check):
    """(weight, vectors, violations) of every weight of height at most max_height."""
    run = basis._SCAN_CHECKS[check]
    records = []
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        vectors = table._dual_canonical_weight_i(table._nu_in(nu))
        records.append((nu, len(vectors), tuple(run(table, vectors))))
    return records
