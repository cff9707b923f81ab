"""Reference for `basis.scan`: every weight straightened on its own table
scope, with no diagram automorphism used, and reality and membership in U
decided on every vector itself, by `GoodLyndonTable._is_real_i` and
`shuffle.serre_membership`, with no verdict carried from another vector;
every vector in U is expanded by `_expand_i`, and a Serre witness is written
in the table's letters.  The scan's records must equal these weight by
weight."""

from qshuffle import basis, cartan, shuffle
from qshuffle.words import format_word


def _witness(table, witness):
    """The failing relation written in the table's letters, internal letter k
    being order[k-1]."""
    i, j, z, t, total = witness
    out = (0, *table.order)
    z, t = (format_word(tuple(out[a] for a in w)) for w in (z, t))
    return f"relation i={out[i]} j={out[j]} z={z} t={t} sums to {total}"


def _invariants(table, vectors):
    out = []
    for g, elt, *_ in vectors:
        record = {"good_word": list(table._w_out(g))}
        witness = shuffle.serre_membership(elt)
        if witness is not None:
            out.append({**record, "kind": "not-in-subalgebra", "witness": _witness(table, witness)})
            continue
        out.extend(
            {**record, "kind": "expansion-off-diagonal", "at": list(table._w_out(h)), "value": str(c)}
            for h, c in table._expand_i(elt).items()
            if h != g and c.valuation() < 1
        )
    return out


def _violations(table, vectors, check):
    if check == "invariants":
        return tuple(_invariants(table, vectors))
    if check != "reality":
        return tuple(basis._SCAN_CHECKS[check](table, vectors, {}))
    return tuple(
        {"good_word": list(table._w_out(g)), "kind": "imaginary"}
        for g, elt, *_ in vectors
        if table._is_real_i(elt) is not None
    )


def scan_records(table, max_height, check):
    """(weight, vectors, violations) of every weight of height at most max_height."""
    records = []
    for nu in cartan.weights_up_to_height(table.datum.rank, max_height):
        vectors = table._dual_canonical_weight_i(table._nu_in(nu))
        records.append((nu, len(vectors), _violations(table, vectors, check)))
    return records
