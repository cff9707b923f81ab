"""Reference version of the linear-relation membership test.

This is the harvest the run-length version in `shuffle.serre_membership`
replaced: every letter pair (i, j) is tried at every position of every word,
every k in 0..m is tested with two slice scans, and each relation is summed
as `LaurentPoly` values.  It is kept only so tests can require the library's
version to find the same contexts, in the same order, and report the same
first failing witness.
"""

from __future__ import annotations

from qshuffle import laurent
from qshuffle.laurent import ZERO
from qshuffle.shuffle import MembershipWitness, ShuffleElt
from qshuffle.words import Word


def serre_membership(f: ShuffleElt) -> MembershipWitness | None:
    datum = f.datum
    a = datum.cartan
    r = datum.rank
    contexts: set[tuple[int, int, Word, Word]] = set()
    for w in f.terms:
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                m = 1 - a[i - 1][j - 1]
                for p, letter in enumerate(w):
                    if letter != j:
                        continue
                    for k in range(m + 1):
                        if p - k < 0 or p + 1 + m - k > len(w):
                            continue
                        if all(x == i for x in w[p - k : p]) and all(
                            x == i for x in w[p + 1 : p + 1 + m - k]
                        ):
                            contexts.add((i, j, w[: p - k], w[p + 1 + m - k :]))
    for i, j, z, t in sorted(contexts):
        m = 1 - a[i - 1][j - 1]
        d = datum.d[i - 1]
        total = ZERO
        for k in range(m + 1):
            wk = z + (i,) * k + (j,) + (i,) * (m - k) + t
            c = f.terms.get(wk)
            if c is None:
                continue
            term = laurent.q_binom(m, k, d) * c
            total = total - term if k % 2 else total + term
        if total:
            return MembershipWitness(i, j, z, t, total)
    return None
