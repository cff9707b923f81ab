"""Reference closure of the positive roots.

This is the α-string closure that `cartan.positive_roots` replaced: from each
root β it walks down the α_i-string through β to its length p, and adds
β + α_i when p − ⟨β, α_i^∨⟩ > 0, where the library closes the simple roots
under the simple reflections.  It is kept only so tests can require the two
to give the same roots in the same order.
"""

from __future__ import annotations

from qshuffle import cartan


def positive_roots(datum):
    """All positive roots, by root-string closure, sorted by (height, coeffs)."""
    r = datum.rank
    a = datum.cartan
    simples = [cartan.simple_root(datum, i) for i in range(1, r + 1)]
    roots = set(simples)
    current = list(simples)
    while current:
        nxt = []
        for beta in current:
            for i in range(1, r + 1):
                alpha = simples[i - 1]
                if beta == alpha:
                    continue
                # Walk down the alpha_i-string through beta.
                p = 0
                g = cartan.sub(beta, alpha)
                while all(x >= 0 for x in g) and g in roots:
                    p += 1
                    g = cartan.sub(g, alpha)
                pairing = sum(beta[j] * a[i - 1][j] for j in range(r))
                if p - pairing > 0:
                    up = cartan.add(beta, alpha)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        current = nxt
    return tuple(sorted(roots, key=lambda w: (cartan.height(w), w)))
