"""Reference enumeration of Kostant partitions.

This is the stack enumeration that `cartan.kostant_partitions` replaced: it
compares each root with the remainder coordinate by coordinate and subtracts
it as a tuple, where the library packs each weight into one integer with a
guard bit per coordinate.  It is kept only so tests can require the two to
give the same partitions in the same order.
"""

from __future__ import annotations

from qshuffle import cartan


def kostant_partitions(datum, nu):
    """All multisets of positive roots summing to nu, non-increasing in the
    (height, coefficients) order, in depth-first order."""
    if any(c < 0 for c in nu):
        raise ValueError("weights lie in the nonnegative cone")
    roots = cartan.positive_roots(datum)[::-1]
    out = []
    stack = [(0, tuple(nu), ())]
    while stack:
        start, remaining, acc = stack.pop()
        if not any(remaining):
            out.append(acc)
            continue
        for k in range(len(roots) - 1, start - 1, -1):
            beta = roots[k]
            if all(x <= y for x, y in zip(beta, remaining)):
                stack.append((k, cartan.sub(remaining, beta), acc + (beta,)))
    return tuple(out)
