"""Reference enumeration of standard tableaux.

This is the backtracking that `characters.standard_tableaux` replaced: one
list of placed cells and one set of filled cells, shared by every level and
restored by push and pop, where the library recurses over the frozen set of
empty cells.  It is kept only so tests can require the two to give the same
fillings in the same order.
"""

from __future__ import annotations


def standard_tableaux(shape):
    """All standard fillings, each as the cell sequence in numbering order."""
    cells = set(shape.cells())
    placed = []
    filled = set()

    def addable():
        empty = cells - filled
        return sorted((i, j) for i, j in empty if (i, j - 1) not in empty and (i - 1, j) not in empty)

    def descend():
        if len(placed) == len(cells):
            yield tuple(placed)
            return
        for cell in addable():
            placed.append(cell)
            filled.add(cell)
            yield from descend()
            placed.pop()
            filled.remove(cell)

    return descend()
