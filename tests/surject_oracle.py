"""The square waypoint consistency check as it was before it was proved
from the piece table: it sampled one parameter-cell midpoint in 257 (and
the last cell) and compared the region `evaluate_waypoint` returns there
with the one `sweep_cell_enclosure` gives for the cell.  And `blocks_cover`,
which left the library because only tests call it.  Tests compare the
certificate against these, verdict for verdict."""

from fractions import Fraction

from primchaos.surject import (
    _complement_cylinders,
    evaluate_waypoint,
    sweep_cell_enclosure,
    sweep_segments,
)


def blocks_cover(blocks) -> bool:
    """Whether the blocks' cylinders cover the Cantor set."""
    return not _complement_cylinders(blocks)


def sampled_cells(cells):
    """The parameter cells the stride sample checked."""
    return sorted({*range(0, cells, 257), cells - 1})


def region_agrees(ws, t, j, depth):
    """Whether `evaluate_waypoint` at t is the region of parameter cell j of
    the first sweep."""
    return evaluate_waypoint(ws, t, depth) == \
        sweep_cell_enclosure(ws, 0, j, depth)


def midpoint(ws, j, depth):
    """The midpoint of parameter cell j of the first sweep."""
    lo, hi = sweep_segments(ws)[0]
    return lo + (hi - lo) * Fraction(4 * j + 2, 4 * 4 ** depth)


def oracle_consistent(ws, depth, cells=None) -> bool:
    """The evaluator's agreement on the first sweep at the midpoints of the
    given parameter cells; by default the stride sample's."""
    if cells is None:
        cells = sampled_cells(4 ** depth)
    return all(region_agrees(ws, midpoint(ws, j, depth), j, depth)
               for j in cells)
