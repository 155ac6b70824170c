"""The square waypoint consistency check as it was before it was proved
from the piece table: it sampled one parameter-cell midpoint in 257 (and
the last cell) and compared the region `evaluate_waypoint` returns there
with the one `sweep_cell_enclosure` gives for the cell.  Tests compare the
certificate against these, verdict for verdict.

`blocks_cover` and `sweep_cell_enclosure` left the library because only
tests call them."""

from fractions import Fraction

from primchaos.errors import InputError, check_count
from primchaos.geometry import Box, Region, region
from primchaos.surject import (
    ONE,
    WaypointSurjection,
    _complement_cylinders,
    _curve_box,
    _triangle,
    evaluate_waypoint,
    sweep_segments,
)

HALF = Fraction(1, 2)


def blocks_cover(blocks) -> bool:
    """Whether the blocks' cylinders cover the Cantor set."""
    return not _complement_cylinders(blocks)


def sweep_cell_enclosure(ws: WaypointSurjection, sweep_idx: int, j: int,
                         depth: int) -> Region:
    """Enclosure of the sweep's image over its j-th dyadic parameter subcell
    (of 4^depth).  Same certified object `evaluate_waypoint` returns for
    parameters inside that subcell, indexed by integer for bulk sweeps."""
    check_count(depth, "depth must be >= 0")
    segs = sweep_segments(ws)
    if not 0 <= sweep_idx < len(segs):
        raise InputError("no such sweep segment")
    cells = 4 ** depth
    if not 0 <= j < cells:
        raise InputError("cell index out of range")
    if ws.pinning.target == "square":
        return region(_curve_box(depth, j))
    u0 = Fraction(j, cells)
    u1 = Fraction(j + 1, cells)
    vals = [_triangle(u0), _triangle(u1)]
    if u0 < HALF < u1:
        vals.append(ONE)
    return region(Box((min(vals),), (max(vals),)))


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
