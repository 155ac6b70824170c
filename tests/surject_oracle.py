"""Oracles for the surject certificates.

The block walk: `verify_block_surjection` as it was before it read the pair
table.  It walked every depth-n word of each block (`_words_under`) through
the linear-scan `evaluate_symbolic`, which scans every cylinder of every
pair.  Tests compare the certificate's reports and errors with it, and the
indexed evaluator with the scan.

The square waypoint consistency check as it was before it was proved
from the piece table: it sampled one parameter-cell midpoint in 257 (and
the last cell) and compared the region `evaluate_waypoint` returns there
with the one `sweep_cell_enclosure` gives for the cell.  Tests compare the
certificate against these, verdict for verdict.

The waypoint piece lookup as it was before it bisected the piece ends: a
scan of the piece table from the start, which returns the first piece
holding t.  Tests compare `_piece_at` with it.

`blocks_cover` and `sweep_cell_enclosure` left the library because only
tests call them."""

from fractions import Fraction
from itertools import product
from typing import Iterator, List, Sequence

from primchaos.errors import InputError, check_count
from primchaos.geometry import (
    Box,
    Region,
    binary_word,
    rat,
    rational_str,
    region,
)
from primchaos.report import CheckReport
from primchaos.surject import (
    ONE,
    ZERO,
    CantorMap,
    ClopenBlock,
    WaypointSurjection,
    _affine_point,
    _complement_cylinders,
    _curve_box,
    _sweep_endpoints,
    _triangle,
    check_block_depth,
    evaluate_waypoint,
    sweep_segments,
)

HALF = Fraction(1, 2)


def blocks_cover(blocks) -> bool:
    """Whether the blocks' cylinders cover the Cantor set."""
    return next(_complement_cylinders(
        c for b in blocks for c in b.cylinders), None) is None


def evaluate_symbolic(f: CantorMap, word: str) -> List[str]:
    """Image enclosure of a cylinder as output cylinder addresses.

    Only defined for the Cantor-target kind, block_glued.
    """
    binary_word(word)
    if f.kind != "block_glued":
        raise InputError(f"{f.kind} has no symbolic evaluation")
    outs: List[str] = []
    for a_blk, b_blk in f.pairs:
        targets = b_blk.cylinders
        nsel = len(targets) - 1
        for c in a_blk.cylinders:
            if word.startswith(c):
                tail = word[len(c):]
                ones = 0
                while ones < nsel and ones < len(tail) and tail[ones] == "1":
                    ones += 1
                if ones == nsel:
                    outs.append(targets[nsel] + tail[nsel:])
                elif ones < len(tail):  # tail[ones] == "0": selector resolved
                    outs.append(targets[ones] + tail[ones + 1:])
                else:  # ran out of bits mid-staircase: still ambiguous
                    outs.extend(targets[r] for r in range(ones, nsel + 1))
            elif c.startswith(word):
                # the prefix has not yet chosen a cylinder: anything in this
                # block is reachable, and the block maps onto all of B_i
                outs.extend(targets)
    if not outs:
        raise InputError(f"address {word!r} lies outside every block")
    return sorted(set(outs))


def _words_under(block: ClopenBlock, depth: int) -> Iterator[str]:
    """Every depth-n word inside the block, cylinder by cylinder in
    lexicographic order; no cylinder may be longer than n."""
    for c in block.cylinders:
        for tail in product("01", repeat=depth - len(c)):
            yield c + "".join(tail)


def verify_block_surjection(f: CantorMap, blocks_a: Sequence[ClopenBlock],
                            blocks_b: Sequence[ClopenBlock],
                            depth: int) -> CheckReport:
    """Certify f(A_i) = B_i at a working depth.

    Containment direction is exact: every depth-n cylinder of A_i must have
    its image enclosure inside B_i.  Covering direction is at the map's
    modulus: every depth-n cylinder of B_i must meet some image enclosure,
    which bounds the Hausdorff defect by modulus(depth).  A depth that is
    not an int >= 0 or is shorter than a cylinder is rejected
    (`check_block_depth`) before the modulus is read.
    """
    check_block_depth(blocks_a, blocks_b, depth)
    eps = f.modulus(depth)
    rep = CheckReport(f"block surjection, {len(blocks_a)} blocks, depth {depth}, "
                      f"eps {rational_str(eps)}")
    for i, (a_blk, b_blk) in enumerate(zip(blocks_a, blocks_b)):
        out_set = set()
        bad = ""
        for word in _words_under(a_blk, depth):
            outs = evaluate_symbolic(f, word)
            out_set.update(outs)
            for o in outs:
                if not bad and not b_blk.contains_address(o):
                    bad = f"f(cyl {word}) reaches cyl {o}"
        rep.add(f"containment_block_{i}", not bad,
                bad or f"f(A_{i}) subset B_{i} exactly")
        prefixes = {o[:L] for o in out_set for L in range(len(o) + 1)}
        miss = next((word for word in _words_under(b_blk, depth)
                     if word not in prefixes and
                     not any(word[:L] in out_set for L in range(len(word) + 1))),
                    None)
        rep.add(f"covering_block_{i}", miss is None,
                f"B_{i} within eps of f(A_{i})" if miss is None
                else f"cyl {miss} of B_{i} misses every image enclosure")
    return rep


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


def scan_piece_at(ws: WaypointSurjection, t):
    """`_piece_at` by a scan: the first piece with lo <= t <= hi, its kind,
    the position u of t along it, and f(t) exactly (None inside a square
    sweep)."""
    t = rat(t)
    if not ZERO <= t <= ONE:
        raise InputError("parameter outside [0,1]")
    target = ws.pinning.target
    for lo, hi, kind, data in ws.pieces:
        if lo <= t <= hi:
            u = (t - lo) / (hi - lo)
            if kind == "const":
                return kind, u, data
            if kind == "linear":
                return kind, u, _affine_point(data[0], data[1], u)
            if target == "interval":
                return kind, u, (_triangle(u),)
            start, end = _sweep_endpoints(target)
            return kind, u, start if u == ZERO else end if u == ONE else None
    raise InputError("parameter not covered by any piece")
