"""Continuous surjections from the Cantor set onto concrete compact targets,
evaluable as (address prefix | parameter) -> exact rational enclosure.

Four map kinds ship:

* ``binary_expansion``: Cantor model onto [0,1] by reading the address as a
  binary expansion; depth-n enclosures have width 2^-n.
* ``interleave``: Cantor model onto [0,1]^2; odd-position bits drive the x
  expansion, even-position bits the y expansion.
* ``bit_flip``: the leading-bit-flip self-homeomorphism of the Cantor model.
* ``block_glued``: piecewise map gluing per-block surjections g_i: A_i -> B_i
  over disjoint clopen blocks, the constrained construction behind
  f(A_i) = B_i.  On each input cylinder the tail is re-rooted: a staircase
  of selector bits ("0", "10", ..., all-ones) picks one of B_i's cylinders
  and the remaining bits are copied verbatim, which is onto B_i and has an
  explicit modulus of continuity.

Blocks that fail to cover the Cantor set are padded with their clopen
complement, mapped onto the whole target (the complement of a finite union
of clopen sets is clopen, so this stays inside the same block calculus).

Waypoint-constrained maps [0,1] -> {interval, square} pin f(x_i) = y_i by
exact rational equality and sweep the whole target between consecutive
waypoints: each gap is split into three equal thirds carrying a linear
approach, a full target sweep (triangle wave for the interval, Hilbert-type
space-filling curve for the square), and a linear return.  The curve's
parameter-0 end sits in the corner quadrant at (0,0) and its parameter-1
end at (1,0), which makes the linear stitching exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InputError
from .geometry import (
    Address,
    Box,
    Region,
    cylinder,
    point_doc,
    rational_str,
    rat,
    region,
)
from .report import CheckReport

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Plain expansion surjections
# ---------------------------------------------------------------------------


def binary_expansion_map(prefix: Address) -> Region:
    """Interval enclosure of the binary-expansion image of a cylinder."""
    if prefix.alphabet != 2:
        raise InputError("binary prefix required")
    v = ZERO
    w = ONE
    for bit in prefix.symbols:
        w /= 2
        if bit:
            v += w
    return region(Box((v,), (v + w,)))


def interleave_map(prefix: Address) -> Region:
    """Square box enclosure: odd bits refine x, even bits refine y."""
    if prefix.alphabet != 2:
        raise InputError("binary prefix required")
    v = [ZERO, ZERO]
    w = [ONE, ONE]
    for i, bit in enumerate(prefix.symbols):
        axis = i % 2
        w[axis] /= 2
        if bit:
            v[axis] += w[axis]
    return region(Box((v[0], v[1]), (v[0] + w[0], v[1] + w[1])))


# ---------------------------------------------------------------------------
# Clopen blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClopenBlock:
    """Finite union of middle-third cylinders, clopen by construction.

    Cylinders are binary address strings; none may be a prefix of another
    (that is exactly pairwise disjointness of middle-third cylinders).
    """

    cylinders: Tuple[str, ...]

    def __post_init__(self):
        if not self.cylinders:
            raise InputError("a clopen block needs at least one cylinder")
        cyls = self.cylinders
        if len(set(cyls)) != len(cyls):
            raise InputError("duplicate cylinder")
        for i, a in enumerate(cyls):
            if any(ch not in "01" for ch in a):
                raise InputError(f"bad cylinder address {a!r}")
            for b in cyls[i + 1:]:
                if a.startswith(b) or b.startswith(a):
                    raise InputError(f"cylinders {a!r} and {b!r} overlap")

    def region(self) -> Region:
        boxes = [cylinder(Address.from_string(c)).boxes[0]
                 for c in self.cylinders]
        return region(boxes)

    def contains_address(self, word: str) -> bool:
        return any(word.startswith(c) for c in self.cylinders)


def clopen_partition(n: int) -> List[ClopenBlock]:
    """n disjoint nonempty clopen blocks covering the Cantor model:
    the staircase cylinders "0", "10", "110", ..., then all-ones."""
    if n < 1:
        raise InputError("need n >= 1 blocks")
    if n == 1:
        return [ClopenBlock(("",))]
    blocks = [ClopenBlock(("1" * i + "0",)) for i in range(n - 1)]
    blocks.append(ClopenBlock(("1" * (n - 1),)))
    return blocks


def blocks_pairwise_disjoint(blocks: Sequence[ClopenBlock]) -> bool:
    cyls = [c for b in blocks for c in b.cylinders]
    for i, a in enumerate(cyls):
        for b in cyls[i + 1:]:
            if a.startswith(b) or b.startswith(a):
                return False
    return True


def blocks_cover(blocks: Sequence[ClopenBlock]) -> bool:
    return not _complement_cylinders(blocks)


def _complement_cylinders(blocks: Sequence[ClopenBlock]) -> List[str]:
    """Complement of a disjoint cylinder union, as a minimal cylinder set.

    Walks the binary prefix tree: a subtree disjoint from every cylinder is
    one complement cylinder, a subtree inside a cylinder contributes
    nothing, and mixed subtrees split.  Cost is linear in total cylinder
    length, so staircase partitions of any size stay cheap.
    """
    cyls = [c for b in blocks for c in b.cylinders]
    out: List[str] = []

    def rec(prefix: str, under: List[str]) -> None:
        if any(prefix.startswith(c) for c in under):
            return  # fully covered
        inside = [c for c in under if c.startswith(prefix)]
        if not inside:
            out.append(prefix)
            return
        rec(prefix + "0", inside)
        rec(prefix + "1", inside)

    rec("", cyls)
    return sorted(out, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# CantorMap: uniform wrapper over the four kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorMap:
    """Evaluable continuous surjection with certified enclosures.

    Evaluating on an address prefix of length n yields an enclosure whose
    diameter obeys `modulus(n)`; enclosures nest as prefixes extend.
    """

    kind: str  # binary_expansion | interleave | block_glued | bit_flip
    target: str  # interval | square | cantor
    pairs: Tuple[Tuple[ClopenBlock, ClopenBlock], ...] = ()

    def modulus(self, n: int) -> Fraction:
        """Certified bound on image-enclosure diameter for depth-n inputs."""
        if self.kind == "binary_expansion":
            return Fraction(1, 2 ** n)
        if self.kind == "interleave":
            return Fraction(1, 2 ** (n // 2))
        if self.kind == "bit_flip":
            return Fraction(1, 3 ** n)
        overhead = 0
        threshold = 0
        for a_blk, b_blk in self.pairs:
            sel = len(b_blk.cylinders) - 1
            worst_in = max(len(c) for c in a_blk.cylinders)
            best_out = min(len(d) for d in b_blk.cylinders)
            overhead = max(overhead, worst_in + sel - best_out)
            threshold = max(threshold, worst_in + sel)
        if n < threshold:
            return ONE
        return Fraction(1, 3 ** max(0, n - overhead))


def evaluate_symbolic(f: CantorMap, word: str) -> List[str]:
    """Image enclosure of a cylinder as output cylinder addresses.

    Only defined for Cantor-target kinds (bit_flip, block_glued).
    """
    if f.kind == "bit_flip":
        if not word:
            return [""]
        return [("1" if word[0] == "0" else "0") + word[1:]]
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


def evaluate_map(f: CantorMap, prefix: Address) -> Region:
    """Exact enclosure of the image of the given cylinder."""
    if prefix.alphabet != 2:
        raise InputError("binary prefix required")
    if f.kind == "binary_expansion":
        return binary_expansion_map(prefix)
    if f.kind == "interleave":
        return interleave_map(prefix)
    outs = evaluate_symbolic(f, str(prefix))
    boxes = [cylinder(Address.from_string(o)).boxes[0] for o in outs]
    return region(boxes)


def block_surjection(blocks_a: Sequence[ClopenBlock],
                     blocks_b: Sequence[ClopenBlock]) -> CantorMap:
    """Glued surjection f with f(A_i) = B_i for clopen constraint blocks.

    A blocks must be mutually disjoint and nonempty; B blocks nonempty.  If
    the A blocks do not cover the Cantor model, the clopen complement is
    appended as one extra block mapped onto the whole target.
    """
    if len(blocks_a) != len(blocks_b):
        raise InputError("need as many target blocks as source blocks")
    if not blocks_a:
        raise InputError("need at least one block")
    if not blocks_pairwise_disjoint(blocks_a):
        raise InputError("source blocks overlap")
    pairs = list(zip(blocks_a, blocks_b))
    leftover = _complement_cylinders(blocks_a)
    if leftover:
        pairs.append((ClopenBlock(tuple(leftover)), ClopenBlock(("",))))
    return CantorMap(kind="block_glued", target="cantor", pairs=tuple(pairs))


def verify_block_surjection(f: CantorMap, blocks_a: Sequence[ClopenBlock],
                            blocks_b: Sequence[ClopenBlock],
                            depth: int) -> CheckReport:
    """Certify f(A_i) = B_i at a working depth.

    Containment direction is exact: every depth-n cylinder of A_i must have
    its image enclosure inside B_i.  Covering direction is at the map's
    modulus: every depth-n cylinder of B_i must meet some image enclosure,
    which bounds the Hausdorff defect by modulus(depth).
    """
    eps = f.modulus(depth)
    rep = CheckReport(f"block surjection, {len(blocks_a)} blocks, depth {depth}, "
                      f"eps {rational_str(eps)}")
    for i, (a_blk, b_blk) in enumerate(zip(blocks_a, blocks_b)):
        outs_all: List[str] = []
        contained = True
        bad = ""
        for c in a_blk.cylinders:
            if len(c) > depth:
                raise InputError(f"depth {depth} shallower than cylinder {c!r}")
            for suffix in range(1 << (depth - len(c))):
                word = c + format(suffix, f"0{depth - len(c)}b") \
                    if depth > len(c) else c
                outs = evaluate_symbolic(f, word)
                outs_all.extend(outs)
                if contained:
                    for o in outs:
                        if not b_blk.contains_address(o):
                            contained = False
                            bad = f"f(cyl {word}) reaches cyl {o}"
                            break
        rep.add(f"containment_block_{i}", contained,
                bad or f"f(A_{i}) subset B_{i} exactly")
        out_set = set(outs_all)
        prefixes = set()
        for o in out_set:
            for L in range(len(o) + 1):
                prefixes.add(o[:L])
        covered = True
        bad = ""
        for d in b_blk.cylinders:
            if len(d) > depth:
                raise InputError(f"depth {depth} shallower than cylinder {d!r}")
            for suffix in range(1 << (depth - len(d))):
                word = d + format(suffix, f"0{depth - len(d)}b") \
                    if depth > len(d) else d
                hit = word in prefixes or \
                    any(word[:L] in out_set for L in range(len(word) + 1))
                if not hit:
                    covered = False
                    bad = f"cyl {word} of B_{i} misses every image enclosure"
                    break
            if not covered:
                break
        rep.add(f"covering_block_{i}", covered,
                bad or f"B_{i} within eps of f(A_{i})")
    return rep


def verify_cover_map(f: CantorMap, depth: int) -> CheckReport:
    """Surjectivity at resolution: depth-n image enclosures of all 2^n
    cylinders must tile the target exactly."""
    rep = CheckReport(f"{f.kind} covering at depth {depth}")
    if f.kind == "binary_expansion":
        step = Fraction(1, 2 ** depth)
        lo = ZERO
        ok = True
        for i in range(2 ** depth):
            bits = format(i, f"0{depth}b") if depth else ""
            box = binary_expansion_map(Address.from_string(bits)).boxes[0]
            if box.lo[0] != lo or box.hi[0] != lo + step:
                ok = False
                break
            lo += step
        ok = ok and lo == ONE
        rep.add("images_tile_target", ok,
                f"{2 ** depth} enclosures tile [0,1] exactly" if ok
                else f"gap or overlap at cylinder {bits}")
        return rep
    if f.kind == "interleave":
        nx = 2 ** ((depth + 1) // 2)
        ny = 2 ** (depth // 2)
        seen = set()
        for i in range(2 ** depth):
            bits = format(i, f"0{depth}b") if depth else ""
            box = interleave_map(Address.from_string(bits)).boxes[0]
            seen.add((box.lo[0] * nx, box.lo[1] * ny))
        ok = len(seen) == 2 ** depth and \
            all(cx.denominator == 1 and cy.denominator == 1
                for cx, cy in seen)
        rep.add("images_tile_target", ok,
                f"{2 ** depth} enclosures tile the square as a "
                f"{nx}x{ny} grid" if ok else "grid not fully covered")
        return rep
    raise InputError(f"covering verification ships for binary_expansion and "
                     f"interleave, not {f.kind}")


def verify_curve(depth: int) -> CheckReport:
    """Continuity and surjectivity witnesses for the space-filling curve:
    consecutive parameter cells give edge-adjacent quadrants, and the 4^k
    quadrants tile the square."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    rep = CheckReport(f"space-filling curve at depth {depth}")
    cells = [_curve_cell(depth, j) for j in range(4 ** depth)]
    adjacent = all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                   for a, b in zip(cells, cells[1:]))
    rep.add("consecutive_cells_adjacent", adjacent,
            f"{max(0, 4 ** depth - 1)} parameter steps checked")
    tiles = len(set(cells)) == 4 ** depth
    rep.add("quadrants_tile_square", tiles,
            f"{4 ** depth} quadrants, side 2^-{depth}")
    ends = _curve_cell(depth, 0) == (0, 0) and \
        _curve_cell(depth, 4 ** depth - 1) == ((1 << depth) - 1, 0)
    rep.add("orientation_endpoints", ends,
            "starts at the (0,0) corner, ends at the (1,0) corner")
    return rep


# ---------------------------------------------------------------------------
# Space-filling curve quadrants
# ---------------------------------------------------------------------------


def _curve_cell(k: int, j: int) -> Tuple[int, int]:
    """Grid coordinates of the j-th depth-k quadrant of the space-filling
    curve running from the (0,0) corner to the (1,0) corner."""
    n = 1 << k
    x = y = 0
    t = j
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _curve_box(k: int, j: int) -> Box:
    x, y = _curve_cell(k, j)
    side = Fraction(1, 1 << k)
    return Box((x * side, y * side), ((x + 1) * side, (y + 1) * side))


def hilbert_enclosure(t_cell) -> Region:
    """Square quadrant enclosing the curve's image of a dyadic parameter cell.

    The cell must be [j*4^-k, (j+1)*4^-k].  Adjacent parameter cells map to
    edge-adjacent quadrants (continuity witness) and the 4^k quadrants at
    depth k tile the square (surjectivity witness).
    """
    lo, hi = _parse_param_cell(t_cell)
    width = hi - lo
    if width <= 0:
        raise InputError("parameter cell must have positive width")
    quarters = ONE / width
    if quarters.denominator != 1:
        raise InputError(f"cell width {width} is not a power of 1/4")
    q = quarters.numerator
    k = 0
    while 4 ** k < q:
        k += 1
    if 4 ** k != q:
        raise InputError(f"cell width {width} is not a power of 1/4")
    j = lo / width
    if j.denominator != 1 or not 0 <= j.numerator < 4 ** k:
        raise InputError(f"cell [{lo}, {hi}] is not aligned to depth {k}")
    return region(_curve_box(k, j.numerator))


def _parse_param_cell(t_cell) -> Tuple[Fraction, Fraction]:
    if isinstance(t_cell, Region):
        if len(t_cell.boxes) != 1 or t_cell.dim != 1:
            raise InputError("parameter cell must be a single interval")
        b = t_cell.boxes[0]
        return b.lo[0], b.hi[0]
    if isinstance(t_cell, Box):
        return t_cell.lo[0], t_cell.hi[0]
    lo, hi = t_cell
    return rat(lo), rat(hi)


# ---------------------------------------------------------------------------
# Waypoint-constrained Peano-to-Peano maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaypointMap:
    """Pinning data: f(x_i) = y_i for strictly increasing x_i in [0,1]."""

    waypoints: Tuple[Tuple[Fraction, tuple], ...]
    target: str  # interval | square

    def __post_init__(self):
        if self.target not in ("interval", "square"):
            raise InputError("target must be 'interval' or 'square'")
        if not self.waypoints:
            raise InputError("need at least one waypoint")
        xs = [x for x, _ in self.waypoints]
        if any(not ZERO <= x <= ONE for x in xs):
            raise InputError("waypoint parameters must lie in [0,1]")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InputError("waypoint parameters must be strictly increasing")
        want_dim = 1 if self.target == "interval" else 2
        for _, y in self.waypoints:
            if len(y) != want_dim:
                raise InputError(f"target point {y} has wrong dimension")
            if any(not ZERO <= c <= ONE for c in y):
                raise InputError(f"target point {y} outside the target space")


def waypoint_map(points, target: str) -> WaypointMap:
    wps = tuple((rat(x), tuple(rat(c) for c in y)) for x, y in points)
    return WaypointMap(wps, target)


@dataclass(frozen=True)
class WaypointSurjection:
    """Piecewise realization of a WaypointMap: constant flanks, and per gap
    a linear approach, a full target sweep, and a linear return."""

    pinning: WaypointMap
    pieces: Tuple[tuple, ...]  # (lo, hi, kind, data)

    @property
    def target(self) -> str:
        return self.pinning.target


def _sweep_endpoints(target: str) -> Tuple[tuple, tuple]:
    if target == "interval":
        return (ZERO,), (ZERO,)
    return (ZERO, ZERO), (ONE, ZERO)


def waypoint_surjection(w: WaypointMap) -> WaypointSurjection:
    """Build the evaluable map.  With a single waypoint a virtual copy of
    its value is appended at parameter 1 (or prepended at 0 when x_1 = 1)
    so that at least one sweep exists and the map is onto."""
    wps = list(w.waypoints)
    if len(wps) == 1:
        x1, y1 = wps[0]
        if x1 < ONE:
            wps.append((ONE, y1))
        else:
            wps.insert(0, (ZERO, y1))
    start, end = _sweep_endpoints(w.target)
    pieces: List[tuple] = []
    x0, y0 = wps[0]
    if x0 > ZERO:
        pieces.append((ZERO, x0, "const", y0))
    for (xa, ya), (xb, yb) in zip(wps, wps[1:]):
        third = (xb - xa) / 3
        pieces.append((xa, xa + third, "linear", (ya, start)))
        pieces.append((xa + third, xa + 2 * third, "sweep", None))
        pieces.append((xa + 2 * third, xb, "linear", (end, yb)))
    xn, yn = wps[-1]
    if xn < ONE:
        pieces.append((xn, ONE, "const", yn))
    return WaypointSurjection(w, tuple(pieces))


def _affine_point(p: tuple, q: tuple, u: Fraction) -> tuple:
    return tuple(a + (b - a) * u for a, b in zip(p, q))


def _triangle(u: Fraction) -> Fraction:
    return ONE - abs(ONE - 2 * u)


def evaluate_waypoint(ws: WaypointSurjection, t, depth: int = 8) -> Region:
    """Enclosure of f(t), width at most 2^-depth (exact point when the
    piece is affine)."""
    t = rat(t)
    if not ZERO <= t <= ONE:
        raise InputError("parameter outside [0,1]")
    for lo, hi, kind, data in ws.pieces:
        if lo <= t <= hi:
            if kind == "const":
                return region(Box(data, data))
            u = (t - lo) / (hi - lo)
            if kind == "linear":
                p = _affine_point(data[0], data[1], u)
                return region(Box(p, p))
            if ws.target == "interval":
                v = _triangle(u)
                return region(Box((v,), (v,)))
            cells = 4 ** depth
            j = min((u.numerator * cells) // u.denominator, cells - 1)
            return region(_curve_box(depth, j))
    raise InputError("parameter not covered by any piece")  # unreachable


def sweep_segments(ws: WaypointSurjection) -> List[Tuple[Fraction, Fraction]]:
    return [(lo, hi) for lo, hi, kind, _ in ws.pieces if kind == "sweep"]


def sweep_cell_enclosure(ws: WaypointSurjection, sweep_idx: int, j: int,
                         depth: int) -> Region:
    """Enclosure of the sweep's image over its j-th dyadic parameter subcell
    (of 4^depth).  Same certified object `evaluate_waypoint` returns for
    parameters inside that subcell, indexed by integer for bulk sweeps."""
    segs = sweep_segments(ws)
    if not 0 <= sweep_idx < len(segs):
        raise InputError("no such sweep segment")
    cells = 4 ** depth
    if not 0 <= j < cells:
        raise InputError("cell index out of range")
    if ws.target == "square":
        return region(_curve_box(depth, j))
    u0 = Fraction(j, cells)
    u1 = Fraction(j + 1, cells)
    vals = [_triangle(u0), _triangle(u1)]
    if u0 < HALF < u1:
        vals.append(ONE)
    return region(Box((min(vals),), (max(vals),)))


def evaluate_waypoint_exact(ws: WaypointSurjection, t) -> Optional[tuple]:
    """Exact value of f(t) when representable: everywhere except interior
    square-sweep parameters (returns None there)."""
    t = rat(t)
    if not ZERO <= t <= ONE:
        raise InputError("parameter outside [0,1]")
    for lo, hi, kind, data in ws.pieces:
        if lo <= t <= hi:
            if kind == "const":
                return data
            u = (t - lo) / (hi - lo)
            if kind == "linear":
                return _affine_point(data[0], data[1], u)
            if ws.target == "interval":
                return (_triangle(u),)
            start, end = _sweep_endpoints(ws.target)
            if u == ZERO:
                return start
            if u == ONE:
                return end
            return None
    raise InputError("parameter not covered by any piece")  # unreachable


def verify_waypoint_surjection(ws: WaypointSurjection,
                               resolution: int = 8) -> CheckReport:
    """Certify exact pinning, exact stitching at sweep boundaries, and
    coverage of the whole target at resolution 2^-resolution."""
    w = ws.pinning
    rep = CheckReport(f"waypoint map onto {w.target}, "
                      f"{len(w.waypoints)} waypoints, resolution 2^-{resolution}")
    for i, (x, y) in enumerate(w.waypoints):
        got = evaluate_waypoint_exact(ws, x)
        rep.add(f"pin_waypoint_{i}", got == y,
                f"f({rational_str(x)}) = {point_doc(got)}" if got is not None
                else "no exact value")
    sweeps = [(lo, hi) for lo, hi, kind, _ in ws.pieces if kind == "sweep"]
    rep.add("has_sweep", bool(sweeps), f"{len(sweeps)} sweep segment(s)")
    for si, (lo, hi) in enumerate(sweeps):
        if w.target == "interval":
            # both halves of the triangle wave are affine and monotone, so
            # the sweep's exact image is the span of their endpoint values
            mid = lo + (hi - lo) / 2
            ends = [evaluate_waypoint_exact(ws, t)[0] for t in (lo, mid, hi)]
            img = region([Box((min(ends[0], ends[1]),), (max(ends[0], ends[1]),)),
                          Box((min(ends[1], ends[2]),), (max(ends[1], ends[2]),))])
            ok = img == region(Box((ZERO,), (ONE,)))
            rep.add(f"sweep_{si}_covers_target", ok,
                    "triangle wave image is [0,1] exactly")
        else:
            cells = 4 ** resolution
            # enclosure boxes are grid cells scaled by 2^-resolution, so
            # coverage is bijectivity of the integer cell walk
            seen = {_curve_cell(resolution, j) for j in range(cells)}
            ok = len(seen) == (1 << resolution) ** 2
            # pointwise evaluator must agree with the cell enclosures on a
            # deterministic sample of parameter-cell midpoints
            width = hi - lo
            consistent = True
            for j in list(range(0, cells, 257)) + [cells - 1]:
                t = lo + width * Fraction(4 * j + 2, 4 * cells)
                if evaluate_waypoint(ws, t, resolution) != \
                        sweep_cell_enclosure(ws, si, j, resolution):
                    consistent = False
                    break
            rep.add(f"sweep_{si}_covers_target", ok and consistent,
                    f"{len(seen)} of {(1 << resolution) ** 2} quadrants hit; "
                    f"evaluator consistent: {consistent}")
    return rep


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def map_document(f: CantorMap) -> dict:
    doc = {"kind": f.kind, "target": f.target}
    if f.kind == "block_glued":
        doc["blocks"] = [
            {"source": list(a.cylinders), "target": list(b.cylinders)}
            for a, b in f.pairs
        ]
    return doc


def waypoint_document(ws: WaypointSurjection) -> dict:
    return {
        "kind": "waypoint",
        "target": ws.target,
        "waypoints": [
            {"x": rational_str(x), "y": point_doc(y)}
            for x, y in ws.pinning.waypoints
        ],
        "pieces": [
            {"from": rational_str(lo), "to": rational_str(hi), "kind": kind}
            for lo, hi, kind, _ in ws.pieces
        ],
    }
