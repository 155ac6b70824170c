"""Exact geometric substrate: rational scalars, points, boxes, regions,
and Cantor addresses.

An address is a finite binary word held as a plain `str` of 0s and 1s;
`binary_word` is the one check every word-taking function applies.

Everything downstream computes over this module.  The only scalar type at
the API is `fractions.Fraction` (arbitrary precision, always in lowest
terms, positive denominator); there is no floating point anywhere in the
core.  Sets of points are represented as finite unions of closed
axis-aligned boxes with rational corners, in ambient dimension 1 or 2.

The integer kernels (chaos enclosures, surjection cells, refinement trees)
hold corners as `int` numerators over one denominator per axis.  Boxes,
`region()`, intersection, containment, `closed_difference`, `distance` and
`diameter` only compare, add and subtract, so they run on such integer
corners unchanged; `grid_box` and `grid_point` are the one way back to
`Fraction` corners.

The metric is the Chebyshev max-norm.  It is topologically equivalent to
the Euclidean metric and, unlike it, exactly computable over the rationals
(no square roots), so every distance/diameter comparison below is an exact
integer comparison in disguise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

ONE = Fraction(1)


def rat(value, den=None) -> Fraction:
    """Build an exact rational from ints, strings like "3/4", or Fractions."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InputError("floats are not accepted; pass an int, Fraction or 'p/q' string")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational 'p/q' string: {text!r}") from exc


def rational_str(x: Fraction) -> str:
    """Canonical "p/q" serialization (q = 1 kept explicit for uniformity)."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, digits: int) -> str:
    """Truncated (not rounded) decimal rendering, for plotting convenience only."""
    if digits < 0:
        raise InputError("digits must be >= 0")
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole = x.numerator // x.denominator
    rem = x.numerator - whole * x.denominator
    frac_digits = []
    for _ in range(digits):
        rem *= 10
        frac_digits.append(str(rem // x.denominator))
        rem %= x.denominator
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + "".join(frac_digits)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

Point = tuple  # tuple of Fraction, length = ambient dimension (1 or 2)


def distance(p: Point, q: Point) -> Fraction:
    """Chebyshev (max-coordinate) distance between two points."""
    if len(p) != len(q):
        raise InputError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return max(abs(a - b) for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box: the product of [lo[i], hi[i]] per axis.

    Degenerate axes (lo == hi) are allowed; a box that is degenerate on
    every axis is a single point.  Segments of the tripod model are boxes
    degenerate on exactly one axis.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InputError("box corner dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise InputError(f"box needs lo <= hi per axis: {self.lo} .. {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_point(self, p: Point) -> bool:
        return all(l <= c <= h for l, c, h in zip(self.lo, p, self.hi))

    def side(self, axis: int) -> Fraction:
        return self.hi[axis] - self.lo[axis]

    def sort_key(self):
        return (self.lo, self.hi)


def box1(lo, hi) -> Box:
    return Box((rat(lo),), (rat(hi),))


def box2(xlo, xhi, ylo, yhi) -> Box:
    return Box((rat(xlo), rat(ylo)), (rat(xhi), rat(yhi)))


def box_intersect(a: Box, b: Box) -> Optional[Box]:
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return Box(lo, hi)


def box_disjoint(a: Box, b: Box) -> bool:
    """True iff the closed boxes share no point (touching is NOT disjoint)."""
    return any(al > bh or bl > ah
               for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi))


def chebyshev_ball(center: Point, radius: Fraction) -> Box:
    return Box(tuple(c - radius for c in center), tuple(c + radius for c in center))


def grid_point(nums: Sequence[int], dens: Sequence[int]) -> Point:
    """The point with coordinate nums[i] / dens[i] on axis i."""
    return tuple(Fraction(n, d) for n, d in zip(nums, dens))


def grid_box(lo: Sequence[int], hi: Sequence[int], dens: Sequence[int]) -> Box:
    """The `Fraction` box of integer corners over one denominator per axis."""
    return Box(grid_point(lo, dens), grid_point(hi, dens))


# ---------------------------------------------------------------------------
# 1-d interval set helpers (building blocks of the canonical form)
# ---------------------------------------------------------------------------


def _merge_intervals(intervals: Sequence[tuple]) -> list:
    """Canonical form of a union of closed intervals: maximal, disjoint, sorted.

    Touching intervals merge ([0,1] and [1,2] become [0,2]); single points
    survive when isolated.
    """
    ivs = sorted(intervals)
    out: list = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _subtract_intervals(pieces: Sequence[tuple], cover: Sequence[tuple]) -> list:
    """Closure of (union of pieces) minus (union of cover), as closed intervals.

    Both inputs must already be canonical (`_merge_intervals`).  The set
    difference of closed sets need not be closed; each connected component
    is returned as its closure.  Empty components are dropped exactly.
    """
    out = []
    for a, b in pieces:
        overl = [(max(ca, a), min(cb, b)) for ca, cb in cover if cb >= a and ca <= b]
        if not overl:
            out.append((a, b))
            continue
        cur = a
        cur_covered = False  # whether the point `cur` itself lies in the cover
        for ca, cb in overl:
            if ca > cur:
                # component before ca is nonempty (cur < ca); emit its closure
                out.append((cur, ca))
            cur = max(cur, cb)
            cur_covered = True
        if cur < b:
            out.append((cur, b))
        elif cur == b and not cur_covered:
            out.append((b, b))
    return _merge_intervals(out)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Nonempty finite union of closed boxes, held in canonical form.

    Canonical form is route-independent: two box lists describing the same
    point set canonicalize to the identical tuple, so `==` on Regions is
    point-set equality.  Boxes are pairwise non-overlapping in interior and
    sorted lexicographically by corners.

    Construct through `region(...)`; the constructor itself trusts its input
    (internal fast paths hand it pre-canonical tuples).
    """

    boxes: tuple

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def contains_point(self, p: Point) -> bool:
        return any(b.contains_point(p) for b in self.boxes)

    def bounding_range(self, axis: int) -> tuple:
        return (min(b.lo[axis] for b in self.boxes),
                max(b.hi[axis] for b in self.boxes))


def _canonical_boxes(boxes: Sequence[Box]) -> tuple:
    dims = {b.dim for b in boxes}
    if len(dims) != 1:
        raise InputError("all boxes of a region must share one dimension")
    dim = dims.pop()
    if dim == 1:
        merged = _merge_intervals([(b.lo[0], b.hi[0]) for b in boxes])
        return tuple(Box((lo,), (hi,)) for lo, hi in merged)
    return _canonical_boxes_2d(boxes)


def _canonical_boxes_2d(boxes: Sequence[Box]) -> tuple:
    # Vertical-slab decomposition: split at every x where any box starts or
    # ends, take the canonical y-cross-section per slab, then merge adjacent
    # slabs with identical cross-sections.  Content living only at a single
    # x (degenerate boxes, protruding edges) is emitted as zero-width boxes
    # holding the closure of whatever the width slabs do not already cover.
    xs = sorted({x for b in boxes for x in (b.lo[0], b.hi[0])})
    slabs = []  # [x0, x1, yset]
    for x0, x1 in zip(xs, xs[1:]):
        ys = _merge_intervals([(b.lo[1], b.hi[1]) for b in boxes
                               if b.lo[0] <= x0 and b.hi[0] >= x1])
        if ys:
            if slabs and slabs[-1][1] == x0 and slabs[-1][2] == ys:
                slabs[-1][1] = x1
            else:
                slabs.append([x0, x1, ys])
    out = [Box((x0, ylo), (x1, yhi)) for x0, x1, ys in slabs for ylo, yhi in ys]
    for c in xs:
        ysec = _merge_intervals([(b.lo[1], b.hi[1]) for b in boxes
                                 if b.lo[0] <= c <= b.hi[0]])
        if not ysec:
            continue
        covered = []
        for x0, x1, ys in slabs:
            if x0 <= c <= x1:
                covered.extend(ys)
        leftover = _subtract_intervals(ysec, _merge_intervals(covered))
        out.extend(Box((c, ylo), (c, yhi)) for ylo, yhi in leftover)
    return tuple(sorted(out, key=Box.sort_key))


def region(boxes) -> Region:
    """Canonicalize a box (or iterable of boxes) into a Region."""
    if isinstance(boxes, Box):
        return Region((boxes,))  # a single box is already canonical
    boxes = list(boxes)
    if not boxes:
        raise InputError("a region must contain at least one box")
    if len(boxes) == 1:
        return Region(tuple(boxes))
    return Region(_canonical_boxes(boxes))


def diameter(r: Region) -> Fraction:
    """Exact Chebyshev diameter: the widest per-axis extent of the union.

    Under the max-norm the diameter of a box union equals the maximum over
    axes of (global hi - global lo), which corners determine exactly.
    """
    return max(hi - lo for lo, hi in
               (r.bounding_range(a) for a in range(r.dim)))


def region_intersect(a: Region, b: Region) -> Optional[Region]:
    pieces = []
    for ba in a.boxes:
        for bb in b.boxes:
            hit = box_intersect(ba, bb)
            if hit is not None:
                pieces.append(hit)
    if not pieces:
        return None
    return region(pieces)


def regions_disjoint(a: Region, b: Region) -> bool:
    return all(box_disjoint(ba, bb) for ba in a.boxes for bb in b.boxes)


def _axis_grid(values, lo, hi):
    # Elementary closed intervals refining [lo, hi] against critical values:
    # zero-width slots at each critical value plus the open-width gaps.
    cuts = sorted({v for v in values if lo < v < hi})
    grid = []
    prev = lo
    for c in cuts:
        grid.append((prev, c))
        grid.append((c, c))
        prev = c
    grid.append((prev, hi))
    return grid


def _uncovered_cells(target: Box, boxes: Sequence[Box]):
    """Refine the target along every critical coordinate of the boxes and
    yield each elementary cell (lo, hi) that lies inside none of them.

    Each elementary cell either lies inside a single member box or sticks
    out of the union entirely, so per-cell corner tests decide coverage.
    """
    grids = [_axis_grid([v for b in boxes for v in (b.lo[ax], b.hi[ax])],
                        target.lo[ax], target.hi[ax])
             for ax in range(target.dim)]
    if target.dim == 1:
        cells = [((l,), (h,)) for l, h in grids[0]]
    else:
        cells = [((xl, yl), (xh, yh)) for xl, xh in grids[0] for yl, yh in grids[1]]
    for lo, hi in cells:
        if not any(all(bl <= l and h <= bh for bl, l, h, bh
                       in zip(b.lo, lo, hi, b.hi)) for b in boxes):
            yield lo, hi


def box_in_boxes(target: Box, boxes: Sequence[Box]) -> bool:
    """Exact containment of a closed box in a finite union of closed boxes:
    no elementary cell of the target's refinement lies outside the union."""
    cand = [b for b in boxes if box_intersect(target, b) is not None]
    for b in cand:  # cheap single-box fast path
        if all(bl <= tl and th <= bh for bl, tl, th, bh
               in zip(b.lo, target.lo, target.hi, b.hi)):
            return True
    if not cand:
        return False
    return next(_uncovered_cells(target, cand), None) is None


def region_subset(a: Region, b: Region) -> bool:
    return all(box_in_boxes(box, b.boxes) for box in a.boxes)


def closed_difference(minuend: Sequence[Box], subtrahend: Sequence[Box]) -> list:
    """Closure of (union of minuend boxes) minus (union of subtrahend boxes).

    Returns a plain box list (not canonicalized): boxes disjoint from every
    subtrahend box pass through untouched, so subtracting one cell from a
    level-wide union of separated cells returns exactly the other cells.
    """
    out = []
    for b in minuend:
        subs = [s for s in subtrahend if not box_disjoint(b, s)]
        if not subs:
            out.append(b)
            continue
        out.extend(Box(lo, hi) for lo, hi in _uncovered_cells(b, subs))
    return out


def lexmin_point(r: Region) -> Point:
    return min(b.lo for b in r.boxes)


def lexmax_point(r: Region) -> Point:
    return max(b.hi for b in r.boxes)


def first_box_midpoint(r: Region) -> Point:
    b = r.boxes[0]
    return tuple((l + h) / 2 for l, h in zip(b.lo, b.hi))


# ---------------------------------------------------------------------------
# Addresses: finite binary words as plain digit strings
# ---------------------------------------------------------------------------


def binary_word(word) -> str:
    """Check a finite binary address and return it.

    Addresses name Cantor cylinders, refinement cells and finite event
    sequences.  Each is a `str` of 0s and 1s, and serializes as itself; the
    empty word "" is the whole space.
    """
    # strip leaves a character behind iff the word has one other than 0, 1
    if not isinstance(word, str) or word.strip("01"):
        raise InputError(f"address must be a string of 0s and 1s, got {word!r}")
    return word


def _ternary_digits(word: str) -> int:
    """The word's middle-third digits 2*bit as one base-3 integer."""
    return int(word.replace("1", "2") or "0", 3)


def cylinder(word: str) -> Region:
    """Middle-third cylinder: bit 0 selects the left third, bit 1 the right.

    The closed interval has length 3^-|word|; the empty word is [0, 1].
    """
    scale = 3 ** len(binary_word(word))
    lo = _ternary_digits(word)
    return Region((Box((Fraction(lo, scale),), (Fraction(lo + 1, scale),)),))


def eval_ternary_address(word: str, extension: str = "zeros") -> Fraction:
    """Exact middle-third Cantor point for an infinite address with a
    regular tail.

    The point's ternary digits are 2*bit along the finite word, then:
    "zeros" appends 000..., "ones" appends 111... (bits, i.e. ternary 222...),
    and "repeat" appends the word itself periodically.  Computed as an
    exact geometric series.
    """
    n = len(binary_word(word))
    scale = Fraction(1, 3 ** n)
    prefix_val = _ternary_digits(word) * scale
    if extension == "zeros":
        return prefix_val
    if extension == "ones":
        return prefix_val + scale  # 0.222... base 3 starting after the prefix = 3^-n
    if extension == "repeat":
        if n == 0:
            raise InputError("'repeat' extension needs a nonempty address")
        # x = v + 3^-n x  =>  x = v / (1 - 3^-n)
        return prefix_val / (ONE - scale)
    raise InputError(f"unknown extension {extension!r}")


# ---------------------------------------------------------------------------
# Serialization (formats shared by every module's output)
# ---------------------------------------------------------------------------


def point_doc(p: Point):
    if len(p) == 1:
        return rational_str(p[0])
    return [rational_str(c) for c in p]


def box_doc(b: Box):
    return [[rational_str(l), rational_str(h)] for l, h in zip(b.lo, b.hi)]


def region_doc(r: Region):
    return [box_doc(b) for b in r.boxes]
