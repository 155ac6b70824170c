"""Exact geometric substrate: rational scalars, points, boxes, regions,
and Cantor addresses.

An address is a finite binary word held as a plain `str` of 0s and 1s;
`binary_word` is the one check every word-taking function applies.

Everything downstream computes over this module.  The only scalar type at
the API is `fractions.Fraction` (arbitrary precision, always in lowest
terms, positive denominator); there is no floating point anywhere in the
core.  Sets of points are represented as finite unions of closed
axis-aligned boxes with rational corners, in ambient dimension 1 or 2.
`closed_difference` is the one engine for what is left of such a union
after removing another: containment (`box_in_boxes`, `region_subset`) is
its emptiness, and the 2-d canonical form takes its zero-width boxes from
it.  `AxisIndex` is the one index for asking which of a refinement level's
many cell boxes meet a given box, for the stage checks' exact scans.

`Box(lo, hi)` is checked at the boundary: one or two axes, `int` or
`Fraction` corners (a bool passes as the int it is), lo <= hi per axis.  A
kernel that derives a box from boxes already so checked (an intersection
after its own order test, a clamp, an elementary cell, a canonical piece, a
grid cell, an image under a positive scaling or an affine law with its
corners reordered) builds it with `Box._trusted`, which checks nothing.
Trusted fields are set with `object.__setattr__`, as the dataclass's own
`__init__` does, and never written through the instance `__dict__`: on
CPython 3.11 a read site that meets boxes of both kinds loses its
specialization, and reading `lo` and `hi` of each box of a list mixing the
two kinds took 35 ns a box against 14.5 ns for a list of one kind (timeit,
x86_64).

The integer kernels (chaos enclosures, surjection cells, refinement trees)
hold corners as `int` numerators over one denominator per axis.  Boxes,
`region()`, intersection, containment, `closed_difference`, `distance` and
`diameter` only compare, add and subtract, so they run on such integer
corners unchanged; `grid_point` is the one way back to `Fraction` corners,
and `grid_box` checks integer corners before it builds their trusted box.
A region built from `int` and `Fraction` corners is exact, but which type
it keeps where two equal corners meet is unspecified.

The box primitives run once per cell on the refinement and chaos paths,
so they do their per-axis work with `map` over `operator` functions, with
no generator per axis.  Each has one code path, with one one-box shortcut
that gives what the general path gives: a one-box list is its own
`bounding_box` (so a one-box `diameter` is its widest side), and a one-box
region lies in a one-box region iff its corners do (`region_subset`).

The metric is the Chebyshev max-norm.  It is topologically equivalent to
the Euclidean metric and, unlike it, exactly computable over the rationals
(no square roots), so every distance/diameter comparison below is an exact
integer comparison in disguise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import add, gt, le, sub
from typing import Optional, Sequence

from .errors import InputError, check_count

ONE = Fraction(1)
# most digits `decimal_str` renders: it builds 10 ** digits before anything
MAX_DECIMAL_DIGITS = 1024


def rat(value) -> Fraction:
    """Build an exact rational from ints, strings like "3/4", or Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InputError("floats are not accepted; pass an int, Fraction or 'p/q' string")
    if not isinstance(value, int):  # a bool is an int, and kept
        raise InputError(f"not a rational: {value!r}; pass an int, Fraction "
                         f"or 'p/q' string")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InputError(f"not a rational 'p/q' string: {text!r}")
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
    """Truncated (not rounded) decimal rendering, for plotting convenience
    only, of at most `MAX_DECIMAL_DIGITS` digits."""
    check_count(digits, "digits must be >= 0")
    if digits > MAX_DECIMAL_DIGITS:
        raise InputError(f"digits {digits} exceeds the work limit of "
                         f"{MAX_DECIMAL_DIGITS} digits")
    x = rat(x)
    sign = "-" if x < 0 else ""
    scale = 10 ** digits
    whole, frac = divmod(abs(x.numerator) * scale // x.denominator, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

Point = tuple  # tuple of Fraction, length = ambient dimension (1 or 2)


def distance(p: Point, q: Point) -> Fraction:
    """Chebyshev (max-coordinate) distance between two points."""
    try:
        if len(p) == len(q):
            return max(map(abs, map(sub, p, q)))
    except (TypeError, ValueError) as exc:  # not sequences, or no axes
        raise InputError(f"not two points: {p!r}, {q!r}") from exc
    raise InputError(f"dimension mismatch: {len(p)} vs {len(q)}")


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box: the product of [lo[i], hi[i]] per axis.

    The constructor checks its corners: two tuples of one length, 1 or 2,
    of `int`s or `Fraction`s (a bool passes as the int it is), with
    lo <= hi on every axis; anything else raises `InputError`.  Kernels
    build the boxes they derive from checked ones with `_trusted`.

    Degenerate axes (lo == hi) are allowed; a box that is degenerate on
    every axis is a single point.  Segments of the tripod model are boxes
    degenerate on exactly one axis.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (isinstance(lo, tuple) and isinstance(hi, tuple)):
            raise InputError(f"box corners must be tuples, got {lo!r} .. {hi!r}")
        if len(lo) != len(hi):
            raise InputError("box corner dimension mismatch")
        if len(lo) not in (1, 2):
            raise InputError(f"boxes have 1 or 2 axes, not {len(lo)}")
        for x in (*lo, *hi):
            if not isinstance(x, (int, Fraction)):
                raise InputError(f"box corners must be ints or Fractions, "
                                 f"got {x!r}")
        if any(map(gt, lo, hi)):
            raise InputError(f"box needs lo <= hi per axis: {lo} .. {hi}")

    @classmethod
    def _trusted(cls, lo: tuple, hi: tuple) -> "Box":
        """A box from corners already known to pass `__post_init__`'s
        checks, without them."""
        b = cls.__new__(cls)
        object.__setattr__(b, "lo", lo)
        object.__setattr__(b, "hi", hi)
        return b

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_point(self, p: Point) -> bool:
        return all(l <= c <= h for l, c, h in zip(self.lo, p, self.hi))

    def side(self, axis: int) -> Fraction:
        return self.hi[axis] - self.lo[axis]

    def sort_key(self):
        return (self.lo, self.hi)


def box_intersect(a: Box, b: Box) -> Optional[Box]:
    """The closed boxes' common box, or None; boxes that touch share a
    degenerate box."""
    lo = tuple(map(max, a.lo, b.lo))
    hi = tuple(map(min, a.hi, b.hi))
    if any(map(gt, lo, hi)):
        return None
    return Box._trusted(lo, hi)


def box_disjoint(a: Box, b: Box) -> bool:
    """True iff the closed boxes share no point (touching is NOT disjoint)."""
    return any(map(gt, a.lo, b.hi)) or any(map(gt, b.lo, a.hi))


def chebyshev_ball(center: Point, radius: Fraction) -> Box:
    """The closed max-norm ball about a point of a checked box, of radius
    >= 0."""
    if radius < 0:
        raise InputError(f"ball radius must be >= 0, got {radius}")
    return Box._trusted(tuple(map(sub, center, repeat(radius))),
                        tuple(map(add, center, repeat(radius))))


def grid_point(nums: Sequence[int], dens: Sequence[int]) -> Point:
    """The point with coordinate nums[i] / dens[i] on axis i."""
    return tuple(map(Fraction, nums, dens))


def grid_box(lo: Sequence[int], hi: Sequence[int], dens: Sequence[int]) -> Box:
    """The `Fraction` box of integer corners over one denominator per axis;
    `InputError` unless there are 1 or 2 axes and lo <= hi on each."""
    if not len(lo) == len(hi) == len(dens) or len(lo) not in (1, 2) \
            or any(map(gt, lo, hi)):
        raise InputError(f"grid box needs lo <= hi on 1 or 2 axes: "
                         f"{lo} .. {hi} over {dens}")
    return Box._trusted(grid_point(lo, dens), grid_point(hi, dens))


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


def _canonical_boxes(boxes: Sequence[Box]) -> tuple:
    dims = {b.dim for b in boxes}
    if len(dims) != 1:
        raise InputError("all boxes of a region must share one dimension")
    dim = dims.pop()
    if dim == 1:
        merged = _merge_intervals([(b.lo[0], b.hi[0]) for b in boxes])
        return tuple(Box._trusted((lo,), (hi,)) for lo, hi in merged)
    if dim == 2:
        return _canonical_boxes_2d(boxes)
    raise InputError(f"regions have 1 or 2 axes, not {dim}")


def _canonical_boxes_2d(boxes: Sequence[Box]) -> tuple:
    # Vertical-slab decomposition: split at every x where any box starts or
    # ends, take the canonical y-cross-section per slab, then merge adjacent
    # slabs with identical cross-sections.  Content living only at a single
    # x (degenerate boxes, protruding edges) is emitted as zero-width boxes:
    # the `closed_difference` of that x's column and the width boxes there.
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
    width = [Box._trusted((x0, ylo), (x1, yhi))
             for x0, x1, ys in slabs for ylo, yhi in ys]
    edges = []
    for c in xs:
        column = [Box._trusted((c, lo), (c, hi)) for lo, hi in _merge_intervals(
            [(b.lo[1], b.hi[1]) for b in boxes if b.lo[0] <= c <= b.hi[0]])]
        near = [w for w in width if w.lo[0] <= c <= w.hi[0]]
        leftover = _merge_intervals([(d.lo[1], d.hi[1])
                                     for d in closed_difference(column, near)])
        edges.extend(Box._trusted((c, lo), (c, hi)) for lo, hi in leftover)
    return tuple(sorted(width + edges, key=Box.sort_key))


def region(boxes) -> Region:
    """Canonicalize a box (or iterable of boxes) into a Region."""
    if isinstance(boxes, Box):
        return Region((boxes,))  # a single box is already canonical
    try:
        boxes = list(boxes)
    except TypeError:
        raise InputError(f"a region takes a Box or Boxes, got {boxes!r}") \
            from None
    if not boxes:
        raise InputError("a region must contain at least one box")
    if len(boxes) == 1:
        if not isinstance(boxes[0], Box):
            raise InputError(f"a region takes Boxes, got {boxes[0]!r}")
        return Region(tuple(boxes))
    try:
        return Region(_canonical_boxes(boxes))
    except (AttributeError, TypeError) as exc:  # not Boxes, or incomparable
        raise InputError(f"a region takes Boxes, got {boxes!r}") from exc


def bounding_box(boxes: Sequence[Box]) -> tuple:
    """(lo, hi): the corners of the least box holding every box of a
    nonempty list.  One box is its own bounding box."""
    if len(boxes) == 1:
        return boxes[0].lo, boxes[0].hi
    return (tuple(map(min, zip(*[b.lo for b in boxes]))),
            tuple(map(max, zip(*[b.hi for b in boxes]))))


def diameter(r: Region) -> Fraction:
    """Exact Chebyshev diameter: the widest per-axis extent of the union.

    Under the max-norm the diameter of a box union equals the maximum over
    axes of (global hi - global lo): the widest side of its bounding box,
    which corners determine exactly.
    """
    lo, hi = bounding_box(r.boxes)
    return max(map(sub, hi, lo))


def region_intersect(a: Region, b: Region) -> Optional[Region]:
    """The closed regions' common region, or None."""
    pieces = [hit for ba in a.boxes for bb in b.boxes
              if (hit := box_intersect(ba, bb)) is not None]
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


def _inside(lo, hi, box: Box) -> bool:
    """Whether the closed box with corners lo, hi lies inside `box`."""
    return all(map(le, box.lo, lo)) and all(map(le, hi, box.hi))


def closed_difference(minuend: Sequence[Box], subtrahend: Sequence[Box]) -> list:
    """Closure of (union of minuend boxes) minus (union of subtrahend boxes).

    The one engine for what is left of closed boxes after removing others:
    `box_in_boxes` and `region_subset` are its emptiness, and the 2-d
    canonical form takes its zero-width boxes from it.

    Returns a plain box list (not canonicalized): a minuend box disjoint
    from every subtrahend box passes through untouched, one inside a single
    subtrahend box drops out, and any other gives the elementary cells of
    its refinement along the critical coordinates of the subtrahend boxes
    it meets that lie inside none of them.  Each elementary cell lies inside
    one such box or sticks out of their union, so corner tests decide.
    Subtracting one cell from a level-wide union of separated cells thus
    returns exactly the other cells.
    """
    out = []
    for b in minuend:
        blo, bhi = b.lo, b.hi
        subs = [s for s in subtrahend
                if all(map(le, s.lo, bhi)) and all(map(le, blo, s.hi))]
        if not subs:
            out.append(b)
        elif not any(_inside(blo, bhi, s) for s in subs):
            grids = [_axis_grid([v for s in subs for v in (s.lo[ax], s.hi[ax])],
                                blo[ax], bhi[ax]) for ax in range(b.dim)]
            for cell in product(*grids):
                lo, hi = zip(*cell)
                if not any(_inside(lo, hi, s) for s in subs):
                    out.append(Box._trusted(lo, hi))
    return out


def box_in_boxes(target: Box, boxes: Sequence[Box]) -> bool:
    """Exact containment of a closed box in a finite union of closed boxes:
    `closed_difference` leaves nothing of it."""
    return not closed_difference([target], boxes)


def region_subset(a: Region, b: Region) -> bool:
    """Exact containment of region a in region b: `closed_difference`
    leaves nothing of a.  For one box in one box that is the corner test
    `_inside`: the difference is empty iff the box lies inside the other."""
    if len(a.boxes) == 1 and len(b.boxes) == 1:
        (x,), (y,) = a.boxes, b.boxes
        return _inside(x.lo, x.hi, y)
    return not closed_difference(a.boxes, b.boxes)


class AxisIndex:
    """The boxes of a sequence of box groups (a refinement level's cells)
    as (group index, box), sorted by their lower axis-0 coordinate, for
    exact range queries."""

    def __init__(self, groups: Sequence[Sequence[Box]]):
        self.entries = sorted(((j, b) for j, boxes in enumerate(groups)
                               for b in boxes), key=lambda e: e[1].lo[0])
        self.los = [b.lo[0] for _, b in self.entries]
        self.widest = max(b.hi[0] - b.lo[0] for _, b in self.entries)

    def near(self, lo, hi):
        """Entries whose box meets the closed box [lo, hi]: a box that meets
        it starts on axis 0 within one widest box width before lo[0]."""
        start = bisect_left(self.los, lo[0] - self.widest)
        stop = bisect_right(self.los, hi[0])
        return [(j, b) for j, b in self.entries[start:stop]
                if all(map(le, b.lo, hi)) and all(map(le, lo, b.hi))]

    def first_overlap(self):
        """(i, j) for the first two groups with intersecting boxes, or None."""
        for pos, (i, bi) in enumerate(self.entries):
            for j, bj in self.entries[pos + 1:]:
                if bj.lo[0] > bi.hi[0]:
                    break
                if j != i and not box_disjoint(bi, bj):
                    return i, j
        return None


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
    return Region((Box._trusted((Fraction(lo, scale),),
                                (Fraction(lo + 1, scale),)),))


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
