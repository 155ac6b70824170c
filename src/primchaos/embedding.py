"""Nested Cantor-set construction inside concrete Peano continuum models.

Three models ship: the unit interval, the unit square, and a tripod (three
segments joined at (1/2, 1/2)).  Each carries a deterministic subdivision
rule producing, for a cell with two marked points, two disjoint subcells
that contain one marked point each and have diameter strictly below a third
of the marked-point distance.  Iterating the rule yields a binary tree of
cells whose level-n union is a 2^n-cell stage; the limit object (never
materialized) is a Cantor set, and `check_stage_invariants` certifies at
every finite level exactly the facts the limit argument rests on:
disjointness, shrink, marked-point persistence (perfectness), and
closed-complement traces (zero-dimensionality).

The shrink factor is d/4 rather than the minimal d/3: strictness of the
diameter inequality is then automatic and siblings keep a Chebyshev gap of
at least d/2.  Marked points of a child are the lexicographic extremes of
its region, which makes trees fully reproducible; the parent's marked point
is inherited as one of them because each child is anchored at a corner.

The construction is integer-exact.  `build_refinement` scales the model's
root onto the grid of step 1/(D * 4^depth), D the lcm of the root's corner
denominators.  Every corner of a level-k cell is then a multiple of
4^(depth-k) on that grid, so each marked distance above the deepest level
is a multiple of 4 and the child radius d // 4 is exact.  The stage checks
are homogeneous in the scale and read the integer cells directly.

A tree holds each level as one tuple of its 2^k cells in heap order, the
layout of a complete binary tree (Williams, CACM 7(6), 1964; Knuth, TAOCP
vol. 3, 5.2.3): the cell at address a is entry int(a, 2) of level len(a),
the root '' entry 0 of level 0, and the children of entry i are entries
2i and 2i + 1 of the next level.  A one-box cell marked at its corners is
held as its corner pair (lo, hi), two tuples of ints.  That is every cell
the step builds from a one-box parent, so in a built tree every cell but
the tripod root.  Any other cell stays a grid `Cell`: the tripod root, a
cell of several boxes, and a hand-made cell marked off its corners.  The
step and the stage checks read and write these entries, and build no
`Cell`, `Region` or address for a corner pair.  `Fraction` corners are
built only at the boundary: the `tree.cells` view, `evaluate_address` and
`tree_document`.  Each tree has one such view, and it builds each
address's `Fraction` Cell at most once, from the level entry, and each
corner's `Fraction` point once: a corner pair's points are its box's
corners and its marked points alike.

Per level the stage checks certify four premises on the corner pairs: no
two cells meet, in a sweep along axis 0 (i); each cell's widest side is
under a third of its parent's marked distance, read once per parent (ii);
each child lies in its parent; and each cell's marked pair is among its
children's marks, of which at least two are distinct.  A corner pair's
marks are its corners, so they lie in its box.  The other checks are
derived from these premises.  A finite disjoint union of closed cells
minus one of them is the union of the others, so the clopen trace (iv)
holds when (i) does.  Under (i) and nesting, the next-level marked points
inside a cell are exactly its children's, so none intrudes in the
perfectness check (iii), which is left to find the cell's pair among them
and count them.  When a premise fails, or the level or the next one holds
a `Cell`, the checks turn the entries into `Cell`s and run on them with
the axis index.  There the exact scans of (iii) and (iv) run only when
their premise fails, so a failing stage reports the witness the scan
finds, and address strings are built only for a witness.

Input is validated at the public boundary, depths and levels by
`errors.check_count`.  The `RefinementTree` constructor takes its depth
from its longest address, and then exactly the binary addresses of length
0..depth, each of a `Cell` whose boxes have the model's axes and which
marks two points of ints or `Fraction`s on those axes.  `subdivide` checks
its cell and marked pair the same way, and that the cell lies in the model
and holds its marked points; `build_refinement` steps without those
checks, as each cell it builds lies in its parent with its marked points
at corners, and the stage checks certify the result.  The boxes the construction derives (the clamp
of a box about a marked point in it, a cell put on the grid, a grid cell
read back as `Fraction`s) are ordered by construction and built with
`Box._trusted`; only the models' own boxes pass the checked constructor.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from math import lcm
from operator import add, le, sub
from typing import Tuple

from .errors import (ConstructionError, DegenerateInputError, InputError,
                     check_count)
from .geometry import (
    AxisIndex,
    Box,
    Region,
    binary_word,
    bounding_box,
    chebyshev_ball,
    closed_difference,
    distance,
    grid_point,
    lexmax_point,
    lexmin_point,
    point_doc,
    rat,
    region,
    region_doc,
    region_intersect,
    region_subset,
)
from .report import CheckReport

MODEL_KINDS = ("interval", "square", "tripod")
# deepest tree `build_refinement` builds, of 2 ** depth leaf cells
MAX_REFINEMENT_DEPTH = 12

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PeanoModel:
    """A concrete nondegenerate Peano continuum carried as a box region,
    the root, whose dimension is the model's."""

    kind: str
    root: Region

    @property
    def dim(self) -> int:
        return self.root.dim


def make_model(kind: str) -> PeanoModel:
    if kind == "interval":
        return PeanoModel("interval", region(Box((rat(0),), (rat(1),))))
    if kind == "square":
        return PeanoModel("square", region(Box((rat(0), rat(0)), (rat(1), rat(1)))))
    if kind == "tripod":
        # three segments sharing the endpoint (1/2, 1/2): left bar, right
        # bar, and a downward leg; carried as degenerate (thin) boxes
        bar_l = Box((rat(0), HALF), (HALF, HALF))
        bar_r = Box((HALF, HALF), (rat(1), HALF))
        leg = Box((HALF, rat(0)), (HALF, HALF))
        return PeanoModel("tripod", region([bar_l, bar_r, leg]))
    raise InputError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


@dataclass(frozen=True)
class Cell:
    region: Region
    marked: Tuple[tuple, tuple]  # pair of points, lexicographic extremes


def _points(boxes, marked) -> Iterator[tuple]:
    for b in boxes:
        yield b.lo
        yield b.hi
    yield from marked


def _lcm_scale(points) -> int:
    """The lcm of every coordinate's denominator: the coarsest common
    grid."""
    return lcm(*(x.denominator for p in points for x in p))


def _entry(boxes: tuple, marked: tuple):
    """The level entry of a grid cell: the corner pair of one box marked at
    its corners, else the `Cell`."""
    if len(boxes) == 1 and marked == (boxes[0].lo, boxes[0].hi):
        return marked
    return Cell(Region(boxes), marked)


def _grid_entry(boxes, marked, scale: int):
    """The level entry of a rational cell, given by its boxes and marked
    pair, with every coordinate x replaced by the integer x * scale (scale a
    multiple of every denominator)."""
    def point(p):
        return tuple(x.numerator * (scale // x.denominator) for x in p)
    return _entry(tuple(Box._trusted(point(b.lo), point(b.hi)) for b in boxes),
                  (point(marked[0]), point(marked[1])))


def _grid_cell(entry) -> Cell:
    """The grid `Cell` of a level entry."""
    if type(entry) is tuple:
        return Cell(Region((Box._trusted(*entry),)), entry)
    return entry


def _fraction_cell(dens: Tuple[int, ...], entry) -> Cell:
    """The `Fraction` Cell of a level entry over one denominator per axis.
    A corner pair's two points are built once, as its box's corners and its
    marked points alike."""
    if type(entry) is tuple:
        lo, hi = grid_point(entry[0], dens), grid_point(entry[1], dens)
        return Cell(Region((Box._trusted(lo, hi),)), (lo, hi))
    # positive scaling keeps each box ordered and the canonical box order
    boxes = tuple(Box._trusted(grid_point(b.lo, dens), grid_point(b.hi, dens))
                  for b in entry.region.boxes)
    m0, m1 = entry.marked
    return Cell(Region(boxes), (grid_point(m0, dens), grid_point(m1, dens)))


def _address(k: int, i: int) -> str:
    """The address of entry i of level k."""
    return format(i, f"0{k}b") if k else ""


class _LevelView(Mapping):
    """Read-only view of a tree's levels by address that builds an
    address's Cell from its level entry on the first lookup and keeps it.
    It iterates the addresses level by level, each level in lexicographic
    (heap) order.  Two threads looking up one address at once may both
    build it; the values are equal, so either may be kept."""

    __slots__ = ("_levels", "_build", "_built")

    def __init__(self, levels: tuple, build):
        self._levels = levels
        self._build = build
        self._built = {}

    def __getitem__(self, addr: str) -> Cell:
        built = self._built.get(addr)
        if built is None:
            if addr not in self:
                raise KeyError(addr)
            entry = self._levels[len(addr)][int(addr, 2) if addr else 0]
            built = self._built[addr] = self._build(entry)
        return built

    def __contains__(self, addr) -> bool:
        return (isinstance(addr, str) and len(addr) < len(self._levels)
                and not addr.strip("01"))

    def __iter__(self) -> Iterator[str]:
        for k, level in enumerate(self._levels):
            for i in range(len(level)):
                yield _address(k, i)

    def __len__(self) -> int:
        return 2 ** len(self._levels) - 1


def _checked_depth(cells: Mapping[str, Cell]) -> int:
    """The tree depth of the addresses, the longest one's length.  Rejects
    addresses other than exactly the binary words of length 0..depth: the
    root is there, every address is such a word, and every address shorter
    than depth has both children."""
    if "" not in cells:
        raise InputError("a refinement tree needs its root cell ''")
    depth = max(len(binary_word(a)) for a in cells)
    for a in cells:
        if len(a) < depth:
            for child in (a + "0", a + "1"):
                if child not in cells:
                    raise InputError(f"tree of depth {depth} has no cell {child!r}")
    return depth


def _check_cell(name: str, cell: Region, marked, dim: int) -> None:
    """`InputError` unless the cell is a `Region` whose boxes have dim axes,
    and marked is a tuple of exactly two points, each a tuple of dim ints
    or `Fraction`s."""
    if not isinstance(cell, Region):
        raise InputError(f"{name} is not a Region: {cell!r}")
    for b in cell.boxes:
        if not isinstance(b, Box) or b.dim != dim:
            raise InputError(f"{name} has a box {b!r} that is not {dim}-d, "
                             f"as the model is")
    if not (isinstance(marked, tuple) and len(marked) == 2 and all(
            isinstance(p, tuple) and len(p) == dim
            and all(isinstance(x, (int, Fraction)) for x in p)
            for p in marked)):
        raise InputError(f"{name} needs two marked points of {dim} ints or "
                         f"Fractions, got {marked!r}")


@dataclass(frozen=True, init=False)
class RefinementTree:
    """The full refinement to a fixed depth, stored once, level by level,
    on an integer grid over `scale`.

    `levels[k]` holds the 2^k cells of level k in heap order: the cell at
    address a is entry int(a, 2) of level len(a), the root '' entry 0 of
    level 0, and the children of entry i are entries 2i and 2i + 1 of the
    next level.  A one-box cell marked at its corners, as every cell the
    step builds from a one-box parent, is held as its corner pair (lo, hi)
    of int tuples.  Any other cell stays a grid `Cell`: the tripod root, a
    cell of several boxes, and a hand-made cell marked off its corners.

    `grid` and `cells` are read-only views of the levels by address: `grid`
    gives an address's grid `Cell`, and `cells`, the tree's one view of
    `Fraction` Cells, the same cell over `scale`.  Each builds an address's
    Cell on its first lookup and keeps it.  Both iterate the addresses level
    by level, each level in lexicographic order, whatever order a
    hand-made tree's cells were given in.  Immutable after construction
    apart from the views' memos, so trees are safe for unrestricted
    concurrent reads.
    """

    model: PeanoModel
    depth: int
    levels: tuple
    scale: int

    def __init__(self, model: PeanoModel, cells: Mapping[str, Cell]):
        """A tree of the given rational cells, put on the lcm grid of all
        their coordinates' denominators.  Its depth is the longest address's
        length, and the addresses must be exactly the binary words of length
        0..depth, each of a Cell whose boxes have the model's axes and which
        marks two points of ints or `Fraction`s on them, else
        `InputError`."""
        if not isinstance(cells, Mapping):
            raise InputError(f"a refinement tree takes a mapping of "
                             f"addresses to Cells, got {cells!r}")
        depth = _checked_depth(cells)
        for a, c in cells.items():
            if not isinstance(c, Cell):
                raise InputError(f"cell {a!r} is not a Cell: {c!r}")
            _check_cell(f"cell {a!r}", c.region, c.marked, model.dim)
        scale = _lcm_scale(p for c in cells.values()
                           for p in _points(c.region.boxes, c.marked))
        levels = [[None] * 2 ** k for k in range(depth + 1)]
        for a, c in cells.items():
            levels[len(a)][int(a, 2) if a else 0] = \
                _grid_entry(c.region.boxes, c.marked, scale)
        self._fill(model, depth, tuple(map(tuple, levels)), scale)

    @classmethod
    def _from_grid(cls, model: PeanoModel, depth: int, levels: tuple,
                   scale: int) -> "RefinementTree":
        tree = cls.__new__(cls)
        tree._fill(model, depth, levels, scale)
        return tree

    def _fill(self, model, depth, levels: tuple, scale: int) -> None:
        dens = (scale,) * model.dim
        for name, value in (("model", model), ("depth", depth),
                            ("levels", levels), ("scale", scale),
                            ("grid", _LevelView(levels, _grid_cell)),
                            ("cells", _LevelView(
                                levels, partial(_fraction_cell, dens)))):
            object.__setattr__(self, name, value)

    def _check_level(self, k: int) -> None:
        check_count(k, f"level must be an int >= 0, got {k!r}")
        if k > self.depth:
            raise InputError(f"level {k} outside tree depth {self.depth}")

    def level(self, k: int):
        """Addresses of level k in lexicographic order."""
        self._check_level(k)
        return [_address(k, i) for i in range(2 ** k)]


def subdivide(model: PeanoModel, cell: Region, marked: Tuple[tuple, tuple]):
    """One refinement step: two disjoint subcells around the marked points.

    Each child is the cell clipped to the closed Chebyshev ball of radius
    d(m1, m2)/4 around its marked point.  Anchoring at lexicographic
    extremes keeps every child a box (segment, for the tripod) with the
    inherited point at a corner, so its diameter is at most d/4 < d/3 and
    the two children sit at Chebyshev distance >= d/2 from each other.

    Exact on `Fraction` and on integer grid coordinates alike; on the grid
    the radius d // 4 must have no remainder, else `ConstructionError`.
    The cell and the marked pair are checked as the tree constructor checks
    a cell, and then the cell must lie in the model and hold both marked
    points, else `InputError`.

    Returns ((region1, marked1), (region2, marked2)) where each markedI is
    the pair of lexicographic extremes of regionI.
    """
    _check_cell("the cell", cell, marked, model.dim)
    m1, m2 = marked
    if distance(m1, m2) == 0:
        raise DegenerateInputError("marked points must be distinct")
    if not (cell.contains_point(m1) and cell.contains_point(m2)):
        raise InputError("marked points must lie in the cell being subdivided")
    if not region_subset(cell, model.root):
        raise InputError("cell is not a subcontinuum of the model")
    return _split(cell, marked)


def _split(cell: Region, marked: Tuple[tuple, tuple]):
    """`subdivide` without its checks that the cell lies in the model and
    holds its marked points."""
    m1, m2 = marked
    d = distance(m1, m2)
    if isinstance(d, int):
        radius, rest = divmod(d, 4)
        if rest:
            raise ConstructionError(
                f"marked distance {d} is not a multiple of 4 on the grid")
    else:
        radius = d / 4
    children = []
    if len(cell.boxes) == 1:
        # the ball meets the one box in their per-axis clamp, a box whose
        # lexicographic extremes are its corners
        (box,) = cell.boxes
        for m in (m1, m2):
            lo = tuple(map(max, box.lo, map(sub, m, repeat(radius))))
            hi = tuple(map(min, box.hi, map(add, m, repeat(radius))))
            children.append((Region((Box._trusted(lo, hi),)), (lo, hi)))
        return children[0], children[1]
    for m in (m1, m2):
        clipped = region_intersect(cell, region(chebyshev_ball(m, radius)))
        children.append((clipped, (lexmin_point(clipped), lexmax_point(clipped))))
    return children[0], children[1]


def build_refinement(model: PeanoModel, depth: int) -> RefinementTree:
    """Iterate the `subdivide` step to the given depth from the model's root.

    Cell at address a*j is built around marked point j of cell a; the root's
    marked points are the lexicographic extremes of the whole model.  The
    steps run on the integer grid of scale D * 4^depth, without
    `subdivide`'s input checks (module docstring).  A corner pair (lo, hi)
    steps in integers: with r the quarter of its widest side, its children
    are (lo, min(hi, lo + r)) and (max(lo, hi - r), hi) per axis, the
    clamps of the box about its corners; a `Cell` steps by `_split`.
    """
    check_count(depth, "depth must be >= 0")
    if depth > MAX_REFINEMENT_DEPTH:
        raise InputError(f"depth {depth} exceeds the work limit of depth "
                         f"{MAX_REFINEMENT_DEPTH} (2 ** depth leaf cells)")
    root = model.root
    marked = (lexmin_point(root), lexmax_point(root))
    scale = _lcm_scale(_points(root.boxes, marked)) * 4 ** depth
    levels = [(_grid_entry(root.boxes, marked, scale),)]
    for _ in range(depth):
        level = []
        append = level.append
        for entry in levels[-1]:
            if type(entry) is tuple:
                lo, hi = entry
                r, rest = divmod(max(map(sub, hi, lo)), 4)
                if rest:
                    raise ConstructionError(
                        f"marked distance {4 * r + rest} is not a multiple "
                        f"of 4 on the grid")
                append((lo, tuple(map(min, hi, [x + r for x in lo]))))
                append((tuple(map(max, lo, [x - r for x in hi])), hi))
            else:
                for child, mk in _split(entry.region, entry.marked):
                    append(_entry(child.boxes, mk))
        levels.append(tuple(level))
    return RefinementTree._from_grid(model, depth, tuple(levels), scale)


def evaluate_address(tree: RefinementTree, word: str) -> Region:
    """Cell region at a binary address; at full depth this is the tightest
    available enclosure of the limit Cantor set inside that cell."""
    if len(binary_word(word)) > tree.depth:
        raise InputError(f"address length {len(word)} exceeds tree depth {tree.depth}")
    return tree.cells[word].region


def _nested(parent: Region, child: Cell) -> bool:
    """Whether the child lies in its parent and holds its own marked
    points: per-axis corner tests for one-box regions."""
    boxes = child.region.boxes
    if len(boxes) == 1 and len(parent.boxes) == 1:
        (lo, hi), (plo, phi) = (boxes[0].lo, boxes[0].hi), \
            (parent.boxes[0].lo, parent.boxes[0].hi)
        m0, m1 = child.marked
        return (all(map(le, plo, lo)) and all(map(le, hi, phi))
                and all(map(le, lo, m0)) and all(map(le, m0, hi))
                and all(map(le, lo, m1)) and all(map(le, m1, hi)))
    return (region_subset(child.region, parent)
            and all(map(child.region.contains_point, child.marked)))


def _marked_distance(entry):
    """The distance between a level entry's marked points: for a corner
    pair, the widest side of its box."""
    if type(entry) is tuple:
        lo, hi = entry
        return max(map(sub, hi, lo))
    return distance(*entry.marked)


def _premises_hold(cells: tuple, children: tuple, parent_d: list) -> bool:
    """Whether a level of corner pairs, beside its parents' marked distances
    and its children (none at the deepest level), meets every premise of
    the stage checks: (i) no two cells meet; (ii) each cell's widest side is
    under a third of its parent's marked distance; each child lies in its
    parent; and each cell's marked pair is among its children's marks, of
    which at least two are distinct.  False when either level holds a
    `Cell`."""
    if not all(type(e) is tuple for e in chain(cells, children)):
        return False
    # (i): sorted by lo, a box meets a later one only if that one starts on
    # axis 0 no later than the box ends
    boxes = sorted(cells)
    n = len(boxes)
    for i in range(n):
        lo, hi = boxes[i]
        j = i + 1
        while j < n and boxes[j][0][0] <= hi[0]:
            lo_j, hi_j = boxes[j]
            if all(map(le, lo_j, hi)) and all(map(le, lo, hi_j)):
                return False
            j += 1
    pairs = iter(cells)
    for d, (lo0, hi0), (lo1, hi1) in zip(parent_d, pairs, pairs):
        if not (3 * max(map(sub, hi0, lo0)) < d
                and 3 * max(map(sub, hi1, lo1)) < d):
            return False
    # a child's marks are its corners: inside the child, hence the parent
    pairs = iter(children)
    for (lo, hi), (lo0, hi0), (lo1, hi1) in zip(cells, pairs, pairs):
        marks = (lo0, hi0, lo1, hi1)
        if not (all(map(le, lo, lo0)) and all(map(le, hi0, hi))
                and all(map(le, lo, lo1)) and all(map(le, hi1, hi))
                and lo in marks and hi in marks
                and (lo != hi or len(set(marks)) > 1)):
            return False
    return True


def _scan_stage(k: int, entries: tuple, child_entries: tuple,
                parent_d: list) -> tuple:
    """The witnesses of checks (i)-(iv) on level k, None for each that
    holds, from the level's and its children's `Cell`s, of any shape.  One
    axis-0 index of the level's boxes serves checks (i), (iii) and (iv), and
    one bounding box per cell checks (ii) and (iv); the exact scans of (iii)
    and (iv) run only when their premise fails."""
    cells = [_grid_cell(e) for e in entries]
    index = AxisIndex([c.region.boxes for c in cells])
    bounds = [bounding_box(c.region.boxes) for c in cells]

    # (i) pairwise disjointness, sweeping the index along axis 0
    overlap = index.first_overlap()
    disjoint = None if overlap is None else \
        f"cells {_address(k, overlap[0])!r} and {_address(k, overlap[1])!r} " \
        f"intersect"

    # (ii) the diameter is the widest side of the cell's bounding box
    too_large = None
    for i, (lo, hi) in enumerate(bounds if k else ()):
        if not 3 * max(map(sub, hi, lo)) < parent_d[i // 2]:
            too_large = f"cell {_address(k, i)!r} too large"
            break

    # (iii) the marked points found inside a cell are exactly its two
    # children's pairs, include the cell's own pair, and never come from
    # elsewhere
    perfect = None
    if child_entries:
        children = [_grid_cell(e) for e in child_entries]
        foreign = [False] * len(cells)
        if overlap is None and all(_nested(c.region, children[2 * i + j])
                                   for i, c in enumerate(cells)
                                   for j in (0, 1)):
            # each next-level mark lies in its parent, and by (i) in no
            # other cell of the level
            inside = [{*children[2 * i].marked, *children[2 * i + 1].marked}
                      for i in range(len(cells))]
        else:
            # each distinct point is looked up once, with every cell whose
            # children mark it as its owners
            owners = defaultdict(set)
            for i, child in enumerate(children):
                for p in child.marked:
                    owners[p].add(i // 2)
            inside = [set() for _ in cells]  # the marked points in each cell
            for p, own in owners.items():
                for i, _ in index.near(p, p):
                    inside[i].add(p)
                    if len(own) > 1 or i not in own:
                        foreign[i] = True
        for i, c in enumerate(cells):
            if foreign[i]:
                perfect = "contains a foreign marked point"
            elif not inside[i].issuperset(c.marked):
                perfect = "lost a marked point"
            elif len(inside[i]) < 2:
                perfect = "holds fewer than two marked points"
            else:
                continue
            perfect = f"cell {_address(k, i)!r} {perfect}"
            break

    # (iv) clopen trace: closure(level union minus cell) = other cells.
    # Under (i) no box of another cell meets the cell and each of its own
    # boxes lies in it, so the subtraction below returns exactly the other
    # cells' boxes.  Otherwise, boxes whose bounding box avoids the cell
    # pass through both sides untouched, so only the boxes near the cell
    # need exact subtraction.
    complement = None
    if overlap is not None:
        for i, (lo, hi) in enumerate(bounds):
            window = index.near(lo, hi)
            diff_near = closed_difference([b for _, b in window],
                                          cells[i].region.boxes)
            expect_near = [b for j, b in window if j != i]
            if sorted(diff_near, key=Box.sort_key) != \
                    sorted(expect_near, key=Box.sort_key):
                complement = (f"complement of cell {_address(k, i)!r} is not "
                              f"the other cells")
                break
    return disjoint, too_large, perfect, complement


def check_stage_invariants(tree: RefinementTree, level: int) -> CheckReport:
    """Exact certification of one refinement stage.

    (i)   the 2^k level cells are pairwise disjoint;
    (ii)  each cell's diameter is < (its parent's marked distance)/3;
    (iii) perfectness witness: each cell's own marked pair reappears among
          the level-(k+1) marked points inside it, at least two distinct
          marked points lie inside it, and no other cell's marked points
          intrude;
    (iv)  clopen trace: the closure of (level union minus the cell) equals
          the union of the other cells, i.e. each cell's complement within
          its stage is a finite union of closed cells.

    (i) and (ii) are checked outright.  (iv) is derived from (i): a finite
    disjoint union of closed cells minus one of them is the union of the
    others, which is closed.  The no-intrusion part of (iii) is derived
    from (i) and nesting, tested per child: the child lies in its parent
    and holds its own marked points.  Then the marked points inside a cell
    are exactly its children's, and (iii) compares them with the cell's
    pair.  A level of corner pairs whose children are corner pairs too is
    certified on the level tuples when every premise holds; otherwise the
    checks run on `Cell`s, where the exact scans of (iii) and (iv) run only
    when a premise fails, and report the witness they find.

    The checks read the integer grid cells: every one is homogeneous in
    the scale.  Each parent's marked distance is read once.  Failures are
    reported, never raised.
    """
    tree._check_level(level)
    levels = tree.levels
    cells = levels[level]
    children = levels[level + 1] if level < tree.depth else ()
    parent_d = [_marked_distance(p) for p in levels[level - 1]] if level \
        else []
    if _premises_hold(cells, children, parent_d):
        disjoint = too_large = perfect = complement = None
    else:
        disjoint, too_large, perfect, complement = _scan_stage(
            level, cells, children, parent_d)

    rep = CheckReport(f"{tree.model.kind} depth={tree.depth} level={level}")
    rep.add("cells_pairwise_disjoint", disjoint is None,
            disjoint or f"{len(cells)} cells")
    if level == 0:
        rep.add("diameter_shrink", True, "root level: no parent, vacuous")
    else:
        rep.add("diameter_shrink", too_large is None,
                too_large or "dia(cell) < d(parent marks)/3 for all cells")
    if level == tree.depth:
        rep.add("perfectness_witness", True,
                "deepest level: no refinement below, vacuous")
    else:
        rep.add("perfectness_witness", perfect is None,
                perfect or "marked pairs persist, no intrusions")
    rep.add("clopen_trace", complement is None,
            complement or "each complement is a finite union of closed cells")
    return rep


def tree_document(tree: RefinementTree) -> dict:
    """Deterministic single-document serialization (golden-file stable)."""
    items = sorted(tree.cells.items(), key=lambda item: (len(item[0]), item[0]))
    return {
        "model": tree.model.kind,
        "depth": tree.depth,
        "cells": [
            {
                "address": a,
                "region": region_doc(cell.region),
                "marked_points": [point_doc(p) for p in cell.marked],
            }
            for a, cell in items
        ],
    }
