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
is a multiple of 4 and the child radius d // 4 is exact.  The tree holds
these integer cells and the one scale; the stage checks are homogeneous in
the scale and read them directly.  `Fraction` corners are built only at
the boundary: the `tree.cells` view, `evaluate_address` and
`tree_document`.  Each tree has one such view, and it builds each
address's `Fraction` Cell at most once, each corner's `Fraction` point
once: a one-box cell marked at its corners, as every cell `_split` builds,
shares the corner tuples as its marked points.

Per level the stage checks sweep one axis index of the level's boxes for
disjointness (i), read each cell's bounding box for the shrink (ii), and
test each child against its parent for nesting: the child lies in the
parent and holds its own marked points.  The other two checks are derived
from these premises.  A finite disjoint union of closed cells minus one of
them is the union of the others, so the clopen trace (iv) holds when (i)
does.  Under (i) and nesting, the next-level marked points inside a cell
are exactly its children's, so none intrudes in the perfectness check
(iii), which is left to find the cell's pair among them and count them.
The exact scans of (iii) and (iv) through the axis index run only when a
premise fails, so a failing stage reports the witness the scan finds.

Input is validated at the public boundary, depths and levels by
`errors.check_count`.  The `RefinementTree` constructor takes its depth
from its longest address, and then exactly the binary addresses of length
0..depth.
`subdivide` checks that the cell lies in the model and holds its marked
points; `build_refinement` steps without those checks, as each cell it
builds lies in its parent with its marked points at corners, and the stage
checks certify the result.  The boxes the construction derives (the clamp
of a box about a marked point in it, a cell put on the grid, a grid cell
read back as `Fraction`s) are ordered by construction and built with
`Box._trusted`; only the models' own boxes pass the checked constructor.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import lcm
from operator import add, le, sub
from types import MappingProxyType
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


def _corners(cell: Cell) -> Iterator[tuple]:
    for b in cell.region.boxes:
        yield b.lo
        yield b.hi
    yield from cell.marked


def _onto_grid(cell: Cell, scale: int) -> Cell:
    """The cell with every coordinate x replaced by the integer x * scale
    (scale a multiple of every denominator)."""
    def point(p):
        return tuple(x.numerator * (scale // x.denominator) for x in p)
    return Cell(Region(tuple(Box._trusted(point(b.lo), point(b.hi))
                             for b in cell.region.boxes)),
                (point(cell.marked[0]), point(cell.marked[1])))


def _lcm_scale(cells: Iterable[Cell]) -> int:
    """The lcm of every corner denominator: the coarsest common grid."""
    return lcm(*(x.denominator for c in cells for p in _corners(c) for x in p))


class _FractionCells(Mapping):
    """Read-only view of integer grid cells over one scale that builds the
    `Fraction` Cell of an address on its first lookup and keeps it.  Each
    corner's `Fraction` point is built once: a one-box cell whose marked
    points are its corners, as every cell `_split` builds, shares the corner
    tuples as its marked points.  Two threads looking up one address at
    once may both build it; the values are equal, so either may be kept."""

    __slots__ = ("_grid", "_dens", "_built")

    def __init__(self, grid: Mapping[str, Cell], dens: Tuple[int, ...]):
        self._grid = grid
        self._dens = dens
        self._built = {}

    def __getitem__(self, addr: str) -> Cell:
        built = self._built.get(addr)
        if built is None:
            built = self._built[addr] = self._build(self._grid[addr])
        return built

    def _build(self, cell: Cell) -> Cell:
        dens, marked = self._dens, cell.marked
        # positive scaling keeps each box ordered and the canonical box order
        boxes = tuple(Box._trusted(grid_point(b.lo, dens),
                                   grid_point(b.hi, dens))
                      for b in cell.region.boxes)
        if len(boxes) == 1 and marked == (cell.region.boxes[0].lo,
                                          cell.region.boxes[0].hi):
            return Cell(Region(boxes), (boxes[0].lo, boxes[0].hi))
        return Cell(Region(boxes), (grid_point(marked[0], dens),
                                    grid_point(marked[1], dens)))

    def __contains__(self, addr) -> bool:
        return addr in self._grid

    def __iter__(self) -> Iterator[str]:
        return iter(self._grid)

    def __len__(self) -> int:
        return len(self._grid)


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


@dataclass(frozen=True, init=False)
class RefinementTree:
    """The full refinement to a fixed depth: one Cell per binary address.

    The cells are stored once, on an integer grid: `grid` maps each address
    to a Cell whose coordinates are integers over `scale`, and `cells` is
    the tree's one read-only view of them as `Fraction` Cells, each built
    on its first lookup and kept.  Immutable after construction apart from
    that memo, so trees are safe for unrestricted concurrent reads.
    """

    model: PeanoModel
    depth: int
    grid: Mapping[str, Cell]
    scale: int

    def __init__(self, model: PeanoModel, cells: Mapping[str, Cell]):
        """A tree of the given rational cells, put on the lcm grid of all
        their coordinates' denominators.  Its depth is the longest address's
        length, and the addresses must be exactly the binary words of length
        0..depth, else `InputError`."""
        depth = _checked_depth(cells)
        scale = _lcm_scale(cells.values())
        self._fill(model, depth,
                   {a: _onto_grid(c, scale) for a, c in cells.items()}, scale)

    @classmethod
    def _from_grid(cls, model: PeanoModel, depth: int, grid: dict,
                   scale: int) -> "RefinementTree":
        tree = cls.__new__(cls)
        tree._fill(model, depth, grid, scale)
        return tree

    def _fill(self, model, depth, grid: dict, scale: int) -> None:
        grid = MappingProxyType(grid)
        cells = _FractionCells(grid, (scale,) * model.dim)
        for name, value in (("model", model), ("depth", depth),
                            ("grid", grid), ("scale", scale),
                            ("cells", cells)):
            object.__setattr__(self, name, value)

    def level(self, k: int):
        """Addresses of level k in lexicographic order."""
        check_count(k, f"level must be an int >= 0, got {k!r}")
        if k > self.depth:
            raise InputError(f"level {k} outside tree depth {self.depth}")
        return ["".join(bits) for bits in product("01", repeat=k)]


def subdivide(model: PeanoModel, cell: Region, marked: Tuple[tuple, tuple]):
    """One refinement step: two disjoint subcells around the marked points.

    Each child is the cell clipped to the closed Chebyshev ball of radius
    d(m1, m2)/4 around its marked point.  Anchoring at lexicographic
    extremes keeps every child a box (segment, for the tripod) with the
    inherited point at a corner, so its diameter is at most d/4 < d/3 and
    the two children sit at Chebyshev distance >= d/2 from each other.

    Exact on `Fraction` and on integer grid coordinates alike; on the grid
    the radius d // 4 must have no remainder, else `ConstructionError`.

    Returns ((region1, marked1), (region2, marked2)) where each markedI is
    the pair of lexicographic extremes of regionI.
    """
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
    `subdivide`'s input checks (module docstring).
    """
    check_count(depth, "depth must be >= 0")
    if depth > MAX_REFINEMENT_DEPTH:
        raise InputError(f"depth {depth} exceeds the work limit of depth "
                         f"{MAX_REFINEMENT_DEPTH} (2 ** depth leaf cells)")
    root = model.root
    root_cell = Cell(root, (lexmin_point(root), lexmax_point(root)))
    scale = _lcm_scale([root_cell]) * 4 ** depth
    cells = {"": _onto_grid(root_cell, scale)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for addr in frontier:
            cell = cells[addr]
            (r0, mk0), (r1, mk1) = _split(cell.region, cell.marked)
            cells[addr + "0"] = Cell(r0, mk0)
            cells[addr + "1"] = Cell(r1, mk1)
            nxt.extend((addr + "0", addr + "1"))
        frontier = nxt
    return RefinementTree._from_grid(model, depth, cells, scale)


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
    pair.  The exact scans of (iii) and (iv) run only when a premise fails,
    and report the witness they find.

    The checks read the integer grid cells: every one is homogeneous in
    the scale.  Failures are reported, never raised.
    """
    addrs = tree.level(level)
    grid = tree.grid
    cells = [grid[a] for a in addrs]
    rep = CheckReport(f"{tree.model.kind} depth={tree.depth} level={level}")

    # one axis-0 index of the level's boxes serves checks (i), (iii), (iv),
    # and one bounding box per cell serves checks (ii) and (iv)
    index = AxisIndex([c.region.boxes for c in cells])
    bounds = [bounding_box(c.region.boxes) for c in cells]

    # (i) pairwise disjointness, sweeping the index along axis 0
    overlap = index.first_overlap()
    rep.add("cells_pairwise_disjoint", overlap is None,
            f"{len(cells)} cells" if overlap is None
            else f"cells {addrs[overlap[0]]!r} and {addrs[overlap[1]]!r} "
                 f"intersect")

    # (ii) diameter shrink against the parent's marked-point distance: the
    # diameter is the widest side of the cell's bounding box
    if level == 0:
        rep.add("diameter_shrink", True, "root level: no parent, vacuous")
    else:
        bad = None
        for a, (lo, hi) in zip(addrs, bounds):
            if not 3 * max(map(sub, hi, lo)) < distance(*grid[a[:-1]].marked):
                bad = a
                break
        rep.add("diameter_shrink", bad is None,
                "dia(cell) < d(parent marks)/3 for all cells" if bad is None
                else f"cell {bad!r} too large")

    # (iii) perfectness witness via the next level's marked points: the
    # marked points found inside a cell are exactly its two children's
    # pairs, include the cell's own pair, and never come from elsewhere.
    if level == tree.depth:
        rep.add("perfectness_witness", True,
                "deepest level: no refinement below, vacuous")
    else:
        foreign = [False] * len(cells)
        if overlap is None and all(_nested(c.region, grid[a + j])
                                   for a, c in zip(addrs, cells)
                                   for j in "01"):
            # each next-level mark lies in its parent, and by (i) in no
            # other cell of the level
            inside = [{*grid[a + "0"].marked, *grid[a + "1"].marked}
                      for a in addrs]
        else:
            # each distinct point is looked up once, with every cell whose
            # children mark it as its owners
            owners = defaultdict(set)
            for a in addrs:
                for j in "01":
                    for p in grid[a + j].marked:
                        owners[p].add(a)
            inside = [set() for _ in cells]  # the marked points in each cell
            for p, own in owners.items():
                for k, _ in index.near(p, p):
                    inside[k].add(p)
                    if len(own) > 1 or addrs[k] not in own:
                        foreign[k] = True
        bad_reason = ""
        for idx, a in enumerate(addrs):
            if foreign[idx]:
                bad_reason = f"cell {a!r} contains a foreign marked point"
                break
            if not inside[idx].issuperset(cells[idx].marked):
                bad_reason = f"cell {a!r} lost a marked point"
                break
            if len(inside[idx]) < 2:
                bad_reason = f"cell {a!r} holds fewer than two marked points"
                break
        rep.add("perfectness_witness", not bad_reason,
                bad_reason or "marked pairs persist, no intrusions")

    # (iv) clopen trace: closure(level union minus cell) = other cells.
    # Under (i) no box of another cell meets the cell and each of its own
    # boxes lies in it, so the subtraction below returns exactly the other
    # cells' boxes.  Otherwise, boxes whose bounding box avoids the cell
    # pass through both sides untouched, so only the boxes near the cell
    # need exact subtraction.
    bad_reason = ""
    if overlap is not None:
        for idx, (a, (lo, hi)) in enumerate(zip(addrs, bounds)):
            window = index.near(lo, hi)
            diff_near = closed_difference([b for _, b in window],
                                          cells[idx].region.boxes)
            expect_near = [b for j, b in window if j != idx]
            if sorted(diff_near, key=Box.sort_key) != \
                    sorted(expect_near, key=Box.sort_key):
                bad_reason = (f"complement of cell {a!r} is not the other "
                              f"cells")
                break
    rep.add("clopen_trace", not bad_reason,
            bad_reason or "each complement is a finite union of closed cells")
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
