"""The `Fraction` refinement construction and stage checks, as they were
before the construction moved onto an integer grid.  Tests compare the grid
build and checks against these, cell for cell and report for report.  And
the `Fraction` Cell of a grid cell as the `tree.cells` view built it before
it built each corner once: every box by `grid_box`, every marked point by
`grid_point`."""

from geometry_oracle import grid_box
from primchaos.embedding import Cell
from primchaos.errors import DegenerateInputError, InputError
from primchaos.geometry import (
    AxisIndex,
    Box,
    Region,
    chebyshev_ball,
    closed_difference,
    diameter,
    distance,
    grid_point,
    lexmax_point,
    lexmin_point,
    region,
    region_intersect,
    region_subset,
)
from primchaos.report import CheckReport


def oracle_fraction_cell(tree, addr) -> Cell:
    """The `Fraction` Cell of the tree's grid cell at the address."""
    cell, dens = tree.grid[addr], (tree.scale,) * tree.model.dim
    return Cell(Region(tuple(grid_box(b.lo, b.hi, dens)
                             for b in cell.region.boxes)),
                (grid_point(cell.marked[0], dens),
                 grid_point(cell.marked[1], dens)))


def oracle_subdivide(model, cell, marked):
    m1, m2 = marked
    d = distance(m1, m2)
    if d == 0:
        raise DegenerateInputError("marked points must be distinct")
    if not (cell.contains_point(m1) and cell.contains_point(m2)):
        raise InputError("marked points must lie in the cell being subdivided")
    if not region_subset(cell, model.root):
        raise InputError("cell is not a subcontinuum of the model")
    radius = d / 4
    children = []
    for m in (m1, m2):
        clipped = region_intersect(cell, region(chebyshev_ball(m, radius)))
        if clipped is None:
            raise DegenerateInputError("empty subdivision cell")
        children.append((clipped, (lexmin_point(clipped), lexmax_point(clipped))))
    return children[0], children[1]


def oracle_build(model, depth) -> dict:
    """Binary address -> `Fraction` Cell of the depth-`depth` refinement."""
    root = model.root
    cells = {"": Cell(root, (lexmin_point(root), lexmax_point(root)))}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for addr in frontier:
            cell = cells[addr]
            (r0, mk0), (r1, mk1) = oracle_subdivide(model, cell.region,
                                                    cell.marked)
            cells[addr + "0"] = Cell(r0, mk0)
            cells[addr + "1"] = Cell(r1, mk1)
            nxt.extend((addr + "0", addr + "1"))
        frontier = nxt
    return cells


def oracle_check(tree, level) -> CheckReport:
    """The four stage checks on the tree's `Fraction` cells (`tree.cells`)."""
    addrs = tree.level(level)
    cells = [tree.cells[a] for a in addrs]
    rep = CheckReport(f"{tree.model.kind} depth={tree.depth} level={level}")
    index = AxisIndex([c.region.boxes for c in cells])

    overlap = index.first_overlap()
    rep.add("cells_pairwise_disjoint", overlap is None,
            f"{len(cells)} cells" if overlap is None
            else f"cells {addrs[overlap[0]]!r} and {addrs[overlap[1]]!r} "
                 f"intersect")

    if level == 0:
        rep.add("diameter_shrink", True, "root level: no parent, vacuous")
    else:
        bad = None
        for a in addrs:
            parent = tree.cells[a[:-1]]
            bound = distance(*parent.marked) / 3
            if not diameter(tree.cells[a].region) < bound:
                bad = a
                break
        rep.add("diameter_shrink", bad is None,
                "dia(cell) < d(parent marks)/3 for all cells" if bad is None
                else f"cell {bad!r} too large")

    if level == tree.depth:
        rep.add("perfectness_witness", True,
                "deepest level: no refinement below, vacuous")
    else:
        inside = [[] for _ in cells]
        for a in addrs:
            for j in "01":
                for p in tree.cells[a + j].marked:
                    for k in {k for k, _ in index.near(p, p)}:
                        inside[k].append((p, a))
        bad_reason = ""
        for idx, a in enumerate(addrs):
            pts = {p for p, _ in inside[idx]}
            if any(owner != a for _, owner in inside[idx]):
                bad_reason = f"cell {a!r} contains a foreign marked point"
                break
            if not set(cells[idx].marked) <= pts:
                bad_reason = f"cell {a!r} lost a marked point"
                break
            if len(pts) < 2:
                bad_reason = f"cell {a!r} holds fewer than two marked points"
                break
        rep.add("perfectness_witness", not bad_reason,
                bad_reason or "marked pairs persist, no intrusions")

    dim = tree.model.dim
    bad_reason = ""
    for idx, a in enumerate(addrs):
        cboxes = cells[idx].region.boxes
        clo = tuple(min(b.lo[ax] for b in cboxes) for ax in range(dim))
        chi = tuple(max(b.hi[ax] for b in cboxes) for ax in range(dim))
        window = index.near(clo, chi)
        diff_near = closed_difference([b for _, b in window], cboxes)
        expect_near = [b for j, b in window if j != idx]
        if sorted(diff_near, key=Box.sort_key) != \
                sorted(expect_near, key=Box.sort_key):
            bad_reason = f"complement of cell {a!r} is not the other cells"
            break
    rep.add("clopen_trace", not bad_reason,
            bad_reason or "each complement is a finite union of closed cells")
    return rep
