"""cantor-refine: build a refinement tree and certify every level.

Each job is one (model, depth): `build_refinement`, then
`check_stage_invariants` at levels 0..depth, then seeded spot checks that a
child cell lies in its parent (`region_subset`) and that two distinct cells
of one level are disjoint (`regions_disjoint`).  Known answers: the tree has
2^(depth+1) - 1 cells and, by the construction's theorems, every check holds.
"""

from types import SimpleNamespace

import fixed

from .job import Job

MODELS = ("interval", "square", "tripod")
SPOTS = 16


def setup(pc, root):
    return SimpleNamespace(pc=pc, models=fixed.BUILD["cantor-refine"](pc))


# (model, depth) of a round's 25 jobs, no two alike, in cost order.  The
# tree is a function of (model, depth) alone, so a repeated pair would only
# repeat work.  Twenty-five jobs put the median on the 13th (the cheapest
# depth-5 job) and p90 on the middle one of the three depth-8 jobs, which
# cost about the same.  The depth-9 job reaches the quadratic regime of the
# level checks and takes about half a round's time; its model is fixed so
# that this time does not change from round to round.
MIX = ([(m, d) for d in range(1, 9) for m in MODELS] + [("tripod", 9)])


def _address(rng, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _job(ctx, rng, model: str, depth: int) -> Job:
    E, G = ctx.pc.embedding, ctx.pc.geometry
    tree_model = ctx.models[model]
    nest = []
    for _ in range(SPOTS):
        a = _address(rng, rng.randrange(depth))
        nest.append((a + rng.choice("01"), a))
    apart = []
    for _ in range(SPOTS):
        level = rng.randint(1, depth)
        u = _address(rng, level)
        flip = rng.randrange(level)
        v = u[:flip] + "10"[int(u[flip])] + _address(rng, level - flip - 1)
        apart.append((u, v))

    def run():
        tree = E.build_refinement(tree_model, depth)
        passed = [E.check_stage_invariants(tree, k).all_passed
                  for k in range(depth + 1)]
        cells = tree.cells
        nested = [G.region_subset(cells[c].region, cells[p].region)
                  for c, p in nest]
        disjoint = [G.regions_disjoint(cells[u].region, cells[v].region)
                    for u, v in apart]
        return len(cells), passed, nested, disjoint

    def check(out):
        n_cells, passed, nested, disjoint = out
        if n_cells != 2 ** (depth + 1) - 1:
            return f"{n_cells} cells, expected {2 ** (depth + 1) - 1}"
        if not all(passed):
            return f"stage checks failed at levels " \
                   f"{[k for k, ok in enumerate(passed) if not ok]}"
        if not all(nested):
            return f"child not inside parent: {nest[nested.index(False)]}"
        if not all(disjoint):
            return f"same-level cells meet: {apart[disjoint.index(False)]}"
        return None

    return Job(f"refine.{model}.d{depth}", run, check)


def round_jobs(ctx, rng, r: int) -> list:
    return [_job(ctx, rng, m, d) for m, d in MIX]
