"""fintop-sweep: exhaustive finite-space jobs, integer bitmasks only.

* lemma7: every continuous surjection from one 5-point space onto the
  discrete spaces of 1..4 points, each through `verify_lemma7`;
* decomposition: one 4-point space under all 15 partitions;
* prop5: every representative choice on the discrete space of n points;
* topologies: `all_topologies` on n labelled points.

Spaces are fixed preorder shapes under a seeded relabelling, so the seed
changes the labelled input but not the work.  Known answers: a continuous
map onto a discrete space is a surjection of the k connected components,
so there are c! S(k, c) of them onto c points; Bell numbers count the
partitions; prop5 and lemma7 hold wherever the hypothesis is met; 355
topologies on 4 points and 6942 on 5.
"""

from itertools import product
from types import SimpleNamespace

import fixed

from . import answers
from .job import Job

LABELS = "abcdefghij"

# preorder shapes as (i, j) pairs, i <= j; components in the comment
SHAPES5 = {
    "chain": [(0, 1), (1, 2), (2, 3), (3, 4)],                  # 1
    "fan": [(0, 1), (0, 2), (0, 3), (0, 4)],                    # 1
    "fence": [(0, 1), (2, 1), (2, 3), (4, 3)],                  # 1
    "diamond": [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],        # 1
    "indiscrete": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],     # 1
    "chain3+pair": [(0, 1), (1, 2), (3, 4)],                    # 2
    "clump3+pair": [(0, 1), (1, 2), (2, 0), (3, 4)],            # 2
    "pair+pair+point": [(0, 1), (2, 3)],                        # 3
    "clump3+points": [(0, 1), (1, 2), (2, 0)],                  # 3
    "pair+points": [(0, 1)],                                    # 4
    "discrete": [],                                             # 5
}
# the three discrete-space sweeps are the slowest lemma7 jobs, and p90
# falls on the middle one; the median falls in the middle of the eight
# sweeps of connected shapes
LEMMA7_MIX = ["chain", "fan", "fence", "diamond", "indiscrete", "chain",
              "fan", "fence", "chain3+pair", "clump3+pair", "chain3+pair",
              "pair+pair+point", "clump3+points", "pair+points",
              "discrete", "discrete", "discrete"]

SHAPES4 = {
    "chain": [(0, 1), (1, 2), (2, 3)],
    "fan": [(0, 1), (0, 2), (0, 3)],
    "fence": [(0, 1), (2, 1), (2, 3)],
    "sink": [(0, 3), (1, 3), (2, 3)],
    "indiscrete": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "discrete": [],
    "sierpinski2": [(0, 1), (2, 3)],
    "chain3+point": [(0, 1), (1, 2)],
    "clump2+chain2": [(0, 1), (1, 0), (2, 3)],
}
PROP5_SIZES = (1, 2, 3, 4, 5, 6)
TOPOLOGY_SIZES = (3, 4, 5)


def setup(pc, root):
    return SimpleNamespace(pc=pc, codomains=fixed.BUILD["fintop-sweep"](pc))


def _relabelled(rng, n: int, pairs) -> tuple:
    """Points, open label sets and component count of a shape whose point
    i is given a seeded label."""
    points = tuple(rng.sample(LABELS, n))
    rows = answers.closure(n, pairs)
    opens = answers.open_masks(rows)
    return points, opens, answers.components(rows)


def _labels(points, mask) -> list:
    return [p for i, p in enumerate(points) if mask >> i & 1]


def _lemma7(ctx, rng, shape: str) -> Job:
    F = ctx.pc.fintop
    points, opens, k = _relabelled(rng, 5, SHAPES5[shape])
    family = [_labels(points, m) for m in opens]
    tries = sum(answers.surjections(5, c) for c in range(1, 5))
    expect = sum(answers.surjections(k, c) for c in range(1, 5))

    def run():
        X = F.space(points, family)
        tried, verdicts = 0, []
        for Y in ctx.codomains:
            for f in F.all_maps(X, Y):
                if not f.is_surjective():
                    continue
                tried += 1
                if F.is_continuous(f):
                    res = F.verify_lemma7(f)
                    verdicts.append(res.holds and res.hypothesis_met)
        return tried, verdicts

    def check(out):
        tried, verdicts = out
        if tried != tries or len(verdicts) != expect:
            return f"{shape}: {len(verdicts)} of {tried} surjections " \
                   f"continuous, expected {expect} of {tries}"
        return None if all(verdicts) else f"{shape}: lemma 7 failed"
    return Job(f"lemma7.{shape}", run, check)


def _decomposition(ctx, rng, shape: str) -> Job:
    F = ctx.pc.fintop
    points, opens, _ = _relabelled(rng, 4, SHAPES4[shape])
    family = [_labels(points, m) for m in opens]
    open_set = set(opens)

    def run():
        X = F.space(points, family)
        parts = F.all_partitions(points)
        quotients = [F.decomposition_topology(
            X, F.partition(X, [list(b) for b in blocks])) for blocks in parts]
        singletons = F.Partition(X.points, tuple((p,) for p in X.points))
        Q = F.decomposition_topology(X, singletons)
        h = F.finite_map(X, Q, {p: p for p in X.points})
        return parts, quotients, F.is_homeomorphism(h)

    def check(out):
        parts, quotients, homeo = out
        if len(parts) != answers.bell(4):
            return f"{len(parts)} partitions of 4 points, expected 15"
        for blocks, Q in zip(parts, quotients):
            masks = [sum(1 << points.index(p) for p in b) for b in blocks]
            want = {c for c in range(1 << len(blocks))
                    if sum(m for i, m in enumerate(masks) if c >> i & 1)
                    in open_set}
            if len(Q.points) != len(blocks) or set(Q.opens) != want:
                return f"{shape}: quotient by {blocks} has opens {sorted(Q.opens)}"
        return None if homeo else f"{shape}: singleton quotient not homeomorphic"
    return Job(f"decomposition.{shape}", run, check)


def _prop5(ctx, rng, n: int) -> Job:
    F = ctx.pc.fintop
    labels = "".join(rng.sample(LABELS, n))

    def run():
        X = F.discrete_space(labels)
        parts = F.all_partitions(labels)
        verdicts = []
        for blocks in parts:
            D = F.partition(X, [list(b) for b in blocks])
            for reps in product(*blocks):
                res = F.verify_prop5(X, D, list(reps))
                verdicts.append(res.holds and res.hypothesis_met)
        return len(parts), verdicts

    def check(out):
        n_parts, verdicts = out
        if n_parts != answers.bell(n) or \
                len(verdicts) != answers.REPRESENTATIVE_CHOICES[n]:
            return f"prop5 on {n} points: {n_parts} partitions, " \
                   f"{len(verdicts)} choices"
        return None if all(verdicts) else f"prop5 failed on {n} points"
    return Job(f"prop5.n{n}", run, check)


def _topologies(ctx, rng, n: int) -> Job:
    labels = "".join(rng.sample(LABELS, n))

    def check(spaces):
        distinct = {frozenset(X.opens) for X in spaces}
        if len(spaces) != answers.TOPOLOGIES[n] or len(distinct) != len(spaces):
            return f"{len(spaces)} topologies on {n} points " \
                   f"({len(distinct)} distinct), expected {answers.TOPOLOGIES[n]}"
        return None
    return Job(f"topologies.n{n}",
               lambda: ctx.pc.fintop.all_topologies(labels), check)


def round_jobs(ctx, rng, r: int) -> list:
    """35 jobs: 17 lemma7 sweeps, 9 decompositions, 6 prop5 sweeps and
    3 enumerations."""
    jobs = [_lemma7(ctx, rng, s) for s in LEMMA7_MIX]
    jobs += [_decomposition(ctx, rng, s) for s in SHAPES4]
    jobs += [_prop5(ctx, rng, n) for n in PROP5_SIZES]
    jobs += [_topologies(ctx, rng, n) for n in TOPOLOGY_SIZES]
    return jobs
