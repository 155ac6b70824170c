"""The finite-topology kernels as they were before the search walked only
the submasks of the earlier rows' cap and partitions carried their block
masks, and before the sweep validated each distinct quotient once: the
topology search tries every candidate row at every level and tests
transitivity against all chosen rows, `_union` visits every mask, the
decomposition topology finds each block's points by label on every call,
and the sweep builds the quotient of every (topology, partition) pair.
Tests compare the kernels against these, output for output and in the same
order."""

from typing import List, Sequence, Tuple

from primchaos.errors import InputError
from primchaos.fintop import (
    FiniteTopSpace,
    Partition,
    all_partitions,
    all_topologies,
    block_label,
    finite_map,
    is_homeomorphism,
)
from primchaos.report import CheckReport


def oracle_union(masks: Sequence[int], select: int) -> int:
    """OR of masks[i] over the set bits i of select."""
    out = 0
    for i, m in enumerate(masks):
        if select >> i & 1:
            out |= m
    return out


def oracle_topology_rows(n: int) -> List[Tuple[int, ...]]:
    """Every specialization preorder on n points, as its rows, depth first
    over all 2^n candidates per row."""
    rows: List[int] = []
    found: List[Tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            found.append(tuple(rows))
            return
        for extra in range(1 << n):
            if extra >> i & 1:
                continue  # bit i is forced on; skip duplicates
            new = extra | (1 << i)
            rows.append(new)
            if oracle_union(rows, new) == new and \
                    all(r | new == r for r in rows if r >> i & 1):
                rec(i + 1)
            rows.pop()

    rec(0)
    return found


def oracle_decomposition_topology(X: FiniteTopSpace,
                                  D: Partition) -> FiniteTopSpace:
    """Space of blocks: U_b is the transitive closure of the blocks that
    meet U_x for some x in b, with each block's mask found by label."""
    if D.points != X.points:
        raise InputError("partition is over different points")
    block_masks = [X.mask(b) for b in D.blocks]
    reach = []
    for bm in block_masks:
        up = oracle_union(X.nbhds, bm)
        reach.append(sum(1 << c for c, cm in enumerate(block_masks) if cm & up))
    for k in range(len(reach)):
        for a, ra in enumerate(reach):
            if ra >> k & 1:
                reach[a] = ra | reach[k]
    return FiniteTopSpace(tuple(block_label(b) for b in D.blocks), tuple(reach))


def oracle_sweep(points: Sequence[str]) -> CheckReport:
    """`fintop.sweep` building and validating every pair's quotient, by
    `oracle_decomposition_topology`."""
    spaces = all_topologies(points)
    pts = tuple(points)
    parts = [Partition(pts, blocks) for blocks in all_partitions(pts)]
    singletons = Partition(pts, tuple((p,) for p in pts))
    n_valid = n_funct = 0
    for X in spaces:
        for D in parts:
            # construction validates the quotient's neighbourhoods
            oracle_decomposition_topology(X, D)
            n_valid += 1
        Q = oracle_decomposition_topology(X, singletons)
        n_funct += is_homeomorphism(finite_map(X, Q, {p: p for p in pts}))
    rep = CheckReport(f"fintop sweep on {len(points)} labelled points")
    rep.add("decomposition_topologies_valid",
            n_valid == len(spaces) * len(parts),
            f"{n_valid} of {len(spaces) * len(parts)} "
            f"({len(spaces)} topologies x {len(parts)} partitions)")
    rep.add("singleton_decomposition_functorial",
            n_funct == len(spaces),
            f"{n_funct} of {len(spaces)} spaces")
    return rep
