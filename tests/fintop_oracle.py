"""The finite-topology kernels as they were before the search walked only
the submasks of the earlier rows' cap and partitions carried their block
masks: the topology search tries every candidate row at every level and
tests transitivity against all chosen rows, `_union` visits every mask,
and the decomposition topology finds each block's points by label on every
call.  Tests compare the kernels against these, output for output and in
the same order."""

from typing import List, Sequence, Tuple

from primchaos.errors import InputError
from primchaos.fintop import FiniteTopSpace, Partition, block_label


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
