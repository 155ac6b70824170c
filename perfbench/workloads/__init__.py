"""The four workloads.  Each module gives `setup(pc, root)`, which builds the
workload's fixed objects from the imported package `pc`, and
`round_jobs(ctx, rng, r)`, which draws round `r`'s jobs from `rng`.

A round is a fixed job mix: the kinds, sizes and counts of its jobs never
depend on the seed, which only draws the concrete inputs (words, labels,
spot-check addresses, argv values) and the order.  So every seed costs
about the same, and the percentile ranks fall on the same job classes.
"""

from . import cantor_refine, chaos_witness, cli_mix, fintop_sweep

WORKLOADS = {
    "cantor-refine": cantor_refine,
    "chaos-witness": chaos_witness,
    "fintop-sweep": fintop_sweep,
    "cli-mix": cli_mix,
}
