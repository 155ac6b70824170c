"""Each workload's fixed objects, and the time a new process takes to import
primchaos and build them (the workload's set-up).

    python3 perfbench/fixed.py WORKLOAD SRC_DIR

imports primchaos and primchaos.cli from SRC_DIR and builds WORKLOAD's fixed
objects, timed from before the first import to after the last object.  It
imports nothing else before the clock stops, so the standard-library modules
primchaos needs (fractions, dataclasses, argparse, json, ...) are loaded and
paid for inside the timed part, as they are for a user who runs the CLI.
It then times the machine-speed probe (probe.py) and prints one JSON line
{"setup_s", "probe_s", "package"}.  harness.py starts it once per set-up
repeat.
"""

import sys
import time

# workload -> builder of its fixed objects from the imported package
BUILD = {
    "cantor-refine": lambda pc: {m: pc.embedding.make_model(m)
                                 for m in ("interval", "square", "tripod")},
    "chaos-witness": lambda pc: {s: pc.chaos.make_system(s) for s in
                                 ("shift_cantor", "doubling", "tent", "baker")},
    "fintop-sweep": lambda pc: [pc.fintop.discrete_space("wxyz"[:c])
                                for c in range(1, 5)],
    "cli-mix": lambda pc: pc.cli.build_parser(),
}

PROBES = 5


def main(workload: str, src: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import primchaos
    import primchaos.cli  # noqa: F401
    BUILD[workload](primchaos)
    setup_s = time.perf_counter() - t0

    import json
    import statistics

    import probe
    probe_s = statistics.median(probe.time_probe() for _ in range(PROBES))
    print(json.dumps({"setup_s": setup_s, "probe_s": probe_s,
                      "package": primchaos.__file__}))


if __name__ == "__main__":
    main(*sys.argv[1:])
