"""primchaos benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (cantor-refine, chaos-witness, fintop-sweep, cli-mix) in
this process against the package source in src/ of the checkout holding this
file; its set-up is timed in new processes (fixed.py).  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
runs half the time untraced and then as many rounds again with spans around
every layer's public functions, and reports the per-layer metrics and the
tracing overhead.  Every metric is printed as "name value unit"; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
Any verdict that differs from its known answer makes the run fail (exit 1).

    python3 perfbench/run.py --workload all ...

runs each workload in its own process, one after another, and prints all
their metrics prefixed by the workload name.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _result(metrics, attempted, failed):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_one(args) -> int:
    import harness
    try:
        metrics, attempted, problems, lines = harness.run(
            args.workload, args.seed, args.seconds, args.trace, ROOT, OUT)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"MISMATCH {p}")
    print(f"error_rate {len(problems) / attempted} ratio "
          f"({len(problems)} of {attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps(_result(metrics, attempted, len(problems))))
    return 1 if problems else 0


def run_all(args) -> int:
    from workloads import WORKLOADS
    merged, attempted, failed, code = {}, 0, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line if line.startswith(name) else f"{name}: {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        code = max(code, proc.returncode)
        merged.update({f"{name}.{k}": (m["value"], m["unit"])
                       for k, m in res["metrics"].items()})
    print(json.dumps(_result(merged, attempted, failed)))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
