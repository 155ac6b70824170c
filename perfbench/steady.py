"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workload NAME [--seeds 1-10] [--seconds S]

runs the benchmark once per seed, one run after another, and prints for
each end-to-end metric the median and the quartile spread (Q3 - Q1 over the
median) next to its bound from BENCHMARK.json.  The raw values go to
perfbench/out/steady-NAME.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in res["metrics"].items()),
            flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.workload}.json").write_text(
        json.dumps(values, indent=1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{name:12s} median {statistics.median(vals):12.6g}  spread "
              f"{spread:7.2%}  bound {bounds.get(name, float('nan')):.0%}  "
              f"spread/bound {spread / bounds.get(name, float('nan')):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
