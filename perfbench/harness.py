"""Run one workload: set-up timed in fresh processes, then closed-loop
rounds of jobs (one caller, the next job only after the previous verdict),
each verdict checked against its known answer.

Every round starts from a newly imported package, as a new process would,
so module-level caches and memos do not carry over from one round to the
next; a workload with FRESH_PER_JOB set (cli-mix, whose traffic is single
CLI invocations) runs every job in a newly imported package, bound to the
context's `pc`.  The imports, the workload's set-up and a garbage
collection run outside the job timers."""

import contextlib
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
MIN_JOBS = stats.min_samples(0.9)
MIN_ROUNDS = 5


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def package_init(root: Path) -> Path:
    init = root / "src" / "primchaos" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init}")
    return init


def import_package(root: Path):
    """Import primchaos (and its CLI) afresh from the checkout's src/."""
    init = package_init(root)
    for name in [n for n in sys.modules
                 if n == "primchaos" or n.startswith("primchaos.")]:
        del sys.modules[name]
    pc = importlib.import_module("primchaos")
    importlib.import_module("primchaos.cli")
    if Path(pc.__file__).resolve() != init.resolve():
        raise SetupError(f"imported primchaos from {pc.__file__}, not {init}")
    return pc


def timed_setup(name: str, root: Path):
    """Time the workload's set-up (fixed.py) in SETUP_REPEATS new processes,
    one after another; return the median time scaled by each process's
    probe (see probe.py), and the raw median."""
    init = package_init(root)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "fixed.py"), name, str(root / "src")],
            capture_output=True, text=True, check=False, timeout=60)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        if Path(res["package"]).resolve() != init.resolve():
            raise SetupError(f"set-up imported {res['package']}, not {init}")
        raw.append(res["setup_s"])
        scaled.append(res["setup_s"] * probe.REFERENCE_S / res["probe_s"])
    return statistics.median(scaled), statistics.median(raw)


@contextlib.contextmanager
def fresh_package(root: Path, tracer=None):
    """A newly imported package, instrumented while the block runs when
    `tracer` is given, and emptied when it ends."""
    pc = import_package(root)
    modules = [m for n, m in sys.modules.items()
               if n == "primchaos" or n.startswith("primchaos.")]
    gc.collect()  # the previous package is garbage now
    try:
        with spans.instrument(pc, tracer) if tracer else \
                contextlib.nullcontext():
            yield pc
    finally:
        # Empty the modules, as the interpreter does at exit, so that their
        # caches are freed at once rather than by a later garbage collection
        # (a module and its functions form a cycle).  Without this the peak
        # memory of cli-mix varied by about 13 MB from run to run.
        for m in modules:
            vars(m).clear()


def verdict_problem(job, out, exc):
    if job.rejects is not None:
        if exc is None:
            return "accepted an input that must be rejected"
        return None if isinstance(exc, job.rejects) else f"raised {exc!r}"
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    try:
        return job.check(out)
    except Exception as e:  # a malformed output is a mismatch, not a crash
        return f"output not checkable: {e!r}"


def run_job(job, tracer, job_id):
    """Run one job; return its start time, duration and mismatch, if any."""
    out = exc = None
    if tracer is not None:
        tracer.job_id = job_id
        idx = tracer.open(0)
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as e:
        exc = e
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(idx, exc is not None)
    return t0, dt, verdict_problem(job, out, exc)


class Rounds:
    """Job times of a run, one list per round, raw and scaled by the
    round's probe median, and the mismatches."""

    def __init__(self):
        self.raw: list[list[float]] = []
        self.scaled: list[list[float]] = []
        self.probes: list[float] = []
        self.problems: list[str] = []

    @property
    def count(self) -> int:
        return len(self.raw)

    @property
    def jobs(self) -> int:
        return sum(map(len, self.raw))


def run_rounds(name, mod, root, work, seed, first, seconds=None, rounds=None,
               tracer=None) -> Rounds:
    """Run whole rounds from index `first`, each from a fresh package: a
    given number, or until `seconds` of rounds have passed and at least
    MIN_JOBS jobs and MIN_ROUNDS rounds ran.  The probe runs between jobs,
    at least probe.EVERY_S seconds apart, and at the end of each round;
    each job's time is scaled by the probes on either side of it."""
    per_job = getattr(mod, "FRESH_PER_JOB", False)
    out = Rounds()
    t0 = time.perf_counter()
    while True:
        r = first + out.count
        rng = random.Random(f"{name}/{seed}/{r}")
        marks, timed = probe.Marks(), []
        with fresh_package(root, None if per_job else tracer) as pc:
            ctx = mod.setup(pc, root)
            if hasattr(mod, "prepare"):
                mod.prepare(ctx, work)
            jobs = mod.round_jobs(ctx, rng, r)
            rng.shuffle(jobs)
            for job in jobs:
                with fresh_package(root, tracer) if per_job else \
                        contextlib.nullcontext(pc) as job_pc:
                    ctx.pc = job_pc
                    if marks.due():
                        marks.take()
                    start, dt, problem = run_job(job, tracer,
                                                 out.jobs + len(timed))
                    if marks.due():
                        marks.take()
                timed.append((start, dt))
                if problem:
                    out.problems.append(f"round {r} {job.kind}: {problem}")
            marks.take()
        out.raw.append([dt for _, dt in timed])
        out.scaled.append([dt * marks.scale(start, start + dt)
                           for start, dt in timed])
        out.probes += marks.probe_s
        if rounds is not None:
            if out.count >= rounds:
                break
        elif time.perf_counter() - t0 >= seconds and \
                out.count >= MIN_ROUNDS and out.jobs >= MIN_JOBS:
            break
    return out


def jobs_per_s(rounds) -> float:
    """Median over the rounds of a round's jobs over its summed job time.
    Whole rounds keep every cost the program causes (cold caches, garbage
    collection) in the figure, while a burst of load from outside the
    process that slows a minority of rounds does not move it."""
    return statistics.median(len(ts) / sum(ts) for ts in rounds)


def end_to_end(rounds, setup_s) -> dict:
    times = [t for ts in rounds for t in ts]
    return {
        "jobs_per_s": (jobs_per_s(rounds), "1/s"),
        "job_ms.p50": (stats.percentile(times, 0.5) * 1e3, "ms"),
        "job_ms.p90": (stats.percentile(times, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run(name, seed, seconds, trace, root: Path, out_dir: Path):
    """Run the workload; return (metrics {name: (value, unit)}, attempted,
    problems, report lines)."""
    mod = WORKLOADS[name]
    os.environ.pop("PRIMCHAOS_MAX_DEPTH", None)  # goldens assume the default
    setup_s, setup_raw = timed_setup(name, root)
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            done = run_rounds(name, mod, root, work, seed, 0, seconds=seconds)
            raw = end_to_end(done.raw, setup_raw)
            lines = [f"{name}: seed {seed}, {done.jobs} jobs in {done.count} "
                     f"rounds of {len(done.raw[0])}, closed loop, 1 caller",
                     f"probe median {statistics.median(done.probes) * 1e3:.4f} "
                     f"ms over {len(done.probes)} probes; reference "
                     f"{probe.REFERENCE_S * 1e3} ms",
                     "unscaled: " + ", ".join(
                         f"{k} {v:.6g} {u}" for k, (v, u) in raw.items())]
            return (end_to_end(done.scaled, setup_s), done.jobs,
                    done.problems, lines)
        plain = run_rounds(name, mod, root, work, seed, 0, seconds=seconds / 2)
        tracer = spans.Tracer()
        traced = run_rounds(name, mod, root, work, seed, plain.count,
                            rounds=plain.count, tracer=tracer)
        values, notes = spans.layer_metrics(tracer)
        metrics = {m: (values[m], unit) for m, unit in spans.per_layer_names()}
        plain_rate = jobs_per_s(plain.scaled)
        traced_rate = jobs_per_s(traced.scaled)
        layers = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        metrics.update({
            "trace.jobs_per_s.untraced": (plain_rate, "1/s"),
            "trace.jobs_per_s.traced": (traced_rate, "1/s"),
            "trace.overhead": (plain_rate / traced_rate, "ratio"),
            "trace.attributed_share": (layers / sum(map(sum, traced.raw)),
                                       "ratio"),
        })
        path = out_dir / f"trace-{name}.jsonl"
        tracer.write(path, {"workload": name, "seed": seed,
                            "jobs": traced.jobs})
        lines = [f"{name}: seed {seed}, {plain.jobs} untraced then "
                 f"{traced.jobs} traced jobs, {plain.count} rounds each",
                 f"spans written to {path}"] + notes
        return (metrics, plain.jobs + traced.jobs,
                plain.problems + traced.problems, lines)
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()
