"""cli-mix: in-process `primchaos.cli.main(argv)`.

Each round runs the 21 documented invocations of tests/cli_cases.py,
compared byte for byte with tests/goldens/, then 25 more argv: 15 seeded
valid ones across every subcommand and surjection kind at bounded depth,
writing JSON and CSV (`--decimal`) documents, 6 heavier ones (binary and
interleave coverings of depth 11-13, two seeded waypoint pins on the
square), and 4 seeded inputs that must be rejected with exit code 2.

Each job runs in a newly imported package (FRESH_PER_JOB), because every
CLI invocation is a new process: no cache of one invocation serves another.

Two accepted inputs are never drawn because they cannot finish within a
run: `surject --kind hilbert --depth 20` and `chaos transitivity --depth
12` (about 2 h).  The CLI's missing work budget is a known defect.
"""

import contextlib
import csv
import importlib.util
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import fixed

from . import answers
from .job import Job

SYSTEMS = ("shift_cantor", "doubling", "tent", "baker")
ONE_D = ("shift_cantor", "doubling", "tent")
MODELS = ("interval", "square", "tripod")
BLOCK_SETS = ["00:1", "0:1 --block 1:0", "0:11 --block 11:0", "01+10:1",
              "0:10+11 --block 10:0 --block 11:0", "000:0 --block 111:1"]
# the heavier coverings, no two alike: after the golden binary depth-16
# case, binary 13 and interleave 13 are the heaviest jobs of a round's 46,
# and p90 falls between binary 12 and the golden interleave depth-12 case,
# which cost about the same
DEEP = [("binary", 12), ("binary", 13), ("interleave", 11), ("interleave", 13)]
WAYPOINTS = 2
FRESH_PER_JOB = True


def _load_cases(root: Path):
    spec = importlib.util.spec_from_file_location(
        "cli_cases", root / "tests" / "cli_cases.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.CASES


def setup(pc, root):
    fixed.BUILD["cli-mix"](pc)
    return SimpleNamespace(pc=pc, root=root, work=None, cases=None,
                           goldens=None)


def prepare(ctx, work: Path):
    """Read the documented cases and golden bytes, once and outside the timed
    set-up, and direct documents into the work directory."""
    ctx.work = work
    gdir = ctx.root / "tests" / "goldens"
    ctx.cases = _load_cases(ctx.root)
    ctx.goldens = {}
    for name, _, _, has_doc in ctx.cases:
        doc = (gdir / f"{name}.doc.json").read_bytes() if has_doc else None
        ctx.goldens[name] = ((gdir / f"{name}.out").read_text(),
                             (gdir / f"{name}.err").read_text(), doc)


def _invoke(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(ctx.work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.pc.cli.main(list(argv))
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


def _take(ctx, name: str):
    """Read and delete a document the job wrote into the work directory."""
    path = ctx.work / name
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def _golden(ctx, name, argv, want_code, has_doc) -> Job:
    def check(out):
        code, stdout, stderr = out
        doc = _take(ctx, "out.json")
        g_out, g_err, g_doc = ctx.goldens[name]
        if code != want_code:
            return f"{name}: exit {code}, expected {want_code}"
        if stdout != g_out or stderr != g_err or doc != g_doc:
            return f"{name}: output differs from the golden files"
        return None
    return Job(f"golden.{name}", lambda: _invoke(ctx, argv), check)


def _drawn(ctx, kind, argv, doc_name=None, verify=None) -> Job:
    """A valid invocation: exit 0, quiet stderr, and a parseable document
    that `verify` (if given) accepts."""
    def check(out):
        code, stdout, stderr = out
        doc = _take(ctx, doc_name) if doc_name else None
        if code != 0 or stderr:
            return f"{' '.join(argv)}: exit {code}, stderr {stderr.strip()!r}"
        if doc_name is None:
            return None
        if doc is None:
            return f"{' '.join(argv)}: no document written"
        if doc_name.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(doc.decode())))
            header = ["path", "value"] + (["approx"] if "--decimal" in argv else [])
            return None if rows[0] == header and len(rows) > 1 else \
                f"{' '.join(argv)}: csv header {rows[0]}"
        parsed = json.loads(doc)
        return verify(parsed) if verify else None
    return Job(f"cli.{kind}", lambda: _invoke(ctx, argv), check)


def _rejected(ctx, argv) -> Job:
    def check(out):
        code, stdout, stderr = out
        if code != 2 or not stderr or any(ctx.work.iterdir()):
            return f"{' '.join(argv)}: exit {code}, expected a rejection (2)"
        return None
    return Job("cli.reject", lambda: _invoke(ctx, argv), check)


def _word(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _enclosure_doc(system, word):
    return [[[f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"]
             for lo, hi in zip(blo, bhi)]
            for blo, bhi in answers.enclosure(system, word)]


def _partition(rng, labels):
    blocks = []
    for p in labels:
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([p])
        else:
            blocks[i].append(p)
    return blocks


def _valid(ctx, rng, i) -> list:
    """The 15 valid light invocations of a round."""
    d = f"doc{i}"
    jobs = []
    model = rng.choice(MODELS)
    depth = rng.randint(1, 4)
    jobs.append(_drawn(ctx, "embed", ["embed", "--model", model, "--depth",
                                      str(depth), "--out", f"{d}a.json"],
                       f"{d}a.json",
                       lambda doc, n=2 ** (depth + 1) - 1:
                       None if len(doc["cells"]) == n else "embed cell count"))
    system, word = rng.choice(SYSTEMS), _word(rng, rng.randint(1, 12))
    jobs.append(_drawn(ctx, "realize", [
        "chaos", "realize", "--system", system, "--word", word,
        "--out", f"{d}c.json"], f"{d}c.json",
        lambda doc, s=system, w=word:
        None if doc["enclosure"] == _enclosure_doc(s, w) else "realize enclosure"))
    jobs.append(_drawn(ctx, "realize", [
        "chaos", "realize", "--system", rng.choice(SYSTEMS), "--word",
        _word(rng, rng.randint(1, 12)), "--out", f"{d}d.csv", "--format", "csv",
        "--decimal", str(rng.randint(2, 8))], f"{d}d.csv"))
    word = _word(rng, rng.randint(1, 8))
    jobs.append(_drawn(ctx, "periodic", [
        "chaos", "periodic", "--system", rng.choice(SYSTEMS), "--word", word,
        "--out", f"{d}e.json"], f"{d}e.json",
        lambda doc, n=len(answers.primitive_root(word)):
        None if doc["prime_period"] == n else "prime period"))
    jobs.append(_drawn(ctx, "dense", [
        "chaos", "dense", "--system", rng.choice(SYSTEMS), "--depth",
        str(rng.randint(1, 3)), "--out", f"{d}f.json"], f"{d}f.json",
        lambda doc: None if doc["report"]["summary"]["failed"] == 0 else "dense"))
    jobs.append(_drawn(ctx, "sensitivity", [
        "chaos", "sensitivity", "--system", rng.choice(ONE_D), "--delta",
        f"1/{2 ** rng.randint(8, 20)}", "--samples", str(rng.randint(5, 20)),
        "--out", f"{d}g.json"], f"{d}g.json",
        lambda doc: None if doc["summary"]["failed"] == 0 else "sensitivity"))
    jobs.append(_drawn(ctx, "binary", [
        "surject", "--kind", "binary", "--depth", str(rng.randint(4, 8)),
        "--out", f"{d}h.csv", "--format", "csv", "--decimal",
        str(rng.randint(2, 8))], f"{d}h.csv"))
    jobs.append(_drawn(ctx, "interleave", [
        "surject", "--kind", "interleave", "--depth", str(rng.randint(4, 8)),
        "--out", f"{d}i.json"], f"{d}i.json", _report_ok))
    jobs.append(_drawn(ctx, "block", [
        "surject", "--kind", "block", "--swap-halves", "--depth",
        str(rng.randint(3, 8)), "--out", f"{d}j.json"], f"{d}j.json", _report_ok))
    jobs.append(_drawn(ctx, "block", [
        "surject", "--kind", "block", "--block", *rng.choice(BLOCK_SETS).split(),
        "--depth", str(rng.randint(4, 8)), "--out", f"{d}k.json"], f"{d}k.json",
        _report_ok))
    xs = sorted(rng.sample(range(1, 16), rng.randint(1, 2)))
    pins = [f"{x}/16={rng.randint(0, 8)}/8" for x in xs]
    jobs.append(_drawn(ctx, "waypoint", [
        "surject", "--kind", "waypoint", "--target", "interval",
        *[a for p in pins for a in ("--point", p)], "--depth",
        str(rng.randint(3, 6)), "--out", f"{d}l.json"], f"{d}l.json", _report_ok))
    jobs.append(_drawn(ctx, "hilbert", [
        "surject", "--kind", "hilbert", "--depth", str(rng.randint(1, 6)),
        "--out", f"{d}m.json"], f"{d}m.json", _report_ok))
    space = rng.choice(["chain3", "sierpinski", "discrete2", "discrete3",
                        "discrete4"])
    labels = {"chain3": "abc", "sierpinski": "ab"}.get(space) or \
        "abcd"[:int(space[-1])]
    jobs.append(_drawn(ctx, "quotient", [
        "fintop", "quotient", "--space", space, "--blocks",
        "|".join("".join(b) for b in _partition(rng, labels)),
        "--out", f"{d}n.json"], f"{d}n.json"))
    n = rng.randint(2, 5)
    blocks = _partition(rng, "abcde"[:n])
    reps = [rng.choice(b) for b in blocks]
    jobs.append(_drawn(ctx, "prop5", [
        "fintop", "verify-prop5", "--space", f"discrete{n}", "--blocks",
        "|".join("".join(b) for b in blocks), "--reps", ",".join(reps),
        "--out", f"{d}o.json"], f"{d}o.json",
        lambda doc: None if doc["holds"] else "prop5 verdict"))
    n = rng.randint(2, 4)
    c = rng.randint(1, n)
    targets = list("abcd"[:c]) + [rng.choice("abcd"[:c]) for _ in range(n - c)]
    rng.shuffle(targets)
    jobs.append(_drawn(ctx, "lemma7", [
        "fintop", "verify-lemma7", "--space", f"discrete{n}", "--codomain",
        f"discrete{c}", "--map",
        ",".join(f"{p}={t}" for p, t in zip("abcd", targets)),
        "--out", f"{d}p.json"], f"{d}p.json",
        lambda doc: None if doc["holds"] else "lemma7 verdict"))
    return jobs


def _report_ok(doc):
    return None if doc["report"]["summary"]["failed"] == 0 else "report failed"


def _rejections(rng) -> list:
    system = rng.choice(SYSTEMS)
    word = _word(rng, rng.randint(1, 6))
    pool = [
        ["embed", "--model", "interval", "--depth", str(-rng.randint(1, 5))],
        ["embed", "--model", "torus", "--depth", str(rng.randint(1, 5))],
        ["chaos", "realize", "--system", system, "--word", word + "2"],
        ["chaos", "dense", "--system", system, "--depth", str(rng.randint(9, 12))],
        ["chaos", "sensitivity", "--system", rng.choice(ONE_D), "--delta",
         "1/64", "--samples", "0"],
        ["chaos", "transitivity", "--system", system, "--depth",
         str(rng.randint(13, 20))],
        ["surject", "--kind", "binary", "--depth", str(rng.randint(21, 40))],
        ["surject", "--kind", "block", "--depth", "4"],
        ["surject", "--kind", "waypoint", "--target", "square"],
        ["fintop", "quotient", "--space", "chain3", "--blocks", "a|a"],
        ["fintop", "verify-prop5", "--space", "discrete3", "--blocks", "ab|c",
         "--reps", "a"],
        ["chaos", "realize", "--system", system, "--word", word,
         "--format", "csv", "--decimal", "-1"],
    ]
    return rng.sample(pool, 4)


def round_jobs(ctx, rng, r: int) -> list:
    """46 jobs: the 21 golden cases, 15 valid drawn argv, 4 deeper
    coverings, 2 waypoint pins on the square and 4 rejections."""
    jobs = [_golden(ctx, *case) for case in ctx.cases]
    jobs += _valid(ctx, rng, r)
    jobs += [_drawn(ctx, kind, ["surject", "--kind", kind, "--depth", str(d)])
             for kind, d in DEEP]
    for i, x in enumerate(rng.sample(range(1, 16), WAYPOINTS)):
        pin = f"{x}/16={rng.randint(0, 8)}/8,{rng.randint(0, 8)}/8"
        jobs.append(_drawn(ctx, "waypoint.square", [
            "surject", "--kind", "waypoint", "--target", "square", "--point",
            pin, "--out", f"doc{r}sq{i}.json"], f"doc{r}sq{i}.json", _report_ok))
    jobs += [_rejected(ctx, argv) for argv in _rejections(rng)]
    return jobs
