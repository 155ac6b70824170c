"""Spans around primchaos's public functions, recorded from outside the
package for the traced run.

`instrument(package, tracer)` rebinds each listed function in every
primchaos module that holds it (``from .geometry import region`` puts a
second reference in embedding, chaos, surject and cli) and restores the
originals on exit.  Every call opens a span (name, start, end, parent, job).
A call that made no traced call of its own is a leaf: it is folded into
per-(job, parent name, name) totals instead of being stored, so the millions
of `is_continuous` and `FiniteMap` calls of a finite-topology sweep cost a
few dict entries, and its time is charged to its parent's `leaf_s`.  A
layer's self time is span duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

ROOT = "bench.job"

# layer -> public functions; "Class.method" names a method, and "FiniteMap"
# (a class) is timed through its constructor.
LAYERS = {
    "geometry": ["region", "region_intersect", "region_subset", "box_in_boxes",
                 "closed_difference", "regions_disjoint", "cylinder",
                 "region_doc"],
    "embedding": ["build_refinement", "subdivide", "check_stage_invariants",
                  "tree_document"],
    "fintop": ["all_topologies", "all_maps", "FiniteMap", "is_continuous",
               "decomposition_topology", "is_homeomorphism", "verify_prop5",
               "verify_lemma7"],
    "chaos": ["word_enclosure", "AffineBranch.preimage", "realize_witness",
              "periodic_point", "verify_dense_orbit", "sensitivity_check",
              "transitivity_check"],
    "surject": ["evaluate_symbolic", "evaluate_map", "verify_cover_map",
                "verify_block_surjection", "verify_curve",
                "verify_waypoint_surjection", "hilbert_enclosure"],
    "cli": ["main", "build_parser", "encode_document"],
}

CLASS_ENTRY = {"FiniteMap": "__init__"}


class Tracer:
    """Span store: parallel arrays, one slot per stored span; the index of
    a slot is the span's id and its parent's id is another index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [ROOT]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.leaf_s = array("d")
        self.kids = array("I")
        self.stack: list[int] = []
        self.leaves: dict[tuple, list] = {}
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()
        self.job_id = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        stack = self.stack
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.leaf_s.append(0.0)
        self.kids.append(0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        t = self.clock()
        self.stack.pop()
        nid = self.name[idx]
        if raised:
            self.raised[nid] += 1
        p = self.parent[idx]
        if p >= 0:
            self.kids[p] += 1
        if self.kids[idx] or idx != len(self.name) - 1:
            self.end[idx] = t
            return
        dur = t - self.start[idx]
        job = self.job[idx]
        for col in (self.name, self.start, self.end, self.parent, self.job,
                    self.leaf_s, self.kids):
            col.pop()
        if p >= 0:
            self.leaf_s[p] += dur
        key = (job, self.name[p] if p >= 0 else -1, nid)
        agg = self.leaves.get(key)
        if agg is None:
            self.leaves[key] = [1, dur]
        else:
            agg[0] += 1
            agg[1] += dur

    def write(self, path, header: dict) -> None:
        """One JSON line of header and names, one per stored span
        [id, name, start, end, parent, job, leaf_s], then one per leaf total."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(json.dumps([i, self.name[i], self.start[i], self.end[i],
                                     self.parent[i], self.job[i],
                                     self.leaf_s[i]]) + "\n")
            for (job, pnid, nid), (calls, total) in self.leaves.items():
                fh.write(json.dumps({"leaf": nid, "parent": pnid, "job": job,
                                     "calls": calls, "total_s": total}) + "\n")


def self_times(start, end, parent, leaf_s=None) -> array:
    """Self time of each span: its duration minus the part of it that its
    children cover (the union of their intervals, clipped to the span) and
    minus `leaf_s`, the time of children folded into totals."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        lo = max(lo, reach[p])
        if hi <= lo:
            continue
        covered[p] += hi - lo
        reach[p] = hi
    out = array("d", (end[i] - start[i] - covered[i] for i in range(n)))
    if leaf_s is not None:
        for i in range(n):
            out[i] -= leaf_s[i]
    return out


# ---------------------------------------------------------------------------
# Work counters, taken from arguments and results at the same boundaries
# ---------------------------------------------------------------------------


def _count_region(c, args, box_type, out):
    arg = args[0]
    c["geometry.region.boxes_in"] += 1 if isinstance(arg, box_type) else len(arg)
    c["geometry.region.boxes_out"] += len(out.boxes)


def _block_cells(f, blocks_a, blocks_b, depth):
    return sum(2 ** (depth - len(cyl)) for blk in (*blocks_a, *blocks_b)
               for cyl in blk.cylinders)


def _waypoint_cells(ws, resolution=8):
    if ws.pinning.target != "square":
        return 0
    return 4 ** resolution * sum(kind == "sweep" for _, _, kind, _ in ws.pieces)


COUNTER_NAMES = (
    "geometry.region.boxes_in", "geometry.region.boxes_out",
    "embedding.cells_built", "embedding.cells_certified",
    "fintop.spaces_enumerated", "fintop.is_continuous.accepted",
    "chaos.symbols", "surject.cells_checked", "cli.document_bytes",
    "cli.exit.0", "cli.exit.1", "cli.exit.2")

# counters read from a call's result alone
RESULT_COUNTERS = {
    "build_refinement": lambda out: {"embedding.cells_built": len(out.cells)},
    "all_topologies": lambda out: {"fintop.spaces_enumerated": len(out)},
    "is_continuous": lambda out: {"fintop.is_continuous.accepted": int(out)},
    "realize_witness": lambda out: {"chaos.symbols": len(out.word)},
    "encode_document": lambda out: {"cli.document_bytes": len(out)},
    "main": lambda out: {f"cli.exit.{out}": 1},
}

# counters that also need the call's arguments, by parameter name
ARG_COUNTERS = {
    "check_stage_invariants": lambda a, out: {
        "embedding.cells_certified": 2 ** a["level"] if out.all_passed else 0},
    "verify_cover_map": lambda a, out: {"surject.cells_checked": 2 ** a["depth"]},
    "verify_curve": lambda a, out: {"surject.cells_checked": 4 ** a["depth"]},
    "verify_block_surjection": lambda a, out: {
        "surject.cells_checked": _block_cells(**a)},
    "verify_waypoint_surjection": lambda a, out: {
        "surject.cells_checked": _waypoint_cells(**a)},
}


def _wrap(fn, tracer: Tracer, name: str, hook):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            close(idx, True)
            raise
        close(idx)
        if hook is not None:
            hook(tracer.counters, args, kwargs, out)
        return out

    return functools.update_wrapper(traced, fn)


def _hook(short: str, fn, pkg):
    if short == "region":
        box = pkg.geometry.Box
        return lambda c, args, kw, out: _count_region(c, args, box, out)
    if short in RESULT_COUNTERS:
        count = RESULT_COUNTERS[short]
        return lambda c, args, kw, out: c.update(count(out))
    if short not in ARG_COUNTERS:
        return None
    count = ARG_COUNTERS[short]
    sig = inspect.signature(fn)

    def hook(c, args, kw, out):
        bound = sig.bind(*args, **kw)
        bound.apply_defaults()
        c.update(count(bound.arguments, out))
    return hook


@contextlib.contextmanager
def instrument(pkg, tracer: Tracer):
    """Wrap every LAYERS function of the imported package `pkg` in spans
    recorded by `tracer`, bound under every module name that refers to it;
    restore the originals on exit."""
    modules = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
    restore = []
    try:
        for layer, fns in LAYERS.items():
            home = getattr(pkg, layer)
            for short in fns:
                name = f"{layer}.{short}"
                owner_name, _, meth = short.rpartition(".")
                if short in CLASS_ENTRY:
                    owner_name, meth = short, CLASS_ENTRY[short]
                if owner_name:
                    owner = getattr(home, owner_name)
                    orig = owner.__dict__[meth]
                    restore.append((owner, meth, orig))
                    setattr(owner, meth, _wrap(orig, tracer, name, None))
                    continue
                orig = getattr(home, short)
                wrapped = _wrap(orig, tracer, name, _hook(short, orig, pkg))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, fns in LAYERS.items():
        for short in fns:
            out.append((f"{layer}.{short}.calls", "count"))
            out.append((f"{layer}.{short}.self_s", "s"))
    out += [(n, "count") for n in COUNTER_NAMES]
    out += [("fintop.is_continuous.accept_ratio", "ratio"),
            ("chaos.region_ops_per_word", "ratio")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.raised", "count")]
    out += [("bench.self_s", "s")]
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer values from a finished trace, and notes on ratios whose
    base is zero on this workload (reported as 0)."""
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent, tracer.leaf_s)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    under: Counter = Counter()  # (parent name id, name id) -> calls
    for i, nid in enumerate(tracer.name):
        calls[nid] += 1
        self_s[nid] += selfs[i]
        p = tracer.parent[i]
        under[(tracer.name[p] if p >= 0 else -1, nid)] += 1
    for (_, pnid, nid), (n, total) in tracer.leaves.items():
        calls[nid] += n
        self_s[nid] += total
        under[(pnid, nid)] += n
    by_name = {name: i for i, name in enumerate(names)}

    def get(table, name):
        return table.get(by_name.get(name, -1), 0)

    m = {}
    for layer, fns in LAYERS.items():
        layer_self = 0.0
        raised = 0
        for short in fns:
            name = f"{layer}.{short}"
            m[f"{name}.calls"] = get(calls, name)
            m[f"{name}.self_s"] = get(self_s, name)
            layer_self += m[f"{name}.self_s"]
            raised += get(tracer.raised, name)
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.raised"] = raised
    m["bench.self_s"] = get(self_s, ROOT)
    for name in COUNTER_NAMES:
        m[name] = tracer.counters.get(name, 0)
    notes = []
    attempts = m["fintop.is_continuous.calls"]
    m["fintop.is_continuous.accept_ratio"] = (
        m["fintop.is_continuous.accepted"] / attempts if attempts else 0)
    if not attempts:
        notes.append("fintop.is_continuous.accept_ratio: no is_continuous "
                     "calls on this workload, reported as 0")
    words = m["chaos.word_enclosure.calls"]
    ops = under[(by_name.get("chaos.word_enclosure", -2),
                 by_name.get("geometry.region_intersect", -2))]
    m["chaos.region_ops_per_word"] = ops / words if words else 0
    if not words:
        notes.append("chaos.region_ops_per_word: no word_enclosure calls on "
                     "this workload, reported as 0")
    return m, notes
