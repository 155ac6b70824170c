"""Command-line surface: every construction and verification, with
deterministic machine-readable output.

Documents (JSON, or CSV as flattened path/value rows) go to --out; human
summaries go to standard output.  Identical invocations produce
byte-identical output.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 input rejected before any check ran.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import chaos as chaos_mod
from . import embedding as embed_mod
from . import fintop as fintop_mod
from . import surject as surject_mod
from .errors import ConstructionError, InputError, InternalConsistencyError
from .geometry import (
    Address,
    decimal_str,
    parse_rational,
    point_doc,
    rational_str,
    region_doc,
)

PROG = "primchaos"
MAX_DEPTH_ENV = "PRIMCHAOS_MAX_DEPTH"
DEFAULT_MAX_DEPTH = 12

EPILOG = """\
output formats:
  json   one UTF-8 JSON object, two-space indent, newline-terminated
  csv    the same document flattened to rows "path,value"; with --decimal N
         an extra "approx" column holds truncated N-digit decimals for
         rational values (approximate, for plotting only)

environment:
  PRIMCHAOS_MAX_DEPTH   resource cap for `embed --depth` (default 12)
"""


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield prefix, doc


_RAT_RE = re.compile(r"^-?\d+/\d+$")


def encode_document(doc: dict, fmt: str, decimal: Optional[int]) -> bytes:
    if fmt == "json":
        return (json.dumps(doc, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if decimal is None:
        writer.writerow(["path", "value"])
        for path, value in _flatten(doc):
            writer.writerow([path, value])
    else:
        writer.writerow(["path", "value", "approx"])
        for path, value in _flatten(doc):
            approx = ""
            if isinstance(value, str) and _RAT_RE.match(value):
                approx = decimal_str(parse_rational(value), decimal)
            writer.writerow([path, value, approx])
    return buf.getvalue().encode()


def _emit(args, doc: dict, summary: List[str]) -> None:
    for line in summary:
        print(line)
    if args.out:
        payload = encode_document(doc, args.format, args.decimal)
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(f"document written to {args.out}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the result document to this path")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="document encoding (default json)")
    p.add_argument("--decimal", type=int, metavar="N",
                   help="add truncated N-digit decimal column (csv only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact constructions for Cantor sets, coarse-graining "
                    "quotients, constrained surjections, and primitive-chaos "
                    "certificates",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="build a Cantor refinement tree inside "
                                     "a Peano continuum model")
    p.add_argument("--model", choices=embed_mod.MODEL_KINDS, required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("chaos", help="primitive-chaos witnesses and "
                                     "chaos-property certificates")
    csub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("realize", "periodic", "dense", "sensitivity", "transitivity"):
        cp = csub.add_parser(name)
        cp.add_argument("--system", choices=chaos_mod.SYSTEM_KINDS, required=True)
        if name in ("realize", "periodic"):
            cp.add_argument("--word", required=True,
                            help="event word, e.g. 0110")
        if name in ("dense", "transitivity"):
            cp.add_argument("--depth", type=int, required=True)
        if name == "sensitivity":
            cp.add_argument("--delta", required=True,
                            help="perturbation bound as p/q")
            cp.add_argument("--samples", type=int, default=100)
        _add_common(cp)

    p = sub.add_parser("surject", help="continuous surjections with "
                                       "constraints and certified enclosures")
    p.add_argument("--kind", required=True,
                   choices=["binary", "interleave", "block", "waypoint",
                            "hilbert"])
    p.add_argument("--depth", type=int, default=8,
                   help="verification/evaluation depth (default 8)")
    p.add_argument("--swap-halves", action="store_true",
                   help="block preset: swap the two halves of the Cantor set")
    p.add_argument("--block", action="append", default=[], metavar="A:B",
                   help="block constraint cyl+cyl:cyl+cyl, e.g. 00+01:1 "
                        "(repeatable)")
    p.add_argument("--target", choices=["interval", "square"],
                   default="interval", help="waypoint target space")
    p.add_argument("--point", action="append", default=[], metavar="X=Y",
                   help="waypoint pin x=y or x=y1,y2, e.g. 1/2=1/2,1/2 "
                        "(repeatable)")
    _add_common(p)

    p = sub.add_parser("fintop", help="finite topological spaces and "
                                      "decomposition (quotient) topologies")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fp = fsub.add_parser("quotient")
    fp.add_argument("--space", required=True,
                    help="chain3, sierpinski, or discreteN")
    fp.add_argument("--blocks", required=True,
                    help="partition, blocks separated by '|', e.g. ab|c")
    _add_common(fp)
    fp = fsub.add_parser("verify-prop5")
    fp.add_argument("--space", required=True)
    fp.add_argument("--blocks", required=True)
    fp.add_argument("--reps", required=True,
                    help="one representative per block, comma separated")
    _add_common(fp)
    fp = fsub.add_parser("verify-lemma7")
    fp.add_argument("--space", required=True)
    fp.add_argument("--codomain", required=True)
    fp.add_argument("--map", required=True, dest="mapping",
                    help="assignment a=p,b=q,...")
    _add_common(fp)
    fp = fsub.add_parser("sweep")
    _add_common(fp)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _max_depth() -> int:
    raw = os.environ.get(MAX_DEPTH_ENV)
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{MAX_DEPTH_ENV} must be an integer, got {raw!r}")


def cmd_embed(args) -> int:
    if args.depth < 0:
        raise InputError("depth must be >= 0")
    cap = _max_depth()
    if args.depth > cap:
        raise InputError(f"depth {args.depth} exceeds cap {cap} "
                         f"(set {MAX_DEPTH_ENV} to raise it)")
    model = embed_mod.make_model(args.model)
    tree = embed_mod.build_refinement(model, args.depth)
    summary = [f"embed: {args.model} refinement to depth {args.depth}, "
               f"{2 ** args.depth} leaf cells"]
    ok = True
    for level in range(args.depth + 1):
        rep = embed_mod.check_stage_invariants(tree, level)
        ok = ok and rep.all_passed
        summary.append(f"level {level}: {rep.n_passed}/{len(rep.checks)} "
                       f"stage invariants hold")
    summary.append("result: PASS" if ok else "result: FAIL")
    _emit(args, embed_mod.tree_document(tree), summary)
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    system = chaos_mod.make_system(args.system)
    if args.subcommand == "realize":
        res = chaos_mod.realize_witness(system, args.word)
        summary = [
            f"chaos realize: system {args.system}, word {res.word}",
            f"enclosure: {region_doc(res.enclosure)}",
            f"witness: {point_doc(res.witness)}",
            f"orbit: {[point_doc(p) for p in res.orbit]}",
            "result: PASS",
        ]
        _emit(args, res.to_document(), summary)
        return 0
    if args.subcommand == "periodic":
        orb = chaos_mod.periodic_point(system, args.word)
        summary = [f"chaos periodic: system {args.system}, word {orb.word}"]
        if orb.reduced_from:
            summary.append(f"note: input word {orb.reduced_from} reduced to "
                           f"primitive root {orb.word}")
        summary += [
            f"point: {point_doc(orb.point)}",
            f"prime period: {orb.prime_period}",
            f"orbit: {[point_doc(p) for p in orb.orbit]}",
            "result: PASS",
        ]
        _emit(args, orb.to_document(), summary)
        return 0
    if args.subcommand == "dense":
        if not 1 <= args.depth <= 8:
            raise InputError("dense-orbit depth must be in 1..8")
        word = chaos_mod.dense_orbit_word(args.depth)
        rep = chaos_mod.verify_dense_orbit(system, args.depth)
        doc = {"system": args.system, "depth": args.depth,
               "word": str(word), "report": rep.to_document()}
        summary = [f"chaos dense: system {args.system}, depth {args.depth}, "
                   f"word {word}"]
        summary += rep.summary_lines()
        summary.append("result: PASS" if rep.all_passed else "result: FAIL")
        _emit(args, doc, summary)
        return 0 if rep.all_passed else 1
    if args.subcommand == "sensitivity":
        delta = parse_rational(args.delta)
        if not 1 <= args.samples <= 10000:
            raise InputError("samples must be in 1..10000")
        rep = chaos_mod.sensitivity_check(system, delta, args.samples)
        summary = [f"chaos sensitivity: {rep.instance}"]
        summary += rep.summary_lines()
        summary.append("result: PASS" if rep.all_passed else "result: FAIL")
        _emit(args, rep.to_document(), summary)
        return 0 if rep.all_passed else 1
    rep = chaos_mod.transitivity_check(system, args.depth)
    summary = [f"chaos transitivity: {rep.instance}"]
    summary += rep.summary_lines()
    summary.append("result: PASS" if rep.all_passed else "result: FAIL")
    _emit(args, rep.to_document(), summary)
    return 0 if rep.all_passed else 1


def _parse_blocks(args_list: List[str]) -> Tuple[list, list]:
    blocks_a, blocks_b = [], []
    for item in args_list:
        if ":" not in item:
            raise InputError(f"block constraint needs A:B, got {item!r}")
        a_part, b_part = item.split(":", 1)
        blocks_a.append(surject_mod.ClopenBlock(tuple(a_part.split("+"))))
        blocks_b.append(surject_mod.ClopenBlock(tuple(b_part.split("+"))))
    return blocks_a, blocks_b


def _parse_waypoints(args_list: List[str]) -> List[Tuple[Fraction, tuple]]:
    points = []
    for item in args_list:
        if "=" not in item:
            raise InputError(f"waypoint needs X=Y, got {item!r}")
        x_part, y_part = item.split("=", 1)
        x = parse_rational(x_part)
        y = tuple(parse_rational(c) for c in y_part.split(","))
        points.append((x, y))
    return points


def _address_samples(depth: int) -> List[str]:
    fixed = ["", "0", "1", "01", "10"]
    full = ["0" * depth, "1" * depth,
            ("01" * depth)[:depth], ("10" * depth)[:depth]]
    seen = []
    for w in fixed + full:
        if w not in seen and len(w) <= depth:
            seen.append(w)
    return seen


def cmd_surject(args) -> int:
    depth = args.depth
    if depth < 0:
        raise InputError("depth must be >= 0")
    if depth > 20:
        raise InputError("depth capped at 20 for surjection verification")
    if args.kind in ("binary", "interleave"):
        kind = "binary_expansion" if args.kind == "binary" else "interleave"
        f = surject_mod.CantorMap(kind=kind,
                                  target="interval" if args.kind == "binary"
                                  else "square")
        rep = surject_mod.verify_cover_map(f, depth)
        transcript = [
            {"input": w, "depth": len(w),
             "enclosure": region_doc(
                 surject_mod.evaluate_map(f, Address.from_string(w)))}
            for w in _address_samples(depth)
        ]
        doc = {"descriptor": surject_mod.map_document(f), "depth": depth,
               "transcript": transcript, "report": rep.to_document()}
        summary = [f"surject {args.kind}: depth {depth}, modulus "
                   f"{rational_str(f.modulus(depth))}"]
        summary += rep.summary_lines()
        summary.append("result: PASS" if rep.all_passed else "result: FAIL")
        _emit(args, doc, summary)
        return 0 if rep.all_passed else 1
    if args.kind == "hilbert":
        rep = surject_mod.verify_curve(depth)
        transcript = []
        step = Fraction(1, 4 ** depth)
        for j in range(min(4 ** depth, 8)):
            cell = (j * step, (j + 1) * step)
            transcript.append({
                "input": [rational_str(cell[0]), rational_str(cell[1])],
                "depth": depth,
                "enclosure": region_doc(surject_mod.hilbert_enclosure(cell)),
            })
        doc = {"descriptor": {"kind": "hilbert", "target": "square"},
               "depth": depth, "transcript": transcript,
               "report": rep.to_document()}
        summary = [f"surject hilbert: depth {depth}"]
        summary += rep.summary_lines()
        summary.append("result: PASS" if rep.all_passed else "result: FAIL")
        _emit(args, doc, summary)
        return 0 if rep.all_passed else 1
    if args.kind == "block":
        if args.swap_halves:
            blocks_a = [surject_mod.ClopenBlock(("0",)),
                        surject_mod.ClopenBlock(("1",))]
            blocks_b = [surject_mod.ClopenBlock(("1",)),
                        surject_mod.ClopenBlock(("0",))]
        elif args.block:
            blocks_a, blocks_b = _parse_blocks(args.block)
        else:
            raise InputError("block kind needs --swap-halves or --block A:B")
        f = surject_mod.block_surjection(blocks_a, blocks_b)
        rep = surject_mod.verify_block_surjection(f, blocks_a, blocks_b, depth)
        transcript = []
        for a_blk, _ in f.pairs:
            w = a_blk.cylinders[0]
            wfull = w + "0" * (depth - len(w)) if depth > len(w) else w
            transcript.append({
                "input": wfull, "depth": len(wfull),
                "enclosure": region_doc(
                    surject_mod.evaluate_map(f, Address.from_string(wfull))),
            })
        doc = {"descriptor": surject_mod.map_document(f), "depth": depth,
               "transcript": transcript, "report": rep.to_document()}
        summary = [f"surject block: {len(f.pairs)} blocks "
                   f"({len(blocks_a)} given"
                   + (", 1 padding)" if len(f.pairs) > len(blocks_a) else ")")
                   + f", depth {depth}, eps {rational_str(f.modulus(depth))}"]
        summary += rep.summary_lines()
        summary.append("result: PASS" if rep.all_passed else "result: FAIL")
        _emit(args, doc, summary)
        return 0 if rep.all_passed else 1
    # waypoint
    if not args.point:
        raise InputError("waypoint kind needs at least one --point X=Y")
    wmap = surject_mod.waypoint_map(_parse_waypoints(args.point), args.target)
    ws = surject_mod.waypoint_surjection(wmap)
    rep = surject_mod.verify_waypoint_surjection(ws, resolution=depth)
    transcript = []
    for x, _ in wmap.waypoints:
        transcript.append({
            "input": rational_str(x), "depth": depth,
            "enclosure": region_doc(surject_mod.evaluate_waypoint(ws, x, depth)),
        })
    doc = {"descriptor": surject_mod.waypoint_document(ws), "depth": depth,
           "transcript": transcript, "report": rep.to_document()}
    summary = [f"surject waypoint onto {args.target}: "
               f"{len(wmap.waypoints)} pin(s), resolution 2^-{depth}"]
    summary += rep.summary_lines()
    summary.append("result: PASS" if rep.all_passed else "result: FAIL")
    _emit(args, doc, summary)
    return 0 if rep.all_passed else 1


def _parse_partition(X, blocks_arg: str):
    blocks = [list(part) for part in blocks_arg.split("|") if part != ""]
    return fintop_mod.partition(X, blocks)


def cmd_fintop(args) -> int:
    if args.subcommand == "quotient":
        X = fintop_mod.named_space(args.space)
        D = _parse_partition(X, args.blocks)
        Q = fintop_mod.decomposition_topology(X, D)
        doc = {"space": args.space, "blocks": args.blocks,
               "quotient": fintop_mod.space_document(Q)}
        summary = [f"fintop quotient: {args.space} / {args.blocks}",
                   f"points: {list(Q.points)}"]
        for ls in Q.open_label_sets():
            summary.append(f"  open: {{{' | '.join(ls)}}}")
        summary.append("result: PASS")
        _emit(args, doc, summary)
        return 0
    if args.subcommand == "verify-prop5":
        X = fintop_mod.named_space(args.space)
        D = _parse_partition(X, args.blocks)
        reps = args.reps.split(",")
        res = fintop_mod.verify_prop5(X, D, reps)
        rep_doc = {"space": args.space, "blocks": args.blocks,
                   "reps": reps, "holds": res.holds,
                   "hypothesis_met": res.hypothesis_met, "detail": res.detail}
        summary = [f"fintop verify-prop5: {args.space} / {args.blocks} "
                   f"reps {args.reps}",
                   f"  homeomorphic: {res.holds}  ({res.detail})",
                   "result: PASS" if res.holds else "result: FAIL"]
        _emit(args, rep_doc, summary)
        return 0 if res.holds else 1
    if args.subcommand == "verify-lemma7":
        X = fintop_mod.named_space(args.space)
        Y = fintop_mod.named_space(args.codomain)
        try:
            assign = dict(pair.split("=", 1) for pair in args.mapping.split(","))
        except ValueError:
            raise InputError(f"bad map syntax {args.mapping!r}")
        f = fintop_mod.finite_map(X, Y, assign)
        res = fintop_mod.verify_lemma7(f)
        rep_doc = {"space": args.space, "codomain": args.codomain,
                   "map": args.mapping, "holds": res.holds,
                   "hypothesis_met": res.hypothesis_met, "detail": res.detail}
        summary = [f"fintop verify-lemma7: {args.space} -> {args.codomain}",
                   f"  fiber quotient homeomorphic: {res.holds}  ({res.detail})",
                   "result: PASS" if res.holds else "result: FAIL"]
        _emit(args, rep_doc, summary)
        return 0 if res.holds else 1
    # sweep: exhaustive small-instance suites
    rep = fintop_mod.sweep("abcd")
    summary = [rep.instance]
    summary += rep.summary_lines()
    summary.append("result: PASS" if rep.all_passed else "result: FAIL")
    _emit(args, rep.to_document(), summary)
    return 0 if rep.all_passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "decimal", None) is not None and args.decimal < 0:
            raise InputError("--decimal must be >= 0")
        if args.command == "embed":
            return cmd_embed(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "surject":
            return cmd_surject(args)
        return cmd_fintop(args)
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, InternalConsistencyError) as exc:
        # a certificate failed; any other exception is a bug and propagates
        print(f"{PROG}: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
