"""Command-line surface: every construction and verification, with
deterministic machine-readable output.

Documents (JSON, or CSV as flattened path/value rows) go to --out; human
summaries go to standard output, after the document is written.  Identical
invocations produce byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one check failed, 2 input rejected, before any check ran
or, for an --out that cannot be written, before anything is printed.
--format csv and --decimal need --out, and --swap-halves excludes --block.
Every leaf command is one entry of the `COMMANDS` table.  Each call builds
the parser tree from that table, but only the branch its argv selects gets
its arguments: the other groups get their names and help lines only, and
the selected group's other leaves their names.  The kinds of a --kind
group share one parser, so an option of another kind that differs from its
default is rejected with 2.
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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import chaos as chaos_mod
from . import embedding as embed_mod
from . import fintop as fintop_mod
from . import surject as surject_mod
from .errors import ConstructionError, InputError
from .geometry import (
    decimal_str,
    parse_rational,
    point_doc,
    rational_str,
    region_doc,
)

PROG = "primchaos"
EMBED_MAX_DEPTH = 12
MAX_CELLS = 2 ** 20
MAX_WORD = 1024
# decimal_str writes one digit per loop step for each rational of a document
MAX_DECIMAL = 1024
# the waypoint certificate looks up each pin's piece in a scan of them all
MAX_POINTS = 256

EPILOG = """\
output formats:
  json   one UTF-8 JSON object, two-space indent, newline-terminated
  csv    the same document flattened to rows "path,value"; with --decimal N
         an extra "approx" column holds truncated N-digit decimals for
         rational values (approximate, for plotting only)

work limits:
  embed --depth at most 12; surject at most 2^20 cells (2^depth cylinders
  or interval cells, 4^depth quadrants); surject --kind waypoint at most 256
  --point pins; chaos transitivity at most 2^12 cells (2^depth on the
  two-event systems, so --depth 1..12);
  chaos sensitivity at most 2^20 orbit steps (--samples times a step budget
  of the bit length of 1/delta, plus 8), and --delta at most 1024 bits in
  its numerator and in its denominator;
  chaos realize and periodic --word 1..1024 symbols; chaos dense --depth
  1..8; chaos sensitivity --samples 1..10000; fintop spaces discreteN with
  1 <= N <= 8; --decimal 0..1024
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


def _write_out(path: str, payload: bytes) -> None:
    """Write the document to --out, or reject the path and leave no file."""
    opened = False
    try:
        with open(path, "wb") as fh:
            opened = True
            fh.write(payload)
    except OSError as exc:
        if opened and os.path.isfile(path):
            os.remove(path)
        raise InputError(f"cannot write --out {path!r}: "
                         f"{exc.strerror or exc}") from exc


def _emit(args, doc: dict, summary: List[str]) -> None:
    if args.out:
        _write_out(args.out, encode_document(doc, args.format, args.decimal))
        summary = summary + [f"document written to {args.out}"]
    for line in summary:
        print(line)


# Command bodies: each returns (document, summary lines, passed).


def _report(rep, header: str, **fields):
    doc = rep.to_document()  # with fields, nested under "report" after them
    return ({**fields, "report": doc} if fields else doc,
            [header] + rep.summary_lines(), rep.all_passed)


def _embed(args):
    if args.depth > EMBED_MAX_DEPTH:
        raise InputError(f"depth {args.depth} exceeds cap {EMBED_MAX_DEPTH}")
    tree = embed_mod.build_refinement(embed_mod.make_model(args.model),
                                      args.depth)
    summary = [f"embed: {args.model} refinement to depth {args.depth}, "
               f"{2 ** args.depth} leaf cells"]
    ok = True
    for level in range(args.depth + 1):
        rep = embed_mod.check_stage_invariants(tree, level)
        ok = ok and rep.all_passed
        summary.append(f"level {level}: {rep.n_passed}/{len(rep.checks)} "
                       f"stage invariants hold")
    return embed_mod.tree_document(tree), summary, ok


def _word(args) -> str:
    # the documents grow as the square of the word length
    if not 1 <= len(args.word) <= MAX_WORD:
        raise InputError(f"word length must be in 1..{MAX_WORD}")
    return args.word


def _chaos_realize(args):
    res = chaos_mod.realize_witness(chaos_mod.make_system(args.system),
                                    _word(args))
    return res.to_document(), [
        f"chaos realize: system {args.system}, word {res.word}",
        f"enclosure: {region_doc(res.enclosure)}",
        f"witness: {point_doc(res.witness)}",
        f"orbit: {[point_doc(p) for p in res.orbit]}",
    ], True


def _chaos_periodic(args):
    orb = chaos_mod.periodic_point(chaos_mod.make_system(args.system),
                                   _word(args))
    summary = [f"chaos periodic: system {args.system}, word {orb.word}"]
    if orb.reduced_from:
        summary.append(f"note: input word {orb.reduced_from} reduced to "
                       f"primitive root {orb.word}")
    summary += [f"point: {point_doc(orb.point)}",
                f"prime period: {orb.prime_period}",
                f"orbit: {[point_doc(p) for p in orb.orbit]}"]
    return orb.to_document(), summary, True


def _chaos_dense(args):
    if not 1 <= args.depth <= 8:
        raise InputError("dense-orbit depth must be in 1..8")
    word = chaos_mod.dense_orbit_word(args.depth)
    rep = chaos_mod.verify_dense_orbit(chaos_mod.make_system(args.system),
                                       args.depth)
    return _report(rep, f"chaos dense: system {args.system}, depth "
                        f"{args.depth}, word {word}", system=args.system,
                   depth=args.depth, word=word)


def _chaos_sensitivity(args):
    delta = parse_rational(args.delta)
    if not 1 <= args.samples <= 10000:
        raise InputError("samples must be in 1..10000")
    rep = chaos_mod.sensitivity_check(chaos_mod.make_system(args.system),
                                      delta, args.samples)
    return _report(rep, f"chaos sensitivity: {rep.instance}")


def _chaos_transitivity(args):
    rep = chaos_mod.transitivity_check(chaos_mod.make_system(args.system),
                                       args.depth)
    return _report(rep, f"chaos transitivity: {rep.instance}")


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
        points.append((parse_rational(x_part),
                       tuple(parse_rational(c) for c in y_part.split(","))))
    return points


def _address_samples(depth: int) -> List[str]:
    words = ["", "0", "1", "01", "10", "0" * depth, "1" * depth,
             ("01" * depth)[:depth], ("10" * depth)[:depth]]
    return list(dict.fromkeys(w for w in words if len(w) <= depth))


def _entry(value, depth: int, enclosure) -> dict:
    """One transcript entry: an evaluated input and its enclosure."""
    return {"input": value, "depth": depth, "enclosure": region_doc(enclosure)}


def _surject_covering(args):
    depth = args.depth
    f = surject_mod.CantorMap(
        "binary_expansion" if args.kind == "binary" else "interleave")
    rep = surject_mod.verify_cover_map(f, depth)
    transcript = [_entry(w, len(w), surject_mod.evaluate_map(f, w))
                  for w in _address_samples(depth)]
    return _report(rep, f"surject {args.kind}: depth {depth}, modulus "
                        f"{rational_str(f.modulus(depth))}",
                   descriptor=surject_mod.map_document(f), depth=depth,
                   transcript=transcript)


def _surject_hilbert(args):
    depth = args.depth
    rep = surject_mod.verify_curve(depth)
    step = Fraction(1, 4 ** depth)
    cells = [(j * step, (j + 1) * step) for j in range(min(4 ** depth, 8))]
    transcript = [_entry([rational_str(lo), rational_str(hi)], depth,
                         surject_mod.hilbert_enclosure((lo, hi)))
                  for lo, hi in cells]
    return _report(rep, f"surject hilbert: depth {depth}",
                   descriptor={"kind": "hilbert", "target": "square"},
                   depth=depth, transcript=transcript)


def _surject_block(args):
    depth = args.depth
    if args.swap_halves and args.block:
        raise InputError("--swap-halves and --block cannot be combined")
    if args.swap_halves:
        blocks_a, blocks_b = _parse_blocks(["0:1", "1:0"])
    elif args.block:
        blocks_a, blocks_b = _parse_blocks(args.block)
    else:
        raise InputError("block kind needs --swap-halves or --block A:B")
    f = surject_mod.block_surjection(blocks_a, blocks_b)
    rep = surject_mod.verify_block_surjection(f, blocks_a, blocks_b, depth)
    words = [a_blk.cylinders[0].ljust(depth, "0") for a_blk, _ in f.pairs]
    transcript = [_entry(w, len(w), surject_mod.evaluate_map(f, w))
                  for w in words]
    pad = ", 1 padding" if len(f.pairs) > len(blocks_a) else ""
    return _report(rep, f"surject block: {len(f.pairs)} blocks "
                        f"({len(blocks_a)} given{pad}), depth {depth}, "
                        f"eps {rational_str(f.modulus(depth))}",
                   descriptor=surject_mod.map_document(f), depth=depth,
                   transcript=transcript)


def _surject_waypoint(args):
    depth = args.depth
    if not args.point:
        raise InputError("waypoint kind needs at least one --point X=Y")
    if len(args.point) > MAX_POINTS:
        raise InputError(f"at most {MAX_POINTS} --point pins, "
                         f"got {len(args.point)}")
    wmap = surject_mod.waypoint_map(_parse_waypoints(args.point), args.target)
    ws = surject_mod.waypoint_surjection(wmap)
    rep = surject_mod.verify_waypoint_surjection(ws, resolution=depth)
    transcript = [_entry(rational_str(x), depth,
                         surject_mod.evaluate_waypoint(ws, x, depth))
                  for x, _ in wmap.waypoints]
    return _report(rep, f"surject waypoint onto {args.target}: "
                        f"{len(wmap.waypoints)} pin(s), resolution 2^-{depth}",
                   descriptor=surject_mod.waypoint_document(ws), depth=depth,
                   transcript=transcript)


def _space_and_partition(args):
    X = fintop_mod.named_space(args.space)
    blocks = [list(part) for part in args.blocks.split("|")]
    return X, fintop_mod.partition(X, blocks)


def _fintop_quotient(args):
    X, D = _space_and_partition(args)
    Q = fintop_mod.decomposition_topology(X, D)
    doc = {"space": args.space, "blocks": args.blocks,
           "quotient": fintop_mod.space_document(Q)}
    summary = [f"fintop quotient: {args.space} / {args.blocks}",
               f"points: {list(Q.points)}"]
    summary += [f"  open: {{{' | '.join(ls)}}}" for ls in Q.open_label_sets()]
    return doc, summary, True


def _fintop_prop5(args):
    X, D = _space_and_partition(args)
    reps = args.reps.split(",")
    res = fintop_mod.verify_prop5(X, D, reps)
    doc = {"space": args.space, "blocks": args.blocks,
           "reps": reps, "holds": res.holds,
           "hypothesis_met": res.hypothesis_met, "detail": res.detail}
    return doc, [f"fintop verify-prop5: {args.space} / {args.blocks} "
                 f"reps {args.reps}",
                 f"  homeomorphic: {res.holds}  ({res.detail})"], res.holds


def _fintop_lemma7(args):
    X = fintop_mod.named_space(args.space)
    Y = fintop_mod.named_space(args.codomain)
    pairs = args.mapping.split(",")
    try:
        assign = dict(pair.split("=", 1) for pair in pairs)
    except ValueError:
        raise InputError(f"bad map syntax {args.mapping!r}")
    if len(assign) != len(pairs):
        raise InputError(f"map assigns a point twice: {args.mapping!r}")
    res = fintop_mod.verify_lemma7(fintop_mod.finite_map(X, Y, assign))
    doc = {"space": args.space, "codomain": args.codomain,
           "map": args.mapping, "holds": res.holds,
           "hypothesis_met": res.hypothesis_met, "detail": res.detail}
    return doc, [f"fintop verify-lemma7: {args.space} -> {args.codomain}",
                 f"  fiber quotient homeomorphic: {res.holds}  "
                 f"({res.detail})"], res.holds


def _fintop_sweep(args):
    rep = fintop_mod.sweep("abcd")
    return _report(rep, rep.instance)


def _arg(*flags, **kwargs):
    return flags, kwargs


def _surject_cells(args, base: int) -> int:
    # base**depth cells: below depth 0 the library rejects, past 64 the gate
    return base ** max(0, min(args.depth, 64))


def _sensitivity_steps(args) -> int:
    # each sample's orbit pairs run for at most the check's step budget
    return args.samples * chaos_mod.sensitivity_budget(
        parse_rational(args.delta))


class Command(NamedTuple):
    args: tuple  # parser arguments, as (flags, keyword arguments) pairs
    run: Callable  # args -> (document, summary lines, passed)
    cells: Optional[Callable] = None  # args -> cells of work, at most MAX_CELLS


COMMON = (
    _arg("--out", help="write the result document to this path"),
    _arg("--format", choices=["json", "csv"], default="json",
         help="document encoding (default json)"),
    _arg("--decimal", type=int, metavar="N",
         help="add truncated N-digit decimal column (needs --format csv "
              "and --out)"),
)
SYSTEM = _arg("--system", choices=chaos_mod.SYSTEM_KINDS, required=True)
WORD = _arg("--word", required=True, help="event word, e.g. 0110")
DEPTH = _arg("--depth", type=int, required=True)
SURJECT_DEPTH = _arg("--depth", type=int, default=8,
                     help="verification/evaluation depth (default 8)")
SPACE = _arg("--space", required=True)

# group -> (help, what picks its leaf in COMMANDS: a subcommand, --kind, none)
GROUPS = {
    "embed": ("build a Cantor refinement tree inside a Peano continuum model",
              None),
    "chaos": ("primitive-chaos witnesses and chaos-property certificates",
              "subcommand"),
    "surject": ("continuous surjections with constraints and certified "
                "enclosures", "kind"),
    "fintop": ("finite topological spaces and decomposition (quotient) "
               "topologies", "subcommand"),
}

COMMANDS = {
    ("embed",): Command(
        (_arg("--model", choices=embed_mod.MODEL_KINDS, required=True), DEPTH),
        _embed),
    ("chaos", "realize"): Command((SYSTEM, WORD), _chaos_realize),
    ("chaos", "periodic"): Command((SYSTEM, WORD), _chaos_periodic),
    ("chaos", "dense"): Command((SYSTEM, DEPTH), _chaos_dense),
    ("chaos", "sensitivity"): Command(
        (SYSTEM, _arg("--delta", required=True,
                      help="perturbation bound as p/q"),
         _arg("--samples", type=int, default=100)),
        _chaos_sensitivity, _sensitivity_steps),
    ("chaos", "transitivity"): Command((SYSTEM, DEPTH), _chaos_transitivity),
    ("surject", "binary"): Command(
        (SURJECT_DEPTH,), _surject_covering, lambda a: _surject_cells(a, 2)),
    ("surject", "interleave"): Command(
        (SURJECT_DEPTH,), _surject_covering, lambda a: _surject_cells(a, 2)),
    ("surject", "block"): Command(
        (SURJECT_DEPTH,
         _arg("--swap-halves", action="store_true", default=False,
              help="block preset: swap the two halves of the Cantor set"),
         _arg("--block", action="append", default=[], metavar="A:B",
              help="block constraint cyl+cyl:cyl+cyl, e.g. 00+01:1 "
                   "(repeatable)")),
        _surject_block, lambda a: _surject_cells(a, 2)),
    ("surject", "waypoint"): Command(
        (SURJECT_DEPTH,
         _arg("--target", choices=["interval", "square"], default="interval",
              help="waypoint target space"),
         _arg("--point", action="append", default=[], metavar="X=Y",
              help="waypoint pin x=y or x=y1,y2, e.g. 1/2=1/2,1/2 "
                   "(repeatable)")),
        _surject_waypoint,
        lambda a: _surject_cells(a, 4 if a.target == "square" else 2)),
    ("surject", "hilbert"): Command(
        (SURJECT_DEPTH,), _surject_hilbert, lambda a: _surject_cells(a, 4)),
    ("fintop", "quotient"): Command(
        (_arg("--space", required=True,
              help="chain3, sierpinski, or discreteN"),
         _arg("--blocks", required=True,
              help="partition, blocks separated by '|', e.g. ab|c")),
        _fintop_quotient),
    ("fintop", "verify-prop5"): Command(
        (SPACE, _arg("--blocks", required=True),
         _arg("--reps", required=True,
              help="one representative per block, comma separated")),
        _fintop_prop5),
    ("fintop", "verify-lemma7"): Command(
        (SPACE, _arg("--codomain", required=True),
         _arg("--map", required=True, dest="mapping",
              help="assignment a=p,b=q,...")),
        _fintop_lemma7),
    ("fintop", "sweep"): Command((), _fintop_sweep),
}


def _add_arguments(p: argparse.ArgumentParser, specs) -> None:
    for flags, kwargs in (*specs, *COMMON):
        p.add_argument(*flags, **kwargs)


def _selected_branch(argv: Optional[Sequence[str]]) -> Optional[tuple]:
    """The group, or in a subcommand group the (group, leaf), that argv names
    exactly; None, for the whole tree, when argv names no such branch."""
    if not argv or argv[0] not in GROUPS:
        return None
    if GROUPS[argv[0]][1] != "subcommand":
        return (argv[0],)
    path = tuple(argv[:2])
    return path if path in COMMANDS else None


def build_parser(argv: Optional[Sequence[str]] = None
                 ) -> argparse.ArgumentParser:
    """The parser of every command, built from `COMMANDS`.

    Every group parser is created, and in the group that argv selects every
    leaf parser, so the names, help lines and errors on argv's path are
    those of the whole tree.  Only the selected group, or in a subcommand
    group the selected leaf, gets its arguments.  Without argv, or when argv
    does not name a group and leaf exactly, the whole tree is built.
    """
    branch = _selected_branch(argv)
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact constructions for Cantor sets, coarse-graining "
                    "quotients, constrained surjections, and primitive-chaos "
                    "certificates",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group, (help_text, choice) in GROUPS.items():
        p = sub.add_parser(group, help=help_text)
        if branch is not None and branch[0] != group:
            continue
        leaves = [(path[1:], cmd) for path, cmd in COMMANDS.items()
                  if path[0] == group]
        if choice == "subcommand":
            leaf_sub = p.add_subparsers(dest=choice, required=True)
            for (name,), cmd in leaves:
                leaf = leaf_sub.add_parser(name)
                if branch in (None, (group, name)):
                    _add_arguments(leaf, cmd.args)
            continue
        if choice == "kind":
            p.add_argument("--kind", required=True,
                           choices=[name for (name,), _ in leaves])
        # the kinds share one parser, so each of their options is added once
        _add_arguments(p, {spec[0]: spec for _, cmd in leaves
                           for spec in cmd.args}.values())
    return parser


def _check_out(path: str) -> None:
    """Reject an --out that is a directory or lies in a missing one."""
    if os.path.isdir(path):
        raise InputError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise InputError(f"--out directory {parent!r} does not exist")


def _check_kind_options(path: tuple, args) -> None:
    """Reject an option of another kind of the group, which the kinds' shared
    parser accepts: one whose value differs from its parser default."""
    seen = {flags for flags, _ in COMMANDS[path].args}
    for other, cmd in COMMANDS.items():
        for flags, kwargs in cmd.args:
            if other[0] != path[0] or flags in seen:
                continue
            seen.add(flags)
            dest = kwargs.get("dest", flags[0][2:].replace("-", "_"))
            if getattr(args, dest) != kwargs.get("default"):
                raise InputError(f"{flags[0]} does not apply to --kind "
                                 f"{path[1]}")


def _execute(cmd: Command, args) -> int:
    """Gate the input's work, run, emit the result, and return the exit code."""
    if cmd.cells is not None and cmd.cells(args) > MAX_CELLS:
        raise InputError(f"input exceeds the work limit of {MAX_CELLS} cells "
                         f"or orbit steps (see --help)")
    doc, summary, passed = cmd.run(args)
    _emit(args, doc, summary + ["result: PASS" if passed else "result: FAIL"])
    return 0 if passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.decimal is not None:
            if args.decimal < 0:
                raise InputError("--decimal must be >= 0")
            if args.decimal > MAX_DECIMAL:
                raise InputError(f"--decimal must be at most {MAX_DECIMAL}")
            if args.format != "csv":
                raise InputError("--decimal needs --format csv")
        if not args.out and (args.format != "json" or
                             args.decimal is not None):
            raise InputError("--format csv and --decimal need --out")
        if args.out:
            _check_out(args.out)
        choice = GROUPS[args.command][1]
        path = (args.command,) + ((getattr(args, choice),) if choice else ())
        if choice == "kind":
            _check_kind_options(path, args)
        return _execute(COMMANDS[path], args)
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        # a certificate failed; any other exception is a bug and propagates
        print(f"{PROG}: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
