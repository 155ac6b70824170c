"""CLI contract: golden-file byte equality for every documented invocation,
the exit-code contract, and format equivalence."""

import argparse
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_cases import CASES
from primchaos import chaos, cli, embedding, surject
from primchaos.cli import encode_document, main
from primchaos.errors import ConstructionError

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("name,argv,expect_code,has_doc",
                         CASES, ids=[c[0] for c in CASES])
def test_golden_invocations(name, argv, expect_code, has_doc,
                            tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code
    assert captured.out == (GOLDEN_DIR / f"{name}.out").read_text()
    assert captured.err == (GOLDEN_DIR / f"{name}.err").read_text()
    doc_path = tmp_path / "out.json"
    if has_doc:
        assert doc_path.read_bytes() == \
            (GOLDEN_DIR / f"{name}.doc.json").read_bytes()
    else:
        assert not doc_path.exists()


def test_repeat_invocations_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["embed", "--model", "interval", "--depth", "4",
            "--out", "out.json"]
    main(argv)
    first = capsys.readouterr().out
    first_doc = (tmp_path / "out.json").read_bytes()
    main(argv)
    assert capsys.readouterr().out == first
    assert (tmp_path / "out.json").read_bytes() == first_doc


def test_exit_code_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # 0: all checks pass
    assert main(["chaos", "transitivity", "--system", "tent",
                 "--depth", "1"]) == 0
    # 2: usage rejected by argparse (unknown choice)
    assert main(["embed", "--model", "torus", "--depth", "2"]) == 2
    # 2: rejected by validation before any check
    assert main(["embed", "--model", "interval", "--depth", "99"]) == 2
    # 2: missing subcommand
    assert main([]) == 2
    capsys.readouterr()


def _replace_run(monkeypatch, path, run):
    monkeypatch.setitem(cli.COMMANDS, path,
                        cli.COMMANDS[path]._replace(run=run))


@pytest.mark.parametrize("exc,code", [
    (ConstructionError("certificate broke"), 1),
])
def test_failed_certificates_exit_1(exc, code, capsys, monkeypatch):
    def body(args):
        raise exc
    _replace_run(monkeypatch, ("fintop", "sweep"), body)
    assert main(["fintop", "sweep"]) == code
    assert capsys.readouterr().err == f"primchaos: check failed: {exc}\n"


@pytest.mark.parametrize("exc", [TypeError("bug"), KeyError("bug")])
def test_programming_errors_surface(exc, capsys, monkeypatch):
    # a bug is not a failed check: it propagates with its traceback
    def body(args):
        raise exc
    _replace_run(monkeypatch, ("fintop", "sweep"), body)
    with pytest.raises(type(exc)):
        main(["fintop", "sweep"])
    assert "check failed" not in capsys.readouterr().err


def _parser_leaves(parser, prefix=()):
    """Every leaf command path the parser accepts: nested subcommands, and
    each --kind choice of a subcommand that has one."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_leaves(sub, prefix + (name,))
            return
    kind = [a for a in parser._actions if "--kind" in a.option_strings]
    if kind:
        yield from (prefix + (k,) for k in kind[0].choices)
    else:
        yield prefix


def test_every_parser_leaf_has_one_table_entry():
    leaves = list(_parser_leaves(cli.build_parser()))
    assert len(leaves) == len(set(leaves)) == 15
    assert sorted(leaves) == sorted(cli.COMMANDS)


REALIZE = ["chaos", "realize", "--system", "doubling", "--word", "01"]
SQUARE_PIN = ["surject", "--kind", "waypoint", "--target", "square",
              "--point", "1/2=1/2,1/2"]


def sensitivity(bits, samples):
    return ["chaos", "sensitivity", "--system", "doubling",
            "--delta", f"1/{2 ** bits}", "--samples", str(samples)]


def words(n, bits, head=""):
    """The first n words of `bits` bits after `head`, in binary order."""
    return [head + format(i, f"0{bits}b") for i in range(n)]


def block_argv(sources, targets):
    """One block of the source words onto the target words, at depth 20."""
    return ["surject", "--kind", "block", "--depth", "20",
            "--block", f"{'+'.join(sources)}:{'+'.join(targets)}"]


WORK_GATE_CASES = [
    (["surject", "--kind", "hilbert", "--depth", "10"], True),
    (["chaos", "transitivity", "--system", "doubling", "--depth", "10"], True),
    (SQUARE_PIN + ["--depth", "10"], True),
    (["surject", "--kind", "binary", "--depth", "20"], True),
    (["surject", "--kind", "waypoint", "--point", "1/2=1", "--depth", "20"],
     True),
    (["surject", "--kind", "hilbert", "--depth", "11"], False),
    (["surject", "--kind", "hilbert", "--depth", "20"], False),
    # transitivity's cells, alphabet ** depth
    (["chaos", "transitivity", "--system", "doubling", "--depth", "11"], True),
    (["chaos", "transitivity", "--system", "tent", "--depth", "12"], True),
    (SQUARE_PIN + ["--depth", "11"], False),
    (["surject", "--kind", "binary", "--depth", "21"], False),
    # the block certificate is bounded by its longest word, 1024 bits
    (["surject", "--kind", "block", "--swap-halves", "--depth", "21"], True),
    (["surject", "--kind", "interleave", "--depth", "10000000000"], False),
    # samples times the step budget, bit length of 1/delta plus 8
    (sensitivity(20, 20), True),
    (sensitivity(24, 100), True),
    (sensitivity(1000, 1039), True),
    (sensitivity(1000, 1040), False),
    (sensitivity(1000, 10000), False),
    # delta's numerator and denominator have at most 1024 bits each
    (sensitivity(1023, 1), True),
    (sensitivity(1024, 1), False),
    (sensitivity(13000, 80), False),
    (["chaos", "sensitivity", "--system", "doubling",
      "--delta", f"{2 ** 5000 + 1}/{2 ** 5001}", "--samples", "1"], False),
    # and by its steps, source times target cylinders: 512 * 256 is the
    # edge, and 512 words under 0 leave cyl 1 to the padding, one step more
    (block_argv(words(512, 9), words(256, 8)), True),
    (block_argv(words(512, 9, "0"), words(256, 8)), False),
    (block_argv(words(1024, 10), words(1024, 10)), False),
]


class Reached(Exception):
    """Raised by a spied kernel: the input passed its bound and work began."""


def _reached(*args, **kwargs):
    raise Reached


# where the work of each command above begins
KERNELS = [(chaos, "_cells"), (chaos, "_sensitivity_samples"),
           (surject, "_placement"), (surject, "_curve_certificate"),
           (surject, "_piece_at"), (surject, "_images")]


@pytest.mark.parametrize("argv,accepted", WORK_GATE_CASES)
def test_work_gate(argv, accepted, tmp_path, capsys, monkeypatch):
    # each library routine bounds its input before any work: an accepted
    # input reaches its kernel, where a spy stops it, and a rejected one
    # exits 2 without reaching any
    monkeypatch.chdir(tmp_path)
    for module, name in KERNELS:
        monkeypatch.setattr(module, name, _reached)
    if accepted:
        with pytest.raises(Reached):
            main(argv)
    else:
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert ("exceeds the work limit" in err) == (not accepted)


def pins(n, y="1/2"):
    """--point arguments for n pins to y at parameters 1/(n+1) .. n/(n+1)."""
    return [a for k in range(1, n + 1) for a in ("--point", f"{k}/{n + 1}={y}")]


OUT_OF_RANGE = [
    ["embed", "--model", "interval", "--depth", "13"],
    ["surject", "--kind", "binary", "--depth", "21"],
    ["surject", "--kind", "hilbert", "--depth", "-1"],
    ["chaos", "dense", "--system", "doubling", "--depth", "9"],
    ["chaos", "sensitivity", "--system", "doubling", "--delta", "1/64",
     "--samples", "0"],
    ["chaos", "transitivity", "--system", "doubling", "--depth", "0"],
    ["chaos", "transitivity", "--system", "doubling", "--depth", "13"],
    ["chaos", "realize", "--system", "doubling", "--word", ""],
    ["chaos", "realize", "--system", "doubling", "--word", "01" * 512 + "0"],
    ["chaos", "periodic", "--system", "tent", "--word", ""],
    ["chaos", "periodic", "--system", "tent", "--word", "0" * 1024 + "1"],
    ["chaos", "sensitivity", "--system", "doubling", "--delta", "0"],
    ["chaos", "sensitivity", "--system", "doubling", "--delta=-1/64"],
    ["fintop", "verify-lemma7", "--space", "discrete2",
     "--codomain", "discrete1", "--map", "a=a,b=a,c=a"],
    ["fintop", "verify-lemma7", "--space", "discrete2",
     "--codomain", "discrete2", "--map", "a=a,b=a,a=b"],
    ["chaos", "realize", "--system", "doubling", "--word", "01",
     "--decimal", "3"],
    # an option of another surject kind
    ["surject", "--kind", "binary", "--depth", "4", "--point", "1/2=1/2"],
    ["surject", "--kind", "hilbert", "--depth", "2", "--swap-halves"],
    ["surject", "--kind", "interleave", "--depth", "4", "--target", "square"],
    ["surject", "--kind", "waypoint", "--point", "1/2=1/2", "--block", "00:1"],
    ["surject", "--kind", "block", "--swap-halves", "--point", "1/2=1/2",
     "--depth", "3"],
    # two block presets
    ["surject", "--kind", "block", "--swap-halves", "--block", "00:1",
     "--depth", "3"],
    # discreteN spelled other than as one digit 1-8
    *(["fintop", "quotient", "--space", name, "--blocks", "ab|cd"]
      for name in ["discrete+4", "discrete04", "discrete 4", "discrete0_4",
                   "discrete\u0664"]),
    # an empty --blocks part
    ["fintop", "quotient", "--space", "chain3", "--blocks", "ab||c"],
    ["fintop", "quotient", "--space", "chain3", "--blocks", "|ab|c|"],
    ["fintop", "verify-prop5", "--space", "chain3", "--blocks", "ab||c",
     "--reps", "a,c"],
    # malformed or missing constraints and maps
    ["surject", "--kind", "block", "--block", "00"],
    ["surject", "--kind", "waypoint", "--point", "1/2"],
    ["surject", "--kind", "block"],
    ["surject", "--kind", "waypoint"],
    ["fintop", "verify-lemma7", "--space", "discrete2",
     "--codomain", "discrete1", "--map", "a"],
    ["chaos", "realize", "--system", "doubling", "--word", "01",
     "--format", "csv", "--decimal", "-1"],
    # a block cylinder longer than the depth
    ["surject", "--kind", "block", "--block", "000:1", "--depth", "2"],
    # one pin past the cap
    ["surject", "--kind", "waypoint", *pins(257)],
    # one digit past the cap
    ["chaos", "realize", "--system", "doubling", "--word", "01",
     "--format", "csv", "--decimal", "1025"],
    # a cylinder too long for the depth, and for a recursive padding walk
    ["surject", "--kind", "block", "--block", "0" * 1000 + ":1",
     "--depth", "8"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_inputs_rejected(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("primchaos: error: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("block,depth,message", [
    *(("0" * n + ":1", "8", f"depth 8 shallower than cylinder '{'0' * n}'")
      for n in (1000, 5000, 100000)),
    ("000:1", "2", "depth 2 shallower than cylinder '000'"),
    ("0:1", "-1", "depth must be >= 0"),
], ids=["1000", "5000", "100000", "000-depth-2", "depth--1"])
def test_block_cylinder_longer_than_the_depth_rejected(
        block, depth, message, tmp_path, capsys, monkeypatch):
    # checked before the padding, which grows as the square of a cylinder's
    # length; its recursive walk raised RecursionError at 1000 bits
    monkeypatch.chdir(tmp_path)
    assert main(["surject", "--kind", "block", "--block", block,
                 "--depth", depth, "--out", "out.json"]) == 2
    assert capsys.readouterr() == ("", f"primchaos: error: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("target,y", [("interval", "1/2"),
                                      ("square", "1/2,1/2")])
def test_waypoint_pins_up_to_the_cap(target, y, capsys):
    # the certificate's time grows as the square of the pins, so argv could
    # otherwise carry hours of work
    argv = ["surject", "--kind", "waypoint", "--target", target, *pins(256, y)]
    t0 = perf_counter()
    assert main(argv) == 0
    assert perf_counter() - t0 < 60
    assert "256 pin(s)" in capsys.readouterr().out
    assert main(argv + ["--point", f"1={y}"]) == 2
    assert capsys.readouterr() == (
        "", "primchaos: error: at most 256 waypoints, got 257\n")


def test_option_of_another_kind_named(capsys):
    assert main(["surject", "--kind", "binary", "--depth", "4",
                 "--point", "1/2=1/2"]) == 2
    assert capsys.readouterr() == ("", "primchaos: error: --point does not "
                                       "apply to --kind binary\n")
    # an option given at its default value changes nothing
    assert main(["surject", "--kind", "binary", "--depth", "4",
                 "--target", "interval"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("out", ["missing/x.json", "."])
def test_unwritable_out_rejected_before_running(out, tmp_path, capsys,
                                                monkeypatch):
    # a directory, or a path whose directory does not exist
    monkeypatch.chdir(tmp_path)
    assert main(["surject", "--kind", "binary", "--depth", "3",
                 "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("primchaos: error: --out ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("options", [
    ["--format", "csv"], ["--format", "csv", "--decimal", "3"],
])
def test_document_options_need_out(options, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(REALIZE + options) == 2
    assert capsys.readouterr() == ("", "primchaos: error: --format csv and "
                                       "--decimal need --out\n")
    assert list(tmp_path.iterdir()) == []
    # the default format, named, changes nothing
    assert main(REALIZE + ["--format", "json"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


@pytest.mark.parametrize("argv,code", [
    (REALIZE, 0),
    (["fintop", "verify-prop5", "--space", "chain3", "--blocks", "ac|b",
      "--reps", "a,b"], 1),
])
def test_out_failing_at_write_time_rejected(argv, code, tmp_path, capsys,
                                            monkeypatch):
    # the name passes the early checks, and open fails after the run: the
    # summary is not printed and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    capsys.readouterr()
    out = "x" * 300
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr() == (
        "", f"primchaos: error: cannot write --out {out!r}: "
            f"{os.strerror(errno.ENAMETOOLONG)}\n")
    assert list(tmp_path.iterdir()) == []


def test_out_failing_mid_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    class Full(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "open", lambda path, mode: Full(path, mode),
                        raising=False)
    assert main(REALIZE + ["--out", "out.json"]) == 2
    assert capsys.readouterr() == (
        "", f"primchaos: error: cannot write --out 'out.json': "
            f"{os.strerror(errno.ENOSPC)}\n")
    assert list(tmp_path.iterdir()) == []


def test_python_m_primchaos_runs_the_cli(tmp_path):
    name, argv, code, has_doc = next(c for c in CASES
                                     if c[0] == "chaos_realize_doubling_01")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "primchaos", *argv],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == code
    assert run.stdout == (GOLDEN_DIR / f"{name}.out").read_text()
    assert run.stderr == (GOLDEN_DIR / f"{name}.err").read_text()
    assert (tmp_path / "out.json").read_bytes() == \
        (GOLDEN_DIR / f"{name}.doc.json").read_bytes()


def _parse_outcome(parse, argv, capsys):
    """The parsed namespace or the exit code, and what was printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


LEAVES = [["embed"]] + [["surject", "--kind", path[1]] if path[0] == "surject"
                        else list(path) for path in cli.COMMANDS
                        if path != ("embed",)]
PARSER_ORACLE_ARGVS = (
    [argv for _, argv, _, _ in CASES]
    + [argv for argv, _ in WORK_GATE_CASES]
    + [argv + ["--out", "out.json"] for argv in OUT_OF_RANGE]
    + [["--help"]] + [[group, "--help"] for group in cli.GROUPS]
    + [leaf + ["--help"] for leaf in LEAVES]
    + [[], ["chaos"], ["chaos", "bogus"], ["bogus"], ["--"] + REALIZE,
       ["chaos", "quotient", "--space", "chain3"], ["fintop", "sweep", "-h"],
       ["embed", "realize", "--model", "interval", "--depth", "2"],
       # a misspelled, an abbreviated and a repeated option on a leaf
       REALIZE + ["--frmat", "csv"], ["chaos", "realize", "--wrod", "01"],
       ["chaos", "realize", "--sys", "tent", "--word", "1"],
       REALIZE + ["--word", "10"],
       ["surject", "--kind", "binary", "--dept", "3"],
       # a kind where a subcommand would stand
       ["surject", "binary", "--kind", "block", "--swap-halves"],
       # arguments the named branch leaves over, for the root to reject
       REALIZE + ["extra"], REALIZE + ["--", "--word", "1"],
       ["surject", "--kind", "binary", "3"], ["fintop", "sweep", "--", "x"],
       ["embed", "--model", "interval", "--depth", "2", "embed"],
       # argv that the table leaves to argparse: an option spelled with =,
       # and an abbreviated one
       ["embed", "--model", "interval", "--depth=3"],
       ["embed", "--model", "interval", "--dep", "3"],
       # values starting with '-', the last a flag where a value should be
       REALIZE[:4] + ["--word", "-01"], REALIZE[:4] + ["--word", "--out"],
       ["surject", "--kind", "binary", "--depth", "-1"],
       # ints that int reads though they are no plain digits
       REALIZE + ["--decimal", " 7"], REALIZE + ["--decimal", "1_0"],
       # ints that int rejects, the second past its 4300 digits
       ["embed", "--model", "interval", "--depth", "3.0"],
       ["embed", "--model", "interval", "--depth", "9" * 5000],
       # a repeated store option, and a value after a flag that takes none
       ["surject", "--kind", "binary", "--depth", "3", "--depth", "4"],
       ["surject", "--kind", "block", "--swap-halves", "x"],
       # help after a valid option, a value not among the choices, a missing
       # required option and an empty word
       REALIZE + ["-h"], ["chaos", "realize", "--system", "bogus",
                          "--word", "01"],
       REALIZE[:4], REALIZE[:4] + ["--word", ""],
       # 512 repeated append options, which argparse scans in quadratic time
       ["surject", "--kind", "block"] + [
           word for n in range(512) for word in ("--block", f"{n:09b}:1")]])


@pytest.mark.parametrize("argv", PARSER_ORACLE_ARGVS)
def test_selected_parser_matches_full_tree(argv, capsys):
    assert _parse_outcome(cli._parse_args, argv, capsys) == \
        _parse_outcome(cli.build_parser().parse_args, argv, capsys)


def test_table_parse_leaves_the_shared_defaults_empty():
    # the defaults of the append options are one list each in `COMMANDS`,
    # which a parse that appends to it would fill for every later parse
    given = cli._parse_args(["surject", "--kind", "waypoint", "--block", "0:1",
                             "--point", "1/2=1/2", "--point", "1/3=1/3"])
    assert (given.block, given.point) == (["0:1"], ["1/2=1/2", "1/3=1/3"])
    bare = cli._parse_args(["surject", "--kind", "waypoint"])
    assert (bare.block, bare.point) == ([], [])
    assert [kwargs["default"] for _, kwargs in cli._branch_args(("surject",))
            if kwargs.get("action") == "append"] == [[], []]


# the keywords the table parse reads, beside help and metavar, which only
# argparse's help reads
SPEC_KEYWORDS = {"action", "type", "choices", "required", "default", "dest",
                 "metavar", "help"}
BRANCHES = sorted({cli._selected_branch(path) for path in cli.COMMANDS})


@pytest.mark.parametrize("branch", BRANCHES, ids=" ".join)
def test_every_spec_is_one_the_table_parse_reads(branch):
    # a spec outside what `_parse_plain` implements would parse otherwise
    # than argparse does, on argv no oracle case draws
    for flags, kwargs in cli._branch_args(branch):
        assert all(flag.startswith("--") and flag[2:3] not in ("", "-")
                   for flag in flags), flags
        assert set(kwargs) <= SPEC_KEYWORDS, flags
        assert kwargs.get("action") in (None, "store_true", "append"), flags
        # the table reads a default as it stands, where argparse would run
        # a string default through the type and give store_true False
        assert not ("type" in kwargs and
                    isinstance(kwargs.get("default"), str)), flags
        if kwargs.get("action") == "store_true":
            assert kwargs.get("default") is False, flags


# every option, with each of its flags, and every group, leaf and kind name
FLAGS = sorted({flag for cmd in cli.COMMANDS.values()
                for flags, _ in (*cmd.args, *cli.COMMON) for flag in flags}
               | {"--kind"})
NAMES = sorted({name for path in cli.COMMANDS for name in path})
# option values, valid for some option and malformed for the others: p/0,
# negative and huge counts, words of foreign symbols
VALUES = sorted({*chaos.SYSTEM_KINDS, *embedding.MODEL_KINDS, "csv", "json",
                 "0", "3", "-1", "-7", str(2 ** 70), "1/64", "1/0", "p/0",
                 "01", "0110", "012", "ab", "ab|c", "a=b", "1/2=1/2,1/2",
                 "00:1", "x", "\u00e9", "missing/out.json"})
TOKEN = st.one_of(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
    st.sampled_from(FLAGS + NAMES + VALUES + ["-h", "--help", "--"]).map(
        lambda word: [word]))


@st.composite
def cli_argvs(draw):
    """A leaf's path or a golden case's argv, whole or cut short, then
    options of any leaf, names and values, with -h, --help or -- at any
    position."""
    head = draw(st.sampled_from(LEAVES + [argv for _, argv, _, _ in CASES]))
    argv = head[:draw(st.integers(0, len(head)))] if draw(st.booleans()) \
        else list(head)
    for token in draw(st.lists(TOKEN, max_size=5)):
        argv += token
    for word in draw(st.lists(st.sampled_from(["-h", "--help", "--"]),
                              max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


# words of each string option: valid ones, and malformed ones that only the
# library rejects; any other option draws from VALUES
WORDS = {
    "--word": st.text("01", max_size=6) | st.sampled_from(["012", "ab"]),
    "--delta": st.sampled_from(["1/64", "3/1024", "1/2", "0", "1/0", "p/0"]),
    "--block": st.sampled_from(["0:1", "1:0", "00:1", "01+10:1", "00",
                                "000:1"]),
    "--point": st.sampled_from(["1/2=1/2", "1/3=1/4,3/4", "2/3=1/3",
                                "1/2"]),
    "--space": st.sampled_from(["chain3", "sierpinski", "discrete2",
                                "discrete4", "discrete9"]),
    "--codomain": st.sampled_from(["discrete1", "discrete2", "chain3"]),
    "--blocks": st.sampled_from(["ab|c", "a|b|c", "ab|cd", "a|a", "ab||c"]),
    "--reps": st.sampled_from(["a,c", "a", "a,b,c"]),
    "--map": st.sampled_from(["a=a,b=a,c=b,d=b", "a=a,b=b", "a=a", "a"]),
    "--out": st.sampled_from(["out.json", "missing/out.json"]),
}


def _counts(least, cap):
    """A count in range, kept small so that runs stay short, or just
    outside it."""
    return st.integers(least, min(cap, least + 4)) | \
        st.sampled_from([least - 1, cap + 1])


@st.composite
def command_argvs(draw):
    """A leaf's argv drawn from its branch's specs (`cli._branch_args`):
    every required option and any others, each append option up to three
    times, in any order; sampled choices, counts in range and just outside
    it, and words of each option."""
    path = draw(st.sampled_from(sorted(cli.COMMANDS)))
    branch = cli._selected_branch(path)
    counts = {"--decimal": (0, cli.MAX_DECIMAL)}
    if path in COUNT_OPTIONS:
        _, option, least, cap = COUNT_OPTIONS[path]
        counts[option] = (least, cap)
    own = {flags for flags, _ in (*cli.COMMANDS[path].args, *cli.COMMON)}
    options = []
    for flags, kwargs in cli._branch_args(branch):
        if flags == ("--kind",):
            values = st.just(path[1])
        elif "choices" in kwargs:
            values = st.sampled_from(kwargs["choices"])
        elif "type" in kwargs:
            values = _counts(*counts.get(flags[0], (0, 4))).map(str)
        else:
            values = WORDS.get(flags[0], st.sampled_from(VALUES))
        # an option of another kind is rejected, so it is drawn rarely
        if not kwargs.get("required") and \
                draw(st.integers(0, 1 if flags in own else 7)):
            continue
        repeats = draw(st.integers(1, 3)) if kwargs.get("action") == "append" \
            else 1
        for _ in range(repeats):
            options.append([flags[0]] if kwargs.get("action") == "store_true"
                           else [flags[0], draw(values)])
    return list(branch) + [word for option in draw(st.permutations(options))
                           for word in option]


# two of three drawn argv come from the table's specs, so that most take
# its parse, and the rest from `cli_argvs`, most of which argparse parses
DRAWN_ARGVS = st.one_of(command_argvs(), command_argvs(), cli_argvs())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=DRAWN_ARGVS)
def test_selected_parser_matches_full_tree_on_drawn_argv(argv, capsys):
    # main's parse route parses, prints and fails as the whole tree does
    assert _parse_outcome(cli._parse_args, argv, capsys) == \
        _parse_outcome(cli.build_parser().parse_args, argv, capsys)


def _run_main(argv, monkeypatch, capsys):
    """main's exit code, what it printed and the files it wrote, run in a
    new empty directory."""
    with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as m:
        m.chdir(tmp)
        code = main(list(argv))
        files = {str(p.relative_to(tmp)): p.read_bytes()
                 for p in Path(tmp).rglob("*") if not p.is_dir()}
    captured = capsys.readouterr()
    return code, captured.out, captured.err, files


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=DRAWN_ARGVS)
def test_main_keeps_the_exit_code_contract_on_drawn_argv(argv, monkeypatch,
                                                         capsys):
    # no exception escapes; a rejection prints nothing to stdout and leaves
    # no file; a rerun prints and writes the same bytes
    first = _run_main(argv, monkeypatch, capsys)
    code, out, _, files = first
    assert code in (0, 1, 2)
    if code == 2:
        assert (out, files) == ("", {})
    assert _run_main(argv, monkeypatch, capsys) == first


@pytest.mark.parametrize("argv", [
    ["chaos", "realize", "--system", "doubling", "--word", "01",
     "--out", "out.json"],
    ["fintop", "sweep", "--format", "csv"],
    ["embed", "--model", "torus", "--depth", "2"],
    ["fintop"],
])
def test_main_reads_sys_argv(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    first = capsys.readouterr(), list(tmp_path.iterdir())
    for path in tmp_path.iterdir():
        path.unlink()
    monkeypatch.setattr(sys, "argv", ["primchaos"] + argv)
    assert main() == code
    assert (capsys.readouterr(), list(tmp_path.iterdir())) == first


@pytest.mark.parametrize("command", ["realize", "periodic"])
@pytest.mark.parametrize("length", [1, 1024])
def test_word_length_bounds_accepted(command, length, capsys):
    assert main(["chaos", command, "--system", "doubling",
                 "--word", "0" * (length - 1) + "1"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


def test_csv_format_is_field_equivalent(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["chaos", "realize", "--system", "doubling", "--word", "0110"]
    assert main(base + ["--out", "doc.json"]) == 0
    assert main(base + ["--out", "doc.csv", "--format", "csv"]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "doc.json").read_text())
    rows = list(csv.reader(io.StringIO((tmp_path / "doc.csv").read_text())))
    assert rows[0] == ["path", "value"]

    def flatten(node, prefix=""):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from flatten(v, f"{prefix}.{k}" if prefix else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from flatten(v, f"{prefix}.{i}")
        else:
            yield prefix, str(node)

    assert [(p, v) for p, v in flatten(doc)] == \
        [(p, v) for p, v, in rows[1:]]


def test_decimal_flag_adds_approx_column(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["chaos", "realize", "--system", "doubling", "--word", "01",
                 "--out", "doc.csv", "--format", "csv",
                 "--decimal", "4"]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO((tmp_path / "doc.csv").read_text())))
    assert rows[0] == ["path", "value", "approx"]
    by_path = {r[0]: r for r in rows[1:]}
    assert by_path["witness"] == ["witness", "3/8", "0.3750"]


def test_decimal_up_to_the_cap(tmp_path, capsys, monkeypatch):
    # each rational of the document gets one loop step per digit
    monkeypatch.chdir(tmp_path)
    argv = REALIZE + ["--out", "doc.csv", "--format", "csv"]
    assert main(argv + ["--decimal", "1024"]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO((tmp_path / "doc.csv").read_text())))
    assert {r[0]: r[2] for r in rows[1:]}["witness"] == "0.375" + "0" * 1021
    os.remove(tmp_path / "doc.csv")
    assert main(argv + ["--decimal", "1025"]) == 2
    assert capsys.readouterr() == (
        "", "primchaos: error: --decimal must be at most 1024\n")
    assert list(tmp_path.iterdir()) == []


def deepest(base, cells):
    """The greatest depth whose base ** depth cells are at most `cells`."""
    return max(d for d in range(65) if base ** d <= cells)


# leaf -> (its other arguments, its count option, the least and the greatest
# count, read from the library constant that bounds it)
COUNT_OPTIONS = {
    ("embed",): (["--model", "interval"], "--depth", 0,
                 embedding.MAX_REFINEMENT_DEPTH),
    ("chaos", "dense"): (["--system", "doubling"], "--depth", 1,
                         chaos.MAX_DENSE_DEPTH),
    ("chaos", "transitivity"): (["--system", "doubling"], "--depth", 1,
                                deepest(2, chaos.MAX_TRANSITIVITY_CELLS)),
    ("chaos", "sensitivity"): (["--system", "doubling", "--delta", "1/64"],
                               "--samples", 1, chaos.MAX_SENSITIVITY_SAMPLES),
    ("surject", "binary"): ([], "--depth", 0,
                            deepest(2, surject.MAX_GRID_CELLS)),
    ("surject", "interleave"): ([], "--depth", 0,
                                deepest(2, surject.MAX_GRID_CELLS)),
    # a depth below the cylinder's length is rejected
    ("surject", "block"): (["--block", "0:1"], "--depth", 1,
                           surject.MAX_CYLINDER_BITS),
    ("surject", "waypoint"): (["--point", "1/2=1/2"], "--depth", 0,
                              deepest(2, surject.MAX_GRID_CELLS)),
    ("surject", "hilbert"): ([], "--depth", 0,
                             deepest(4, surject.MAX_GRID_CELLS)),
}
COUNT_CASES = [
    pytest.param(argv + other + ["--format", fmt], option, value,
                 least <= value <= cap, id=f"{' '.join(argv)} {option}={value}")
    for argv, (other, option, least, cap), fmt in [
        *((["surject", "--kind", path[1]] if path[0] == "surject"
           else list(path), spec, "json")
          for path, spec in COUNT_OPTIONS.items()),
        (REALIZE[:2], (REALIZE[2:], "--decimal", 0, cli.MAX_DECIMAL), "csv")]
    for value in (-2 ** 70, -1, 0, 1, 2, cap, cap + 1, 2 ** 70)]


def test_every_count_option_listed():
    counted = {path for path, cmd in cli.COMMANDS.items()
               if {"--depth", "--samples"} & {f[0] for f, _ in cmd.args}}
    assert counted == set(COUNT_OPTIONS)


@pytest.mark.parametrize("argv,option,value,accepted", COUNT_CASES)
def test_count_options_keep_the_exit_code_contract(
        argv, option, value, accepted, tmp_path, capsys, monkeypatch):
    # any int parses; the CLI or the library rejects one out of range with 2
    # before anything is printed or written, and never raises
    monkeypatch.chdir(tmp_path)
    code = main(argv + [f"{option}={value}", "--out", "out.doc"])
    out, err = capsys.readouterr()
    assert code == (0 if accepted else 2)
    if accepted:
        assert "result: PASS\n" in out and err == ""
        assert (tmp_path / "out.doc").exists()
    else:
        assert out == "" and err.startswith("primchaos: error: ")
        assert list(tmp_path.iterdir()) == []


def test_periodic_power_word_notes_its_primitive_root(capsys):
    assert main(["chaos", "periodic", "--system", "doubling",
                 "--word", "0101"]) == 0
    assert "note: input word 0101 reduced to primitive root 01\n" in \
        capsys.readouterr().out


def test_encode_document_stable():
    doc = {"a": ["1/2", 3], "b": {"c": True}}
    assert encode_document(doc, "json", None) == \
        b'{\n  "a": [\n    "1/2",\n    3\n  ],\n  "b": {\n    "c": true\n  }\n}\n'
    csv_bytes = encode_document(doc, "csv", 2)
    assert csv_bytes == b"path,value,approx\na.0,1/2,0.50\na.1,3,\nb.c,True,\n"
