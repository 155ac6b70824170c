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
from pathlib import Path
from time import perf_counter

import pytest

from cli_cases import CASES
from primchaos import cli
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


WORK_GATE_CASES = [
    (["surject", "--kind", "hilbert", "--depth", "10"], True),
    (["chaos", "transitivity", "--system", "doubling", "--depth", "10"], True),
    (SQUARE_PIN + ["--depth", "10"], True),
    (["surject", "--kind", "binary", "--depth", "20"], True),
    (["surject", "--kind", "waypoint", "--point", "1/2=1", "--depth", "20"],
     True),
    (["surject", "--kind", "hilbert", "--depth", "11"], False),
    (["surject", "--kind", "hilbert", "--depth", "20"], False),
    # transitivity's cells are bounded by the library, not this gate
    (["chaos", "transitivity", "--system", "doubling", "--depth", "11"], True),
    (["chaos", "transitivity", "--system", "tent", "--depth", "12"], True),
    (SQUARE_PIN + ["--depth", "11"], False),
    (["surject", "--kind", "binary", "--depth", "21"], False),
    (["surject", "--kind", "block", "--swap-halves", "--depth", "21"], False),
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
]


@pytest.mark.parametrize("argv,accepted", WORK_GATE_CASES)
def test_work_gate(argv, accepted, tmp_path, capsys, monkeypatch):
    # the gate decides before anything runs: a stub run records the call
    monkeypatch.chdir(tmp_path)
    ran = []
    for path in cli.COMMANDS:
        _replace_run(monkeypatch, path,
                     lambda args: ran.append(args) or ({}, [], True))
    assert main(argv) == (0 if accepted else 2)
    assert len(ran) == (1 if accepted else 0)
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
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_inputs_rejected(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("primchaos: error: ")
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
        "", "primchaos: error: at most 256 --point pins, got 257\n")


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


def _path_parsers(parser, argv):
    """The parsers argv passes through: the root, its group and its leaf."""
    yield parser
    for word in argv[:2]:
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if not subs or word not in subs[0].choices:
            return
        parser = subs[0].choices[word]
        yield parser


def _parse_outcome(parser, argv, capsys):
    """The parsed namespace or the exit code, what was printed, and the help
    of every parser on argv's path."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return (result, captured.out, captured.err,
            [p.format_help() for p in _path_parsers(parser, argv)])


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
       ["surject", "binary", "--kind", "block", "--swap-halves"]])


@pytest.mark.parametrize("argv", PARSER_ORACLE_ARGVS)
def test_selected_parser_matches_full_tree(argv, capsys):
    assert _parse_outcome(cli.build_parser(argv), argv, capsys) == \
        _parse_outcome(cli.build_parser(), argv, capsys)


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


# leaf -> (its other arguments, its count option, the least and the greatest
# count --help documents)
COUNT_OPTIONS = {
    ("embed",): (["--model", "interval"], "--depth", 0, 12),
    ("chaos", "dense"): (["--system", "doubling"], "--depth", 1, 8),
    ("chaos", "transitivity"): (["--system", "doubling"], "--depth", 1, 12),
    ("chaos", "sensitivity"): (["--system", "doubling", "--delta", "1/64"],
                               "--samples", 1, 10000),
    ("surject", "binary"): ([], "--depth", 0, 20),
    ("surject", "interleave"): ([], "--depth", 0, 20),
    # a depth below the cylinder's length is rejected
    ("surject", "block"): (["--block", "0:1"], "--depth", 1, 20),
    ("surject", "waypoint"): (["--point", "1/2=1/2"], "--depth", 0, 20),
    ("surject", "hilbert"): ([], "--depth", 0, 10),
}
COUNT_CASES = [
    pytest.param(argv + other + ["--format", fmt], option, value,
                 least <= value <= cap, id=f"{' '.join(argv)} {option}={value}")
    for argv, (other, option, least, cap), fmt in [
        *((["surject", "--kind", path[1]] if path[0] == "surject"
           else list(path), spec, "json")
          for path, spec in COUNT_OPTIONS.items()),
        (REALIZE[:2], (REALIZE[2:], "--decimal", 0, 1024), "csv")]
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
