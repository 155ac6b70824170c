"""CLI contract: golden-file byte equality for every documented invocation,
the exit-code contract, and format equivalence."""

import csv
import io
import json
from pathlib import Path

import pytest

from cli_cases import CASES
from primchaos import cli
from primchaos.cli import encode_document, main
from primchaos.errors import ConstructionError, InternalConsistencyError

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


@pytest.mark.parametrize("exc,code", [
    (ConstructionError("certificate broke"), 1),
    (InternalConsistencyError("invariant broke"), 1),
])
def test_failed_certificates_exit_1(exc, code, capsys, monkeypatch):
    def body(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_fintop", body)
    assert main(["fintop", "sweep"]) == code
    assert capsys.readouterr().err == f"primchaos: check failed: {exc}\n"


@pytest.mark.parametrize("exc", [TypeError("bug"), KeyError("bug")])
def test_programming_errors_surface(exc, capsys, monkeypatch):
    # a bug is not a failed check: it propagates with its traceback
    def body(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_fintop", body)
    with pytest.raises(type(exc)):
        main(["fintop", "sweep"])
    assert "check failed" not in capsys.readouterr().err


def test_max_depth_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRIMCHAOS_MAX_DEPTH", "2")
    assert main(["embed", "--model", "interval", "--depth", "3"]) == 2
    monkeypatch.setenv("PRIMCHAOS_MAX_DEPTH", "3")
    assert main(["embed", "--model", "interval", "--depth", "3"]) == 0
    monkeypatch.setenv("PRIMCHAOS_MAX_DEPTH", "zebra")
    assert main(["embed", "--model", "interval", "--depth", "3"]) == 2
    capsys.readouterr()


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


def test_encode_document_stable():
    doc = {"a": ["1/2", 3], "b": {"c": True}}
    assert encode_document(doc, "json", None) == \
        b'{\n  "a": [\n    "1/2",\n    3\n  ],\n  "b": {\n    "c": true\n  }\n}\n'
    csv_bytes = encode_document(doc, "csv", 2)
    assert csv_bytes == b"path,value,approx\na.0,1/2,0.50\na.1,3,\nb.c,True,\n"
