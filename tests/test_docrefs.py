"""A module's docstrings and comments name the code they rely on in
backticks.  Every backticked dotted name in a module of the package whose
head is a module of the package (`errors.check_count`) or a class that
module defines (`ChaosSystem._table`) must resolve, so that a rename or a
removal cannot leave a reference to nothing behind.  So must every
backticked `module.NAME` of the README and every `(module.NAME)` of the
CLI's epilog, where each work limit is named by its constant."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "primchaos"
MODULES = sorted(SRC.glob("*.py"))
PACKAGE = {p.stem for p in MODULES}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
# a parenthesised name, dotted or one of the CLI's own: (chaos.MAX_EVENT_WORD)
NAMED = re.compile(r"\(([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\)")


def references(source: str) -> list:
    """The backticked dotted names of a module's source whose head is a
    package module or a class the source defines, in source order."""
    classes = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef)}
    return [name for name in DOTTED.findall(source)
            if name.partition(".")[0] in PACKAGE | classes]


def resolves(module, name: str) -> bool:
    """True iff the name, read from a package module or else from a name
    `module` defines (a class, or a constant of the CLI), names an
    attribute at every step; a dataclass field with no class attribute
    counts."""
    head, *rest = name.split(".")
    if head in PACKAGE:
        obj = importlib.import_module(f"primchaos.{head}")
    elif hasattr(module, head):
        obj = getattr(module, head)
    else:
        return False
    for part in rest:
        fields = getattr(obj, "__dataclass_fields__", {})
        if part in fields:
            obj = fields[part]
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return False
    return True


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_docstring_references_resolve(path):
    module = importlib.import_module(f"primchaos.{path.stem}")
    names = references(path.read_text())
    assert [name for name in names if not resolves(module, name)] == []


def test_every_reference_found_and_checked():
    source = "\n".join([
        '"""`chaos.sensitivity_budget`, `Local.x`, `Other.y`, `plain`,',
        "`geometry.no_such_name`.\"\"\"",
        "class Local:",
        "    x = 1",
        "# `errors.check_count` and `Local.z`",
    ])
    names = references(source)
    assert names == ["chaos.sensitivity_budget", "Local.x",
                     "geometry.no_such_name", "errors.check_count", "Local.z"]
    module = type("Module", (), {"Local": type("Local", (), {"x": 1})})
    assert [resolves(module, n) for n in names] == [
        True, True, False, True, False]


def work_limits() -> set:
    """The `module.MAX_*` constants the package's modules define."""
    return {f"{p.stem}.{target.id}" for p in MODULES
            for node in ast.parse(p.read_text()).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.startswith("MAX_")}


def test_readme_references_resolve():
    names = [name for name in DOTTED.findall((ROOT / "README.md").read_text())
             if name.partition(".")[0] in PACKAGE]
    assert [name for name in names if not resolves(None, name)] == []
    assert {name for name in names if ".MAX_" in name} == work_limits()


def test_epilog_references_resolve():
    cli = importlib.import_module("primchaos.cli")
    names = NAMED.findall(cli.EPILOG)
    assert [name for name in names if not resolves(cli, name)] == []
    # the CLI's own limit is named without its module
    assert {name if "." in name else f"cli.{name}" for name in names} == \
        work_limits()
