"""The library computes in exact rationals.  Every module of the package is
read as a syntax tree and may hold no float or complex literal, no `float`
name outside an `isinstance` test (where it rejects floats), and from `math`
only the integer functions."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "primchaos"
MODULES = sorted(SRC.glob("*.py"))
INTEGER_MATH = {"lcm", "gcd", "isqrt", "comb", "factorial"}


def inexact(source: str) -> list:
    """Each inexact construct of a module's source, as (line, what)."""
    tree = ast.parse(source)
    type_tests = {id(n) for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name)
                  and call.func.id == "isinstance"
                  for arg in call.args[1:] for n in ast.walk(arg)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float" and \
                id(node) not in type_tests:
            found.append((node.lineno, "float outside an isinstance test"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.partition(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in INTEGER_MATH]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_is_exact(path):
    assert inexact(path.read_text()) == []


def test_every_inexact_construct_found():
    source = "\n".join([
        "from math import lcm, sqrt",
        "import math",
        "x = 0.5",
        "z = 2j",
        "y = float(3)",
        "def f(v: float): return isinstance(v, (int, float))",
    ])
    assert inexact(source) == [
        (1, "math.sqrt"), (2, "import math"), (3, "literal 0.5"),
        (4, "literal 2j"), (5, "float outside an isinstance test"),
        (6, "float outside an isinstance test")]
