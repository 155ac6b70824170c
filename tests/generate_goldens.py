"""Regenerate the CLI golden files.

Run from the repository root after an intentional output change:

    python tests/generate_goldens.py

Review the diff before committing; goldens pin byte-for-byte determinism.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

# the checkout's src/ and tests/, so that it runs without PYTHONPATH
sys.path[:0] = [str(Path(__file__).parents[1] / "src"),
                str(Path(__file__).parent)]
from cli_cases import CASES  # noqa: E402

from primchaos.cli import main  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        old = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            doc = None
            if os.path.exists("out.json"):
                doc = Path("out.json").read_bytes()
        finally:
            os.chdir(old)
    return code, out.getvalue(), err.getvalue(), doc


def main_gen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expect_code, has_doc in CASES:
        code, out, err, doc = run_case(argv)
        if code != expect_code:
            raise SystemExit(f"{name}: exit {code}, expected {expect_code}")
        if has_doc != (doc is not None):
            raise SystemExit(f"{name}: document presence mismatch")
        (GOLDEN_DIR / f"{name}.out").write_text(out)
        (GOLDEN_DIR / f"{name}.err").write_text(err)
        if doc is not None:
            (GOLDEN_DIR / f"{name}.doc.json").write_bytes(doc)
        print(f"{name}: exit {code}, {len(out)}B stdout, {len(err)}B stderr"
              + (f", {len(doc)}B document" if doc else ""))


if __name__ == "__main__":
    main_gen()
