"""Tier-1 runs at one BLAS thread unless the environment sets a count, and
ends by printing the size of src/kilab in code lines.

OpenBLAS reads its thread count once, when numpy loads it (or scipy.linalg
loads its own copy, which only some tests import), and pytest imports this
file before any test module imports numpy. The acceptance sweeps run two
workers; at the default thread count each worker starts one BLAS thread per
core, and on a small host the suite then runs several times slower doing
the same work. A value set explicitly still wins.
"""

import ast
import io
import os
import tokenize
from pathlib import Path

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

SRC = Path(__file__).resolve().parent.parent / "src" / "kilab"
_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The lines of Python source that hold code: not blank, not only a
    comment and not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    """After the slowest durations, the code lines of src/kilab, in total
    and per module: the measure of the code's size its roadmap tracks. It
    reports and does not gate."""
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    terminalreporter.write_sep("=", "src/kilab code lines")
    terminalreporter.write_line(f"{sum(counts.values())} in total: "
                                + ", ".join(f"{name} {count}" for name, count in counts.items()))
