"""Code lines of each ``sparsewatch`` module, and the statements no test runs.

By default it prints, for each module under ``src/sparsewatch``, the number
of its code lines, not counting docstrings, comments or blank lines, then
their total:

    python tests/unrun.py

With ``--unrun`` it runs ``pytest tests bench`` in this process under
``sys.settrace``, restricted to files under ``src/sparsewatch``, and prints
each code line whose statement no test executed, as ``module.py:line``
followed by the line:

    PYTHONPATH=src python tests/unrun.py --unrun

Only this process is traced: statements that run only in a forked pool
worker (``workers`` above 1) are reported as unrun.  The traced run takes
about twice as long as plain pytest.  Any further arguments are passed to
pytest, so ``--unrun tests/test_engine.py`` traces one file.  Pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsewatch"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> list[int]:
    """Sorted numbers of the lines of ``path`` that hold a token other than a
    comment, and that are not part of a docstring."""
    source = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sorted(lines - docs)


def statement_lines(path: Path) -> dict[int, range]:
    """The statements of ``path`` that can execute, every statement but
    docstrings: each one's first line, mapped to the lines a trace may
    report for it (its decorators and its head, up to its body)."""
    lines = {}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = _docstring_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in docs:
            decorators = getattr(node, "decorator_list", [])
            first = decorators[0].lineno if decorators else node.lineno
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            lines[first] = range(first, max(first, last) + 1)
    return lines


def _count() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = len(code_lines(path))
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")


def _unrun(pytest_args: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        seen = ran.get(str(path), set())
        missed = [line for line, head in sorted(statement_lines(path).items())
                  if seen.isdisjoint(head)]
        total += len(missed)
        for line in missed:
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{total} statements unrun (pytest exit status {int(status)})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unrun", action="store_true",
                        help="trace pytest and print the statements no test executed")
    args, rest = parser.parse_known_args(argv)
    if not args.unrun:
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        _count()
        return 0
    return _unrun(rest or ["tests", "bench"])


if __name__ == "__main__":
    sys.exit(main())
