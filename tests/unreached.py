"""List the statements of the package that no test executes.

Run from any directory, with the test dependencies installed:

    python tests/unreached.py                 # the whole suite
    python tests/unreached.py -k power        # pytest options pass through

The script runs pytest in this process under a ``sys.settrace`` hook that
records the lines executed in frames of files under ``src/``, then prints
every statement of those files, as ``ast`` parses them, that no test
executed: ``path:line: source``. A compound statement counts as executed
when its header ran; under an unexecuted statement only the outermost one
is printed. Docstrings and ``global`` declarations compile to nothing and
are not listed. Code that runs only in a child process, such as
``python -m sparse_consist``, is not traced, so it is listed.

Besides pytest it uses the standard library only. The line tracer makes
the suite take about 1.7 times as long (204 s against 121 s, 2 cores). It
slows the Python-bound relaxed loop more than ADMM's BLAS-bound rounds, so
``test_acceptance.py::test_07``, which needs ADMM at least 20 times slower
than FISTA, can fail under it (18 and 19 times were measured); the
statement list is still valid, since a failing test still records the
lines it ran.
pytest does not collect this file. It is not named ``coverage.py``,
because ``tests/`` is on ``sys.path`` and that name would shadow the
package of the same name.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _trace_lines(prefix: str) -> set:
    """Install a tracer, in this thread and in threads started later, that
    records ``(filename, line)`` for each line run in a file under prefix;
    return the set it fills."""
    hits: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    return hits


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement less those of the statements it holds:
    decorators and header of a compound statement, all lines of a simple one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(start, body[0].lineno - 1) + 1)
    return range(start, node.end_lineno + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unreached(path: Path, lines: set) -> list:
    """The outermost statements of the file at path none of whose own lines
    is in lines, in source order."""
    found = []

    def visit(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt):
                silent = isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(
                    node, parent
                )
                if not silent and lines.isdisjoint(_own_lines(node)):
                    found.append(node)
                    continue
            visit(node)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def main(argv: list) -> int:
    # the tests' child processes import the package from src/ too
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), inherited]))
    sys.path.insert(0, str(SRC))
    hits = _trace_lines(str(SRC))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = {line for name, line in hits if name == str(path)}
        source = path.read_text().splitlines()
        for node in unreached(path, lines):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {source[node.lineno - 1].strip()}")
            count += 1
    print(f"{count} statements under src/ that no test executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
