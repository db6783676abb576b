"""Every `src/` function or method that no run of `stdout_digests.runs()`
reaches, with its line count, as JSON.

    PYTHONPATH=src python tests/reach_census.py

The runs go through `cli.main` in this process, from the checkout root,
under a `sys.settrace` hook that records only call events; the previous
trace function is restored afterwards.  A function counts as reached when
its code object was called once.  A nested function is listed only when
its enclosing function was reached (otherwise the enclosing entry's line
count holds it).  This sizes deletions: what no run reaches is an error
path, a failure render, a test-only helper or dead code.  pytest does not
collect this file: its name does not start with `test_`.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import affinelie
from affinelie import cli

import stdout_digests

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(affinelie.__file__).resolve().parent


def reached(argvs):
    """(file, first line) of every `src/` code object called by the runs."""
    seen = set()

    def trace(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    previous = sys.gettrace()
    sink = io.StringIO()
    sys.settrace(trace)
    try:
        with contextlib.chdir(ROOT), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for argv in argvs:
                cli.main(argv)
    finally:
        sys.settrace(previous)
    return {(str(Path(f).resolve()), line) for f, line in seen}


def census(argvs):
    """{"module.qualname": line count} of every function no run reaches."""
    hits = reached(argvs)
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                if (path, first) in hits:
                    visit(child, path, f"{name}.")
                else:
                    out[name] = child.end_lineno - first + 1

    for file in sorted(SRC.glob("*.py")):
        visit(ast.parse(file.read_text()), str(file), f"{file.stem}.")
    return out


def main():
    argvs = stdout_digests.runs()
    unreached = census(argvs)
    print(json.dumps({"runs": len(argvs), "lines": sum(unreached.values()),
                      "unreached": unreached}, indent=1))


if __name__ == "__main__":
    main()
