"""List the ``raise`` statements in ``src/sparca`` that no test executes.

Usage, from any directory:

    python3 tools/raise_sites.py [PYTEST_ARGS...]

Runs the test suite in this process, as the tier-1 command does (one BLAS
thread, ``-q --continue-on-collection-errors`` plus any arguments given,
such as ``--deselect``), with a line tracer installed through
``sys.settrace`` and ``threading.settrace``. The tracer records lines only
in frames whose code lives in ``src/sparca``; every other frame is left
untraced. Afterwards it prints, one per line, each ``raise`` statement of
``src/sparca`` whose first line never ran, as ``path:line: source``, and
their count. Code run in subprocesses is not seen. The tool only reports:
it exits 0 whatever the tests or the sites are. Traced, tier-1 took about
80 s on 2 vCPUs, against about 60 s untraced.
"""

import os

# One BLAS thread, as the tier-1 command runs, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparca"


def raise_sites(path):
    """``{line: source}`` of each ``raise`` statement in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(source, str(path)))
        if isinstance(node, ast.Raise)
    }


def run_traced(pytest_args):
    """Run pytest with ``pytest_args``; return its exit code and the set of
    ``(filename, line)`` pairs executed in ``src/sparca``."""
    prefix = str(PACKAGE) + os.sep
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main(argv):
    os.chdir(ROOT)
    code, executed = run_traced(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         *argv]
    )
    missed = [
        (path, line, text)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, text in sorted(raise_sites(path).items())
        if (str(path), line) not in executed
    ]
    print(f"\npytest exit code {int(code)}")
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} raise statements in src/sparca not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
