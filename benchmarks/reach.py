"""Reach report: the ``src/repro`` functions no golden, digest or example enters.

A ``sys.settrace`` tracer records every Python function entered while
three sets run in this one process:

* ``pytest benchmarks`` — the golden benches and the harness tests;
* ``benchmarks/digest_configs.py`` — the 41 pinned digest configs;
* each of ``examples/*.py``.

It then lists, module by module, every function of ``src/repro`` that
none of them entered, with its line span, and totals the lines (a
function nested in a listed one counts once, inside its parent).
Work done in other processes is invisible to the tracer: CLI
subprocesses, pool workers and perfbench runs.  So the report also
gives the total without ``__main__.py`` (the CLI, which the sets drive
only in subprocesses) and ``despy/validation.py`` (the analytic queueing
oracles, which only the tests read).

Informational, not a gate: it rewrites the goldens under ``results/``
as the benches do, and takes a few minutes::

    PYTHONPATH=src python benchmarks/reach.py

Run it before deleting code that "nothing calls", and after, to record
how much of ``src/repro`` the pinned surface reaches.
"""

from __future__ import annotations

import contextlib
import glob
import inspect
import io
import os
import runpy
import sys
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Modules whose callers run only outside the traced process.
UNTRACED_BY_DESIGN = ("__main__.py", os.path.join("despy", "validation.py"))

#: A function: (file, first line, name).
Key = Tuple[str, int, str]


def _functions(path: str) -> Dict[Key, Tuple[str, int]]:
    """Every function defined in ``path``: its qualified name and last line."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    found: Dict[Key, Tuple[str, int]] = {}
    stack = [code]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
        # Module and class bodies run at import; comprehensions,
        # generator expressions and lambdas belong to their function.
        if code.co_name.startswith("<") or not code.co_flags & inspect.CO_OPTIMIZED:
            continue
        last = max(line for __, __, line in code.co_lines() if line is not None)
        name = getattr(code, "co_qualname", code.co_name)
        found[(path, code.co_firstlineno, code.co_name)] = (name, last)
    return found


def _run_sets() -> Set[Key]:
    """Run the three sets under a call tracer; the functions entered."""
    codes: Set = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)

    import pytest

    os.chdir(ROOT)
    sink = io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink):
            # pytest-benchmark pauses any tracer while it times a bench;
            # disabled, it runs each bench once, untimed and traced.
            status = pytest.main(
                ["benchmarks", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
            )
        if status != 0:
            print(f"warning: pytest benchmarks exited {status}", file=sys.stderr)
        argv = sys.argv
        scripts = [os.path.join(ROOT, "benchmarks", "digest_configs.py")]
        scripts += sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
        for script in scripts:
            sys.argv = [script]
            try:
                with contextlib.redirect_stdout(sink):
                    runpy.run_path(script, run_name="__main__")
            except SystemExit:
                pass
            finally:
                sys.argv = argv
    finally:
        sys.settrace(None)
    return {
        (
            os.path.realpath(os.path.join(ROOT, code.co_filename)),
            code.co_firstlineno,
            code.co_name,
        )
        for code in codes
    }


def report(entered: Set[Key]) -> List[str]:
    """The never-entered functions of ``src/repro``, per module."""
    lines: List[str] = []
    total = untraced = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        path = os.path.realpath(path)
        missed = sorted(
            (first, last, name)
            for (__, first, co_name), (name, last) in _functions(path).items()
            if (path, first, co_name) not in entered
        )
        spans = []
        covered_to = 0
        for first, last, name in missed:
            if last <= covered_to:
                continue  # nested in a function already listed
            spans.append((first, last, name))
            covered_to = last
        if not spans:
            continue
        module = os.path.relpath(path, PACKAGE)
        count = sum(last - first + 1 for first, last, __ in spans)
        total += count
        if module in UNTRACED_BY_DESIGN:
            untraced += count
        lines.append(f"{module}: {len(spans)} functions, {count} lines")
        lines.extend(f"  {first}-{last}  {name}" for first, last, name in spans)
    lines.append(
        f"total: {total} lines in never-entered functions; {total - untraced} "
        f"without {' and '.join(UNTRACED_BY_DESIGN)}"
    )
    return lines


def main() -> int:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    print("\n".join(report(_run_sets())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
