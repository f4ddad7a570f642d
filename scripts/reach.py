"""Which code of ``src/repro`` each set of customers enters.

    python3 scripts/reach.py [--sets paper,scenarios,rest] [--detail MODULE]...

Three sets are run in this one process, in this order, each under a
``sys.setprofile`` / ``threading.setprofile`` hook that records every
function of ``src/repro`` it calls:

* ``paper`` — the paper's workloads: ``tests/apps``, every
  ``examples/*.py`` (as ``__main__``, default arguments), and the
  ``benchmarks/bench_*.py`` figure files with their timed bodies run once
  (``--benchmark-disable``);
* ``scenarios`` — the stated fault scenarios: ``tests/faults`` and
  ``tests/health``;
* ``rest`` — the rest of tier-1.

``benchmarks/macro`` is not collected.  For each module the table gives
its function code lines (as ``scripts/sloc.py`` counts them, each line
charged to the innermost ``def`` holding it) and how many of those lie in
functions each set entered.  ``--detail MODULE`` (a path under
``src/repro``, e.g. ``core/farm.py``) lists that module's functions with
the sets that entered each.

A function that caches its first answer is entered by the first set that
needs it only; the paper set runs first, so it is never short-changed by
this.  Exits non-zero when a set's tests fail or an example raises.
"""

from __future__ import annotations

import argparse
import ast
import os
import runpy
import sys
import threading
from pathlib import Path

from sloc import code_line_numbers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SETS = ("paper", "scenarios", "rest")
_PYTEST_OPTIONS = ["-q", "-p", "no:cacheprovider"]


def run_paper() -> bool:
    ok = run_pytest(["tests/apps"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        argv = sys.argv
        sys.argv = [str(example)]
        try:
            runpy.run_path(str(example), run_name="__main__")
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            print(f"reach: {example.name} raised {exc!r}", file=sys.stderr)
            ok = False
        finally:
            sys.argv = argv
    return run_pytest(
        ["benchmarks", "--ignore=benchmarks/macro", "--benchmark-disable"]
    ) and ok


def run_scenarios() -> bool:
    return run_pytest(["tests/faults", "tests/health"])


def run_rest() -> bool:
    return run_pytest([
        "tests", "--ignore=tests/apps", "--ignore=tests/faults",
        "--ignore=tests/health",
    ])


def run_pytest(arguments: list[str]) -> bool:
    import pytest

    return pytest.main(arguments + _PYTEST_OPTIONS) == 0


# The set the hook records into.  One hook for the whole session: a
# process thread parked in one set and reused in the next keeps the hook
# it started with, so the hook reads its target here, not from a closure.
_target: list = [set()]


def _hook(frame, event, _arg):
    if event == "call":
        _target[0].add(frame.f_code)


def entered_by(run) -> tuple[set, bool]:
    """The (file, first line) of every ``src/repro`` function ``run``
    calls, on any thread, and whether ``run`` succeeded."""
    codes: set = set()
    _target[0] = codes
    try:
        ok = run()
    finally:
        _target[0] = set()
    found = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(PACKAGE):
            found.add((str(path), code.co_firstlineno))
    return found, ok


def functions(path: Path) -> dict:
    """Each function of ``path`` by the first line of its code object
    (its first decorator's, when it has one), with its name and the code
    lines charged to it."""
    source = path.read_text()
    code = code_line_numbers(source)
    owner: dict = {}
    found: dict = {}

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}{child.name}"
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found[first] = name
                for line in range(first, child.end_lineno + 1):
                    owner[line] = first
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{qualname}{child.name}."
            visit(child, name)

    visit(ast.parse(source), "")
    lines = {first: 0 for first in found}
    for line in code:
        if line in owner:
            lines[owner[line]] += 1
    return {first: (found[first], lines[first]) for first in found}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default=",".join(SETS))
    parser.add_argument("--detail", action="append", default=[])
    args = parser.parse_args(argv)
    chosen = [name for name in args.sets.split(",") if name]
    unknown = set(chosen) - set(SETS)
    if unknown:
        parser.error(f"unknown set(s): {', '.join(sorted(unknown))}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Tests that run an example in a child interpreter need it too.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([inherited] if inherited else [])
    )
    os.chdir(ROOT)
    runs = {"paper": run_paper, "scenarios": run_scenarios, "rest": run_rest}
    entered: dict = {}
    failed = []
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        for name in SETS:
            if name in chosen:
                entered[name], ok = entered_by(runs[name])
                if not ok:
                    failed.append(name)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    def line(label: str, numbers: list) -> str:
        return f"{label:<28}" + "".join(f"{n:>11,}" for n in numbers)

    print(f"{'module':<28}" + "".join(
        f"{name:>11}" for name in ("functions", *entered)
    ))
    totals = [0] * (1 + len(entered))
    for path in sorted(PACKAGE.rglob("*.py")):
        table = functions(path)
        row = [sum(lines for _name, lines in table.values())]
        for codes in entered.values():
            row.append(sum(
                lines for first, (_name, lines) in table.items()
                if (str(path), first) in codes
            ))
        totals = [t + r for t, r in zip(totals, row)]
        print(line(str(path.relative_to(PACKAGE)), row))
    print(line("total", totals))

    for module in args.detail:
        path = PACKAGE / module
        print(f"\n{module}")
        for first, (name, lines) in sorted(functions(path).items()):
            sets = [s for s, codes in entered.items()
                    if (str(path), first) in codes]
            print(f"  {first:>5}  {name:<40}{lines:>5}  "
                  f"{','.join(sets) or '-'}")
    if failed:
        print(f"reach: set(s) failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
