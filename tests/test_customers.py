"""DESIGN.md's *Customers* table names every module, and only modules
that exist.

A module's customer is what would break without it (DESIGN.md,
*Customers*).  The table is only worth reading if it is complete and
current, so this checks both directions:

* every ``src/repro/**/*.py`` other than an ``__init__.py`` is named by a
  row;
* every path a row names exists, so a deleted module cannot leave its
  row behind.

A row's first cell lists backticked paths relative to ``src/repro``.  A
bare name (no ``/``) inherits the directory of the name before it in the
same cell (``vp/message.py``, ``mailbox.py`` names ``vp/mailbox.py``),
and ``dir/*`` covers every module under ``dir``.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def customer_rows():
    """``(first cell, [paths it names])`` for each row of the table."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## Customers", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cell = line.split("|")[1]
        directory = ""
        paths = []
        for name in re.findall(r"`([^`]+)`", cell):
            if "/" in name:
                directory = name.rsplit("/", 1)[0]
            else:
                name = f"{directory}/{name}" if directory else name
            paths.append(name)
        rows.append((cell.strip(), paths))
    return rows


def named_paths():
    return [path for _, paths in customer_rows() for path in paths]


def covers(path, module):
    """Does the table entry ``path`` name ``module`` (both relative to
    the package)?"""
    if path.endswith("/*"):
        return module.startswith(path[:-1])
    return module == path


def test_the_table_is_read_as_written():
    """The parser finds the rows, and a bare name takes the directory of
    the name before it (so the checks below cannot pass on nothing)."""
    cells = dict(customer_rows())
    assert len(cells) > 20
    assert cells["`pcn/defvar.py`, `process.py`, `streams.py`"] == [
        "pcn/defvar.py", "pcn/process.py", "pcn/streams.py",
    ]
    assert cells["`cli.py`, `__main__.py`"] == ["cli.py", "__main__.py"]
    assert cells["`calls/*`"] == ["calls/*"]


@pytest.mark.parametrize(
    "module",
    sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    ),
)
def test_every_module_has_a_row(module):
    assert any(covers(path, module) for path in named_paths()), (
        f"src/repro/{module} has no row in DESIGN.md's Customers table"
    )


@pytest.mark.parametrize("path", named_paths())
def test_every_named_path_exists(path):
    target = PACKAGE / (path[:-2] if path.endswith("/*") else path)
    if path.endswith("/*"):
        assert target.is_dir(), f"DESIGN.md names missing directory {path}"
    else:
        assert target.is_file(), f"DESIGN.md names missing module {path}"
