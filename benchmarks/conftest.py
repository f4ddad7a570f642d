"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` file regenerates one experiment from DESIGN.md's
per-experiment index (a figure or worked example of the thesis).  Every
benchmark

* hands its timed body to pytest-benchmark (run once under
  ``--benchmark-disable``, the way CI and EXPERIMENTS.md run these
  files: no file records a wall-clock number — timing is
  ``benchmarks/macro``'s business),
* records the *shape* metrics (who wins, by what factor, where the
  crossover falls) in ``benchmark.extra_info`` and via :func:`report`,
  and
* asserts the qualitative claim, so a shape regression fails the run.

Wall-clock numbers are GIL-attenuated (see DESIGN.md "Fidelity notes");
the deterministic message/byte counters are not.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.runtime import IntegratedRuntime


@pytest.fixture(scope="module")
def rt8() -> IntegratedRuntime:
    return IntegratedRuntime(8)


@pytest.fixture(scope="module")
def rt16() -> IntegratedRuntime:
    return IntegratedRuntime(16)


def report(title: str, rows: list) -> None:
    """Print one experiment's reproduced series as an aligned table."""
    out = [f"\n=== {title} ==="]
    if rows:
        widths = [
            max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))
        ]
        for row in rows:
            out.append(
                "  " + "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
            )
    print("\n".join(out), file=sys.stderr, flush=True)
