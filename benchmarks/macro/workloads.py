"""The six workloads.

Each workload owns its distributed state, its seeded inputs and a plain
NumPy mirror of the same problem, and exposes:

``run_op(i)``        one operation, timed by the driver; returns what
                     ``ok`` needs
``ok(i, result)``    the reference check of op ``i``, outside the timer;
                     it also advances the mirror
``between_blocks()`` a check that itself costs messages, run outside both
                     the timers and the counter window
``digest_ok()``      the §3.3 claim at the end of the run: the distributed
                     state equals the sequential mirror
``serial(i)``        op ``i`` in single-threaded NumPy on scratch state
``corrupt()``        damage the mirror (the self-test's injected fault)

Inputs are drawn from the seed during set-up into a pool that the ops
cycle through, so the generator is never inside a timed region.  Which
*sections* an op touches is fixed and only the cells inside them are
seeded: an element owned by VP 0 costs no message, so a seeded owner
would make ``msgs_per_op`` depend on the seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.apps import innerproduct
from repro.apps.climate import ClimateSimulation
from repro.apps.polymul import PolynomialMultiplier, polymul_reference
from repro.arrays.decomposition import Block, balanced_grid
from repro.core.darray import DistributedArray
from repro.spmd import linalg
from repro.status import Status

NODES = 8
POOL = 32  # distinct seeded input sets per workload; ops cycle through them


class Workload:
    """What the driver needs of a workload that has no check costing
    messages between blocks."""

    def between_blocks(self) -> bool:
        return True


class Ex61Calls(Workload):
    """EX-6.1: create two vectors, one distributed call, free both."""

    local_m = 4

    def __init__(self, rt: Any, rng: np.random.Generator) -> None:
        self.rt = rt
        self.expected = innerproduct.expected_inner_product(
            NODES * self.local_m
        )
        self.last = self.expected

    def run_op(self, i: int) -> float:
        return innerproduct.run(self.rt, local_m=self.local_m)

    def ok(self, i: int, result: float) -> bool:
        self.last = result
        return result == self.expected

    def digest_ok(self) -> bool:
        return self.last == self.expected

    def serial(self, i: int) -> float:
        v = np.arange(NODES * self.local_m, dtype=np.float64) + 1.0
        return float(v @ v)

    def corrupt(self) -> None:
        self.expected += 1.0


class Ex62Pipeline(Workload):
    """EX-6.2: eight polynomial pairs through the three-stage pipeline."""

    n = 256
    pairs_per_op = 8
    atol = 1e-8

    def __init__(self, rt: Any, rng: np.random.Generator) -> None:
        self.multiplier = PolynomialMultiplier(rt, self.n)
        self.pairs = [
            (rng.uniform(-1, 1, self.n), rng.uniform(-1, 1, self.n))
            for _ in range(POOL)
        ]
        self.references = [polymul_reference(f, g) for f, g in self.pairs]
        self.last_ok = True

    def _slice(self, i: int) -> slice:
        start = (i * self.pairs_per_op) % POOL
        return slice(start, start + self.pairs_per_op)

    def run_op(self, i: int) -> list:
        return self.multiplier.multiply_stream(self.pairs[self._slice(i)]).outputs

    def run_sequential(self, i: int) -> list:
        """The same op with the stages applied item at a time (FIG-2.2)."""
        return self.multiplier.multiply_stream_sequential(
            self.pairs[self._slice(i)]
        ).outputs

    def ok(self, i: int, outputs: list) -> bool:
        references = self.references[self._slice(i)]
        self.last_ok = len(outputs) == len(references) and all(
            np.allclose(out, ref, rtol=0.0, atol=self.atol)
            for out, ref in zip(outputs, references)
        )
        return self.last_ok

    def digest_ok(self) -> bool:
        return self.last_ok

    def serial(self, i: int) -> list:
        return [polymul_reference(f, g) for f, g in self.pairs[self._slice(i)]]

    def corrupt(self) -> None:
        self.references = [ref + 1.0 for ref in self.references]


class ClimateHalo(Workload):
    """FIG-2.1: two coupled heat domains, one time step per op."""

    shape = (32, 64)
    sweeps = 2
    coupling = 0.5

    def __init__(self, rt: Any, rng: np.random.Generator) -> None:
        ocean_temp = 10.0 + float(rng.uniform(-1, 1))
        atmos_temp = -10.0 + float(rng.uniform(-1, 1))
        self.sim = ClimateSimulation(
            rt, shape=self.shape, ocean_temp=ocean_temp,
            atmos_temp=atmos_temp, coupling=self.coupling,
            sweeps_per_step=self.sweeps,
        )
        # The mirror keeps the 1-deep border of zeros the sections have:
        # the physical-edge border cells are the Dirichlet values.
        self.mirror = self._fields(ocean_temp, atmos_temp)
        self.scratch = self._fields(ocean_temp, atmos_temp)
        self.last = None

    def _fields(self, ocean: float, atmos: float) -> Dict[str, np.ndarray]:
        fields = {}
        for name, value in (("ocean", ocean), ("atmosphere", atmos)):
            full = np.zeros((self.shape[0] + 2, self.shape[1] + 2))
            full[1:-1, 1:-1] = value
            fields[name] = full
        return fields

    def _step(self, fields: Dict[str, np.ndarray]) -> None:
        """One coupled step in plain NumPy, in the kernel's own order of
        additions so that the comparison can be bit-for-bit."""
        for full in fields.values():
            for _ in range(self.sweeps):
                full[1:-1, 1:-1] = 0.25 * (
                    full[:-2, 1:-1] + full[2:, 1:-1]
                    + full[1:-1, :-2] + full[1:-1, 2:]
                )
        ocean_top = fields["ocean"][1, 1:-1].copy()
        atmos_bottom = fields["atmosphere"][-2, 1:-1].copy()
        mean = 0.5 * (ocean_top + atmos_bottom)
        c = self.coupling
        fields["ocean"][1, 1:-1] = (1 - c) * ocean_top + c * mean
        fields["atmosphere"][-2, 1:-1] = (1 - c) * atmos_bottom + c * mean

    def run_op(self, i: int) -> Any:
        return self.sim.run(1)

    def ok(self, i: int, result: Any) -> bool:
        self._step(self.mirror)
        self.last = result
        return self._matches(result)

    def _matches(self, result: Any) -> bool:
        return (
            result is not None
            and np.array_equal(result.ocean, self.mirror["ocean"][1:-1, 1:-1])
            and np.array_equal(
                result.atmosphere, self.mirror["atmosphere"][1:-1, 1:-1]
            )
        )

    def digest_ok(self) -> bool:
        return self._matches(self.last)

    def serial(self, i: int) -> None:
        self._step(self.scratch)

    def corrupt(self) -> None:
        self.mirror["ocean"][1, 1] += 1.0


def _seeded_cell(rng: np.random.Generator, arr: DistributedArray,
                 section: int) -> Tuple[int, ...]:
    """A seeded cell inside a fixed section."""
    coords = arr.layout.section_coords(section)
    return tuple(
        int(c * ld + rng.integers(ld))
        for c, ld in zip(coords, arr.local_dims)
    )


class MirroredArray:
    """A 64x64 ``double`` array on the default grid (4, 2), a NumPy
    mirror of it, and a pool of seeded inputs drawn by ``_draw``."""

    replication = 0

    def __init__(self, rt: Any, rng: np.random.Generator) -> None:
        dims = (64, 64)
        self.arr = DistributedArray.create(
            rt.machine, "double", dims, rt.all_processors(),
            [Block(g) for g in balanced_grid(dims, NODES)],
            replication=self.replication,
        )
        self.mirror = rng.random(dims)
        self.arr.from_numpy(self.mirror)
        self.scratch = self.mirror.copy()
        self.inputs = [self._draw(rng) for _ in range(POOL)]

    def _draw(self, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def between_blocks(self) -> bool:
        return self.digest_ok()

    def digest_ok(self) -> bool:
        return np.array_equal(self.arr.to_numpy(), self.mirror)


class ArrayWrites(MirroredArray):
    """Task-level writes to a replicated array: 60 element writes over
    all eight sections, one 16x16 region write, three read-backs."""

    replication = 1
    per_section = (8, 8, 8, 8, 7, 7, 7, 7)
    readback_sections = (2, 5, 7)

    def _draw(self, rng: np.random.Generator) -> tuple:
        writes: List[Tuple[int, int, float]] = []
        readbacks = []
        # Round-robin over the sections, so no queue reaches the
        # coalescer's 32-write threshold and every op flushes alike.
        for turn in range(max(self.per_section)):
            for section, count in enumerate(self.per_section):
                if turn < count:
                    i, j = _seeded_cell(rng, self.arr, section)
                    writes.append((i, j, float(rng.random())))
                    if turn == 0 and section in self.readback_sections:
                        readbacks.append((i, j))
        # A region that straddles four sections and never touches
        # section row 0, where VP 0's section would cost no message.
        r0 = 16 * int(rng.integers(1, 3)) + int(rng.integers(1, 16))
        c0 = int(rng.integers(17, 32))
        block = rng.random((16, 16))
        return writes, (r0, c0), block, readbacks

    @staticmethod
    def _apply(target: np.ndarray, inputs: tuple) -> None:
        writes, (r0, c0), block, _readbacks = inputs
        for i, j, value in writes:
            target[i, j] = value
        target[r0:r0 + 16, c0:c0 + 16] = block

    def run_op(self, i: int) -> list:
        writes, (r0, c0), block, readbacks = self.inputs[i % POOL]
        arr = self.arr
        for row, col, value in writes:
            arr[row, col] = value
        arr.write_region([(r0, r0 + 16), (c0, c0 + 16)], block)
        return [arr[row, col] for row, col in readbacks]

    def ok(self, i: int, values: list) -> bool:
        inputs = self.inputs[i % POOL]
        self._apply(self.mirror, inputs)
        return all(
            value == self.mirror[cell]
            for value, cell in zip(values, inputs[3])
        )

    def serial(self, i: int) -> list:
        inputs = self.inputs[i % POOL]
        self._apply(self.scratch, inputs)
        return [self.scratch[cell] for cell in inputs[3]]

    def corrupt(self) -> None:
        self.mirror[0, 0] += 1.0


class ArrayReads(MirroredArray):
    """Task-level reads of an unreplicated array: 48 element reads, a
    write + read-back after every 16th, one 32x32 region read."""

    reads = 48

    def _draw(self, rng: np.random.Generator) -> tuple:
        # Read k goes to section k mod 8: six reads per section, and the
        # three that are followed by a write all land on section 7.
        cells = [
            _seeded_cell(rng, self.arr, k % NODES) for k in range(self.reads)
        ]
        values = [float(rng.random()) for _ in range(self.reads // 16)]
        # Three section rows by both columns, never section row 0.
        r0 = int(rng.integers(17, 32))
        c0 = int(rng.integers(1, 32))
        return cells, values, (r0, c0)

    def run_op(self, i: int) -> tuple:
        cells, values, (r0, c0) = self.inputs[i % POOL]
        arr = self.arr
        got = []
        for k, cell in enumerate(cells):
            got.append(arr[cell])
            if k % 16 == 15:
                arr[cell] = values[k // 16]
                got.append(arr[cell])
        region = arr.read_region([(r0, r0 + 32), (c0, c0 + 32)])
        return got, region

    @staticmethod
    def _expected(state: np.ndarray, inputs: tuple) -> tuple:
        cells, values, (r0, c0) = inputs
        want = []
        for k, cell in enumerate(cells):
            want.append(state[cell])
            if k % 16 == 15:
                state[cell] = values[k // 16]
                want.append(state[cell])
        return want, state[r0:r0 + 32, c0:c0 + 32]

    def ok(self, i: int, result: tuple) -> bool:
        got, region = result
        want, want_region = self._expected(self.mirror, self.inputs[i % POOL])
        return got == want and np.array_equal(region, want_region)

    def serial(self, i: int) -> tuple:
        want, region = self._expected(self.scratch, self.inputs[i % POOL])
        return want, region.copy()

    def corrupt(self) -> None:
        self.mirror[63, 63] += 1.0


class MatmulKernel:
    """One distributed ``mat_mat`` on three 512x512 row-block arrays."""

    n = 512
    rtol = 1e-10

    def __init__(self, rt: Any, rng: np.random.Generator) -> None:
        self.rt = rt
        self.procs = rt.all_processors()
        n = self.n
        self.a, self.b, self.c = (
            rt.array("double", (n, n), self.procs, ["block", "*"])
            for _ in range(3)
        )
        self.a_full = rng.random((n, n))
        self.b_full = rng.random((n, n))
        self.a.from_numpy(self.a_full)
        self.b.from_numpy(self.b_full)
        self.product = self.a_full @ self.b_full

    def run_op(self, i: int) -> Any:
        return self.rt.call(
            self.procs, linalg.mat_mat, [self.a, self.b, self.c]
        ).status

    def ok(self, i: int, status: Any) -> bool:
        return status is Status.OK

    def between_blocks(self) -> bool:
        return self.digest_ok()

    def digest_ok(self) -> bool:
        return np.allclose(
            self.c.to_numpy(), self.product, rtol=self.rtol, atol=0.0
        )

    def serial(self, i: int) -> np.ndarray:
        return self.a_full @ self.b_full

    def corrupt(self) -> None:
        self.product = self.product + 1.0


WORKLOADS = {
    "ex61_calls": Ex61Calls,
    "ex62_pipeline": Ex62Pipeline,
    "climate_halo": ClimateHalo,
    "array_writes": ArrayWrites,
    "array_reads": ArrayReads,
    "matmul_kernel": MatmulKernel,
}
