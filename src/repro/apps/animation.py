"""Animation-frame generation (§2.3.4, Fig 2.4).

"Two or more frames can be generated independently and concurrently, each
by a different data-parallel program."  Frames here are escape-time
renderings of a Julia-set sweep (the classic embarrassingly parallel
renderer): frame k renders the Julia set of c(k) on a row-block-distributed
image array; frames are farmed over disjoint processor groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.calls.params import Index, Local
from repro.core.darray import DistributedArray
from repro.core.farm import FarmResult, TaskFarm
from repro.core.runtime import IntegratedRuntime
from repro.spmd.context import SPMDContext
from repro.spmd.linalg import interior
from repro.status import check_status


def render_julia_rows(
    ctx: SPMDContext,
    index,
    height,
    width,
    c_real,
    c_imag,
    max_iter,
    section,
) -> None:
    """DP program: render this copy's row block of a Julia-set frame.

    Precondition: the image array is (height, width), distributed
    ``(block, "*")`` so each copy owns ``height/P`` full rows.
    Postcondition: section[r, c] = normalised escape iteration count.
    """
    img = interior(section)
    rows = img.shape[0]
    base = int(index) * rows
    h, w = int(height), int(width)
    ys = np.linspace(-1.5, 1.5, h)[base : base + rows]
    xs = np.linspace(-1.5, 1.5, w)
    z = xs[None, :] + 1j * ys[:, None]
    c = complex(float(c_real), float(c_imag))
    iters = int(max_iter)
    count = np.zeros(z.shape, dtype=np.float64)
    live = np.ones(z.shape, dtype=bool)
    for _ in range(iters):
        z[live] = z[live] ** 2 + c
        escaped = live & (np.abs(z) > 2.0)
        live &= ~escaped
        count[live] += 1.0
    img[:] = count / iters


def julia_parameter(frame: int, frames: int) -> complex:
    """The animated parameter path: c sweeps along a small circle."""
    theta = 2.0 * np.pi * frame / max(1, frames)
    return complex(-0.744 + 0.02 * np.cos(theta), 0.148 + 0.02 * np.sin(theta))


@dataclass
class AnimationResult:
    frames: list
    farm_result: FarmResult


def render_frame_on(
    rt: IntegratedRuntime,
    group: Sequence[int],
    shape: tuple[int, int],
    c: complex,
    max_iter: int = 40,
) -> np.ndarray:
    """Render one frame as a distributed call on ``group``."""
    p = len(group)
    image = DistributedArray.create(
        rt.machine, "double", shape, group, [("block", p), "*"]
    )
    try:
        result = rt.call(
            group,
            render_julia_rows,
            [
                Index(),
                shape[0],
                shape[1],
                c.real,
                c.imag,
                max_iter,
                Local(image.array_id),
            ],
        )
        check_status(result.status, "render failed")
        return image.to_numpy()
    finally:
        image.free()


def render_animation(
    rt: IntegratedRuntime,
    frames: int,
    groups: int = 2,
    shape: tuple[int, int] = (32, 32),
    max_iter: int = 40,
) -> AnimationResult:
    """Generate ``frames`` frames over ``groups`` disjoint groups (Fig
    2.4); results are returned in frame order."""
    farm = TaskFarm(rt.split_processors(groups))

    def make_job(k: int):
        def job(group: Sequence[int]):
            return render_frame_on(
                rt, group, shape, julia_parameter(k, frames), max_iter
            )

        return job

    farm_result = farm.run([make_job(k) for k in range(frames)])
    return AnimationResult(frames=farm_result.results, farm_result=farm_result)
