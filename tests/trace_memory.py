"""Peak memory of one ``tracer.trace`` call on C06's flat ground.

The scene, satellite, receiver and launch grid are those of acceptance
criterion C06 at 1 m spacing (785,547 launch rays); only the bounce
count changes.  The figure is the ``tracemalloc`` peak of the call above
what was allocated before it, and that peak per launch ray.  At one and
two bounces the one-bounce bound runs on the launch grid, so memory
follows the rays it keeps; at three it is off, and every launch ray is
intersected.

Run from the repository root:

    PYTHONPATH=src python tests/trace_memory.py

which prints one ``bounces  peak MiB  B/ray`` row per bounce count.
"""

import math
import sys
import tracemalloc

import numpy as np

from conftest import ground_plane, utc
from leochan.states import Frame, StateVector
from leochan.tracer import build_launch_plane, trace

BOUNCES = (1, 2, 3)


def trace_peak(max_bounces: int, spacing_m: float = 1.0) -> tuple[int, int]:
    """(peak bytes, launch rays) of C06's trace at ``max_bounces``."""
    scene = ground_plane(1000.0)
    el = math.radians(50.0)
    sat = 550.0 * np.array([math.cos(el), 0.0, math.sin(el)])
    sat_state = StateVector(Frame.LOCAL, utc(2023, 1, 1), sat, np.zeros(3))
    rx = np.array([0.0, -0.02, 0.0015])
    plane = build_launch_plane(sat_state, scene, spacing_m, rx,
                               1.5 * spacing_m, extent_pad_km=0.005)
    rays = math.prod(plane.grid_shape())
    # the scene computes these on first use and keeps them: they are
    # the scene's memory, not the trace's
    scene.distinct_normals, scene.shape_factors
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        paths = trace(plane, scene, rx, rx_radius_m=1.5 * spacing_m,
                      max_bounces=max_bounces)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [p.bounce_count for p in paths] == [0, 1]
    return peak, rays


def main(argv: list[str]) -> int:
    for bounces in BOUNCES:
        peak, rays = trace_peak(bounces)
        print(f"{bounces:7d}  {peak / 2 ** 20:8.1f}  {peak / rays:5.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
