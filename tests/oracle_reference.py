"""Brute-force reference for the grid-search oracle: the plain product loop.

Evaluates every point of the oracle's offset grid (each axis from the lower
bound in steps of the resolution, clipped to the upper bound), in product
order, through the same objective as ``grid_search_oracle``, and keeps the
first point of the lowest objective.  No point is skipped, so the oracle,
which skips the points its lower bound rules out, must return the same
``(of, x)`` bit for bit.
"""

import itertools

import numpy as np

from cellflex.dispatch import StepObjective
from cellflex.twin import CellTwin


def brute_force_oracle(scenario, request, resolution):
    """``(of, x, n_points)`` of an exhaustive search over the offset grid."""
    twin = CellTwin(scenario)
    ref = twin.run_warmup()
    f = StepObjective(twin, ref, request)
    axes = [np.clip(lo + resolution * np.arange(round((hi - lo) / resolution) + 1),
                    lo, hi)
            for lo, hi in f.bounds]
    best_of, best_x, n_points = float("inf"), None, 0
    for point in itertools.product(*axes):
        x = np.array(point)
        of, _feasible = f(x)
        n_points += 1
        if of < best_of:
            best_of, best_x = of, x
    return best_of, best_x, n_points
