"""References for the grid-search oracle.

``brute_force_oracle`` is the plain product loop.  It evaluates every point
of the oracle's offset grid (each axis from the lower bound in steps of the
resolution, clipped to the upper bound), in product order, through the same
objective as ``grid_search_oracle``, and keeps the first point of the lowest
objective.  No point is skipped, so the oracle, which skips the points its
lower bound rules out, must return the same ``(of, x)`` bit for bit.

``keyed_oracle`` is the oracle's scan as it stood before it ran on the
sub-grid of distinct probe records: the bound over the full grid, and each
point's objective keyed on the first offset of each axis with the same probe
record, evaluated once per key.  The oracle must count the same evaluations
and pruned points.
"""

import itertools

import numpy as np

from cellflex.dispatch import warm_objective
from cellflex.oracle import _grid_axes, _lower_bounds, _probe_axes, _scan
from cellflex.twin import CellTwin


def brute_force_oracle(scenario, request, resolution):
    """``(of, x, n_points)`` of an exhaustive search over the offset grid."""
    f = warm_objective(CellTwin(scenario), request)
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


def _first_alike(values, injections):
    """Per probe of one axis, the index of its first probe with the same
    plant value and bus injections, bit for bit."""
    records = np.column_stack([values, injections.reshape(len(values), -1)])
    seen = {}
    return [seen.setdefault(record.tobytes(), j)
            for j, record in enumerate(records)]


def keyed_oracle(scenario, request, resolution):
    """``(of, x, n_evals, n_pruned)`` of the keyed scan over the full grid."""
    f = warm_objective(CellTwin(scenario), request)
    axes = _grid_axes(f.bounds, resolution)
    probes = _probe_axes(f, axes)
    n_probes = sum(map(len, axes))
    lb = _lower_bounds(f, probes)
    firsts = [_first_alike(*probe) for probe in probes]

    def point(k):
        return np.array([a[j] for a, j in
                         zip(axes, np.unravel_index(k, lb.shape))])

    scored = {}

    def objective(k):
        key = tuple(first[j] for first, j in
                    zip(firsts, np.unravel_index(k, lb.shape)))
        if key not in scored:
            scored[key] = f(point(k))[0]
        return scored[key]

    best_of, best = _scan(lb.ravel(), objective)
    return (best_of, None if best is None else point(best),
            n_probes + len(scored), lb.size - len(scored))
