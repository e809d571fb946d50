"""Nelder-Mead and Basin Hopping kept as a reference for the optimizer tests.

``nelder_mead``, ``_normalize_objective`` and ``basin_hopping`` are the
search as it stood before Nelder-Mead's evaluation budget was checked in one
place and Basin Hopping kept one best record: the budget is tested before
each simplex vertex, at the loop head and before the expansion, contraction
and each shrink evaluation, and the best point is tracked twice, once over
all candidates and once over feasible ones.  The tests check the search in
``cellflex.optimizer`` against it bit for bit.
"""

import math
import numbers

import numpy as np

from cellflex.errors import ConfigurationError
from cellflex.optimizer import (
    ADJUST_INTERVAL,
    BasinHoppingConfig,
    BasinHoppingResult,
    IterationRecord,
    NelderMeadSettings,
    _box,
    adapt_step_size,
    metropolis_accept,
)


def nelder_mead(f, x0, *, bounds=None, scale=0.1, settings=NelderMeadSettings()):
    """Downhill-simplex minimization with clamp-at-evaluation box handling.

    The initial simplex displaces each coordinate of ``x0`` by ``scale``.
    The simplex itself may wander outside ``bounds``; every objective
    evaluation sees the clamped point and the returned minimizer is clamped.
    Returns ``(x_best, f_best, n_evals)`` and never returns a point worse
    than the evaluated start point.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if d == 0:
        raise ConfigurationError("cannot optimize a zero-dimensional vector")
    lo, hi = _box(bounds, d).T

    best = {"f": math.inf, "x": None}
    n_evals = 0

    def evaluate(x):
        nonlocal n_evals
        xe = np.clip(x, lo, hi)
        fx = float(f(xe))
        n_evals += 1
        if fx < best["f"]:
            best["f"] = fx
            best["x"] = xe.copy()
        return fx

    maxfev = settings.maxfev

    # initial simplex: start point plus one displaced vertex per dimension
    simplex = [x0.copy()]
    fvals = [evaluate(x0)]
    for i in range(d):
        if n_evals >= maxfev:
            return best["x"], best["f"], n_evals
        v = x0.copy()
        v[i] += scale
        simplex.append(v)
        fvals.append(evaluate(v))
    simplex = np.array(simplex)
    fvals = np.array(fvals)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

    while n_evals < maxfev:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]

        if (fvals[-1] - fvals[0] <= settings.fatol
                and np.max(np.abs(simplex[1:] - simplex[0])) <= settings.xatol):
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = evaluate(xr)

        if fr < fvals[0]:
            if n_evals < maxfev:
                xe_ = centroid + gamma * (xr - centroid)
                fe = evaluate(xe_)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe_, fe
                else:
                    simplex[-1], fvals[-1] = xr, fr
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + rho * (xr - centroid)       # outside contraction
            else:
                xc = centroid - rho * (centroid - simplex[-1])  # inside
            if n_evals >= maxfev:
                break
            fc = evaluate(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                # shrink toward the best vertex
                for i in range(1, d + 1):
                    if n_evals >= maxfev:
                        break
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = evaluate(simplex[i])

    return best["x"], best["f"], n_evals


def _normalize_objective(f):
    """Let f return either a float or an (of, feasible) pair."""
    def call(x):
        r = f(x)
        if isinstance(r, tuple):
            return float(r[0]), bool(r[1])
        return float(r), True
    return call


def basin_hopping(f, x0, config: BasinHoppingConfig, *, bounds=None, rng=None,
                  patience=None):
    """Global search over ``f`` starting from (and warm-started by) ``x0``.

    ``f`` maps a vector to an objective value, optionally paired with a
    network-feasibility flag.  The start point is evaluated as iteration 0 and
    becomes the first incumbent; the first candidate of a warm-started run is
    therefore refined from the previous solution, not from scratch.
    ``patience`` (an integer >= 1, or None for no stall stop) ends the search
    after that many iterations in a row without a better candidate.
    """
    if patience is not None and not (
            isinstance(patience, numbers.Integral) and patience >= 1):
        raise ConfigurationError(
            f"patience must be None or an integer >= 1, got {patience!r}")
    call = _normalize_objective(f)
    if rng is None:
        rng = np.random.default_rng(config.seed)

    x0 = np.asarray(x0, dtype=float)
    bounds = _box(bounds, x0.size)
    lo, hi = bounds.T
    x0 = np.clip(x0, lo, hi)

    of0, feas0 = call(x0)
    n_evals = 1
    incumbent_x, incumbent_of = x0.copy(), of0
    best_any = {"x": x0.copy(), "of": of0, "feasible": feas0}
    best_feasible = {"x": x0.copy(), "of": of0} if feas0 else None

    records = [IterationRecord(0, of0, of0, config.step_size, True)]
    step = config.step_size
    n_accepted_total = 0
    window_accepted = 0
    stalled = 0

    # best point of an iteration's local refinement; reset every iteration
    local = {"of": math.inf, "feasible": False}

    def scalar_f(x):
        of, feas = call(x)
        if of < local["of"]:
            local["of"] = of
            local["feasible"] = feas
        return of

    for i in range(1, config.n_iter + 1):
        if patience is not None and stalled >= patience:
            break
        x_try = np.clip(incumbent_x + rng.uniform(-step, step, size=x0.size),
                        lo, hi)

        local["of"], local["feasible"] = math.inf, False
        x_cand, of_cand, evals = nelder_mead(
            scalar_f, x_try, bounds=bounds, scale=max(0.25 * step, 0.01),
            settings=config.nm)
        n_evals += evals
        cand_feasible = local["feasible"]

        accepted = metropolis_accept(of_cand - incumbent_of,
                                     config.temperature, rng)
        if accepted:
            incumbent_x, incumbent_of = x_cand.copy(), of_cand
            n_accepted_total += 1
            window_accepted += 1

        stalled += 1
        if of_cand < best_any["of"]:
            best_any = {"x": x_cand.copy(), "of": of_cand,
                        "feasible": cand_feasible}
            stalled = 0
        if cand_feasible and (best_feasible is None
                              or of_cand < best_feasible["of"]):
            best_feasible = {"x": x_cand.copy(), "of": of_cand}
            stalled = 0

        records.append(IterationRecord(i, of_cand, best_any["of"], step, accepted))

        if i % ADJUST_INTERVAL == 0:
            step = adapt_step_size(step, window_accepted, ADJUST_INTERVAL)
            window_accepted = 0

    if best_feasible is not None:
        return BasinHoppingResult(
            x=best_feasible["x"], of=best_feasible["of"], feasible=True,
            iterations=records, n_evals=n_evals, n_accepted=n_accepted_total)
    return BasinHoppingResult(
        x=best_any["x"], of=best_any["of"], feasible=False,
        iterations=records, n_evals=n_evals, n_accepted=n_accepted_total)
