"""Exhaustive grid-search oracle for tiny dispatch problems.

Enumerates the full offset box of a cell with at most three controllable
plants at a fixed resolution and evaluates every grid point that can hold
the answer through exactly the same twin-plus-objective path the Basin
Hopping dispatcher uses, a ``StepObjective``.  Serves as an independent
optimality reference: the dispatcher's objective on the same problem must
not exceed the oracle's best by more than the grid gap.  Each axis runs from
the plant's lower offset bound in steps of the resolution, clipped to its
upper bound.  The answer is the first point in product order with the
lowest objective, as a plain product loop with a strict ``of < best_of``
update finds it (``tests/oracle_reference.py``), bit for bit.

Points that cannot hold the answer are not evaluated.  A plant's end state
depends only on the snapshot it starts from and its own offset (the
separability the incremental twin rests on).  So before the scan, one probe
per axis point moves that plant alone from the first grid point
(``_probe_axes``, through ``CellTwin.probe_plant``: the other plants are
integrated once, then each probe restores and steps that plant alone and
reads its value and the bus injections; no power flow is solved, since the
bound below never needs one).  The probes give a lower bound on the
objective at every grid point (branch and bound, Land & Doig 1960), computed
for the whole grid at once by numpy broadcasting (``_lower_bounds``) from
the objective's own plant weights, PCC targets and collapse score:

* Plant cost: each probe records its plant's deviation delta_i, which is
  the same at every point with that offset, so sum_i k_i*|delta_i| is the
  point's plant cost.
* Tracking: a probe also records the bus injections.  A plant moves only its
  own bus, so a point's injections are the first point's plus each plant's
  move, and their sums P_ll and Q_ll are the lossless PCC reading.  Series
  losses lie in [0, L_max]: R and X are >= 0 (the loader checks, from the
  schema), and a solve that does not collapse computes every load current
  from voltages of at least ``V_COLLAPSE_PU`` of nominal, so no branch
  carries more than sum_b |S_b| / (3 v_floor).  The tracking cost is then at
  least k_pcc_p * dist(P_target, [P_ll, P_ll + L_p]) plus the same for Q.
* The line penalty is >= 0, and a failed solve scores the objective's
  ``StepObjective.collapse_of``, so the bound is capped there.

The bound is formed in another order than ``objective_breakdown`` and from
reconstructed injections, so it rounds differently.  Two terms are loosened
by the relative margin ``_LB_MARGIN`` (1e-9), orders of magnitude above any
such rounding:

* the plant cost, a sum of at most three non-negative products, lies within
  a few units of 2^-53 of its exact value in any summation order; it is
  multiplied by 1 - 1e-9;
* each tracking interval is widened on both sides by 1e-9 times (1 kW +
  |P_target| + |Q_target| + sum_b |S_b| + L_p + L_q).  Every sum the twin,
  the power flow and the oracle form here takes fewer than 90 rounded
  operations on a feeder of up to 60 buses, so it is off by less than 1e-14
  of its operands' summed magnitude; the widening covers operands up to
  10^5 times the magnitudes it names, and its 1 kW floor alone covers
  operands up to 10^5 kW.

With each term at or below its counterpart in the objective, and rounding to
nearest monotone, the bound's sum, formed in the objective's order, stays at
or below the objective's float value.

The scan then returns the brute-force answer.  The point with the lowest
bound is evaluated first; its objective U is a value some point reaches.
The grid is walked in product order with the strict update, skipping
each point whose bound exceeds U or is at least the best objective so far.
Let p* be the first minimizer and OF* its objective: lb(p*) <= OF* <= U, and
every point before p* has a larger objective, so the best so far when p* is
reached is above OF* and p* is evaluated and taken; no later point is below
OF*.  A skipped point's objective is at least its bound, so it could not
have been taken either.  A NaN bound never compares true, so it never skips
a point.  On the toy cell at 0.05 the bound leaves one or two of the 5,957
points to evaluate after the 198 probes.

Points that score alike are evaluated once.  The objective reads only the
plant values and the bus injections, and a plant's value fixes its share
of its bus injection (a heat pump's Q is P tan(phi); an inverter's P does
not depend on its Q offset).  So two offsets of one plant whose probes give
the same plant value and bus injections, bit for bit, give the same
objective bits at every grid point.  The scan's objective is keyed on each
axis's first offset with that probe record: the first point of a key is
evaluated and the others reuse its objective, the value they would have
had, so the scan's answer is unchanged.  On the toy cell this skips the
battery offsets below its discharge clamp, which share the clamp's bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispatch import StepObjective
from .errors import ConfigurationError
from .grid import V_COLLAPSE_PU
from .twin import CellTwin

__all__ = ["make_toy_scenario", "grid_search_oracle", "OracleResult"]

_MAX_ORACLE_PLANTS = 3
# at most a million grid points: ~17 s of evaluations on the toy cell (~17 us
# each on a 2-core Xeon) if the bound pruned nothing, and a few tens of MB of
# bound arrays; the default 0.05 grid has 5,957 points, and after 198
# single-plant probes the bound leaves one of them to evaluate on the request
# (1.0 kW, 0.3 kVAr)
_MAX_ORACLE_POINTS = 1_000_000
# relative rounding margin of the lower bound (see the module docstring)
_LB_MARGIN = 1e-9


def make_toy_scenario():
    """One prosumer with a 2/2 kW battery and a 3 kVA inverter on a stub feeder.

    Flat household demand, constant weather and zero irradiance make the
    reference stationary, so a single dispatch step is a clean optimization
    problem in (battery ΔP, inverter ΔQ).
    """
    from .scenario import scenario_from_dict
    return scenario_from_dict({
        "name": "toy2",
        "topology": {
            "pcc_bus": "pcc",
            "transformer_kva": 100.0,
            "buses": [{"id": "pcc"}, {"id": "h01"}],
            "lines": [{"from": "pcc", "to": "h01",
                       "r_ohm": 0.01, "x_ohm": 0.004, "i_max_a": 270.0}],
        },
        "weather": {
            "ambient_mean_c": 5.0,
            "ambient_swing_c": 0.0,
            "irradiance_peak_w_m2": 0.0,
            "sunrise_hour": 8.0,
            "sunset_hour": 16.0,
        },
        "simulation": {
            "start": "2023-01-16T20:00:00",
            "internal_dt_s": 1.0,
            "dispatch_step_s": 15.0,
            "warmup_s": 7200.0,
            "profile_back_days": 1.0,
            "profile_forward_days": 1.0,
        },
        "prosumers": [{
            "id": "t01",
            "bus": "h01",
            "household": {"p_base_kw": 0.5, "p_morning_kw": 0.0,
                          "p_evening_kw": 0.0, "tan_phi": 0.2},
            "pv": {"s_rated_kva": 3.0, "p_peak_kwp": 3.0},
            "bes": {"capacity_kwh": 5.0, "p_max_charge_kw": 2.0,
                    "p_max_discharge_kw": 2.0, "soc0": 0.5},
            "bevs": [],
        }],
    })


@dataclass
class OracleResult:
    of: float
    x: np.ndarray
    n_evals: int        # n_probes plus the grid points evaluated
    n_points: int       # points of the offset grid
    resolution: float
    n_probes: int       # single-plant probes, one per axis point
    n_pruned: int       # grid points not evaluated


def _grid_axes(bounds, resolution):
    """Each plant's offsets: from its lower bound in steps of `resolution`,
    clipped to its upper bound."""
    axes = []
    for lo, hi in bounds:
        n = int(round((hi - lo) / resolution))
        axes.append(np.clip(lo + resolution * np.arange(n + 1), lo, hi))
    return axes


def _probe_axes(f, axes):
    """Probe every axis point: that plant alone moved from the first grid point
    of objective ``f``'s step.

    Returns one ``CellTwin.probe_plant`` result ``(values, injections)`` per
    axis, each indexed by the axis's offsets.
    """
    base = [a[0] for a in axes]
    return [f.twin.probe_plant(f.ref, base, i, axis) for i, axis in enumerate(axes)]


def _first_alike(values, injections):
    """Per probe of one axis, the index of its first probe with the same
    plant value and bus injections, bit for bit."""
    records = np.column_stack([values, injections.reshape(len(values), -1)])
    seen = {}
    return [seen.setdefault(record.tobytes(), j)
            for j, record in enumerate(records)]


def _lower_bounds(f, probes):
    """Lower bound on objective ``f`` at every point of the product grid.

    ``probes`` holds one ``(values, injections)`` pair per axis as
    :func:`_probe_axes` returns them; row 0 of every axis must be the first
    grid point.  Returns an array with one axis per plant (see the module
    docstring for why it never exceeds the objective).
    """
    deltas = [v - f.ref.plant_values[i] for i, (v, _) in enumerate(probes)]
    p_bus = [injections[..., 0] for _, injections in probes]
    q_bus = [injections[..., 1] for _, injections in probes]
    n = len(deltas)

    def along(i, values):
        # an axis's per-offset values (plus trailing bus columns) on axis i
        return values.reshape((1,) * i + (len(values),) + (1,) * (n - 1 - i)
                              + values.shape[1:])

    plant_cost = sum(along(i, w * np.abs(d)) for i, (w, d) in
                     enumerate(zip(f.weights, deltas)))

    # the first grid point's injections plus each plant's move; only the
    # buses some probe moved vary across the grid
    p0, q0 = p_bus[0][0], q_bus[0][0]
    moved = np.zeros(len(p0), dtype=bool)
    for p, q in zip(p_bus, q_bus):
        moved |= (p != p0).any(axis=0) | (q != q0).any(axis=0)
    p = p0[moved] + sum(along(i, a[:, moved] - p0[moved])
                        for i, a in enumerate(p_bus))
    q = q0[moved] + sum(along(i, a[:, moved] - q0[moved])
                        for i, a in enumerate(q_bus))
    p_ll = p0[~moved].sum() + p.sum(axis=-1)
    q_ll = q0[~moved].sum() + q.sum(axis=-1)
    s_sum = np.hypot(p0[~moved], q0[~moved]).sum() + np.hypot(p, q).sum(axis=-1)

    p_target, q_target = f.p_target, f.q_target
    topology = f.twin.topology
    v_floor = V_COLLAPSE_PU * (topology.v_nom_ll_v / math.sqrt(3.0))
    tol = _LB_MARGIN * (1.0 + abs(p_target) + abs(q_target) + s_sum)
    # largest branch current in A, then 3 I^2 R (X) summed over the lines in kW
    i_max = (s_sum + tol) * (1000.0 / 3.0) / v_floor
    loss_p = 3.0 * i_max**2 * sum(ln.r_ohm for ln in topology.lines) / 1000.0
    loss_q = 3.0 * i_max**2 * sum(ln.x_ohm for ln in topology.lines) / 1000.0
    tol += _LB_MARGIN * (loss_p + loss_q)

    def dist(target, lo, hi):
        return np.maximum(np.maximum(lo - target, target - hi), 0.0)

    tracking = (f.costs.k_pcc_p * dist(p_target, p_ll - tol, p_ll + loss_p + tol)
                + f.costs.k_pcc_q * dist(q_target, q_ll - tol, q_ll + loss_q + tol))
    return np.minimum(plant_cost * (1.0 - _LB_MARGIN) + tracking, f.collapse_of)


def _scan(lb, objective):
    """``(of, k)`` of the first minimizer in flat order, ``k`` None if no
    objective compares below inf; ``objective(k)`` is called only where the
    bound ``lb`` leaves point k open (see the module docstring)."""
    # the lowest bound's objective is a ceiling on the minimum
    ceiling, first = math.inf, None
    if not np.isnan(lb).all():
        first = int(np.nanargmin(lb))
        ceiling = objective(first)
    best_of, best = math.inf, None
    open_points = np.flatnonzero(~(lb > ceiling))
    for k, bound in zip(open_points.tolist(), lb[open_points].tolist()):
        if bound >= best_of:
            continue
        of = ceiling if k == first else objective(k)
        if of < best_of:
            best_of, best = of, k
    return best_of, best


def grid_search_oracle(scenario, request, *, resolution=0.05):
    """Exhaustively minimize one dispatch step's objective on an offset grid.

    Raises :class:`ConfigurationError` before the warmup if the cell has no
    plant or more than three, the resolution is not finite and positive, or
    the grid would hold more than ``_MAX_ORACLE_POINTS`` points.
    """
    twin = CellTwin(scenario)
    twin.check_plants()
    if twin.n_plants > _MAX_ORACLE_PLANTS:
        raise ConfigurationError(
            f"grid-search oracle handles at most {_MAX_ORACLE_PLANTS} plants, "
            f"scenario has {twin.n_plants}")
    if not 0.0 < resolution < math.inf:     # written so that NaN fails it too
        raise ConfigurationError(f"resolution must be > 0 and finite, got {resolution}")
    # a float estimate of the point count (Python floats, so that an
    # overflow reads as inf without a warning)
    n_points = math.prod((hi - lo) / resolution + 1.0
                         for lo, hi in twin.plant_bounds().tolist())
    if n_points > _MAX_ORACLE_POINTS:
        raise ConfigurationError(
            f"resolution {resolution:g} gives a grid of about {n_points:.3g} "
            f"points; the oracle enumerates at most {_MAX_ORACLE_POINTS:,}")

    f = StepObjective(twin, twin.run_warmup(), request)
    axes = _grid_axes(f.bounds, resolution)
    probes = _probe_axes(f, axes)
    n_probes = sum(map(len, axes))
    lb = _lower_bounds(f, probes)
    firsts = [_first_alike(*probe) for probe in probes]

    def point(k):
        return np.array([a[j] for a, j in zip(axes, np.unravel_index(k, lb.shape))])

    scored = {}

    def objective(k):
        # points whose plants all probe alike score the same bits
        key = tuple(first[j] for first, j in
                    zip(firsts, np.unravel_index(k, lb.shape)))
        if key not in scored:
            scored[key] = f(point(k))[0]
        return scored[key]

    best_of, best = _scan(lb.ravel(), objective)
    best_x = None if best is None else point(best)
    return OracleResult(of=best_of, x=best_x, n_evals=n_probes + len(scored),
                        n_points=lb.size, resolution=resolution,
                        n_probes=n_probes, n_pruned=lb.size - len(scored))
