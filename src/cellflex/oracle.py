"""Exhaustive grid-search oracle for tiny dispatch problems.

Enumerates the full offset box of a cell with at most three controllable
plants at a fixed resolution and evaluates every grid point through exactly
the same twin-plus-objective path the Basin Hopping dispatcher uses.  Serves
as an independent optimality reference: the dispatcher's objective on the
same problem must not exceed the oracle's best by more than the grid gap.
Each axis runs from the plant's lower offset bound in steps of the
resolution, clipped to its upper bound.

Points that cannot change the answer are not evaluated.  A plant's end state
depends only on the snapshot it starts from and its own offset (the
separability the incremental twin rests on), and an evaluation depends only
on the plants' end states.  So before the product loop, one probe per axis
point moves that plant alone from the first grid point, and each axis keeps
only the first offset of every bit-identical end state of its plant (floats
compared by their bits, so -0.0 differs from 0.0; a state that holds a NaN
is never merged).  A skipped point then has a kept representative, earlier
in product order, whose objective has the same bits; the strict ``of <
best_of`` update never takes the later of two equal values, so the result
is the one the full grid gives, bit for bit.  On the toy cell the battery's
clamp merges 78 of its 161 offsets at the default 0.05 kW.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dispatch import single_step_objective
from .errors import ConfigurationError
from .optimizer import CostTable
from .twin import CellTwin

__all__ = ["make_toy_scenario", "grid_search_oracle", "OracleResult"]

_MAX_ORACLE_PLANTS = 3
# at most ~17 s of evaluations on the toy cell (~17 us each on a 2-core
# Xeon); the default 0.05 grid has 5,957 points, of which 3,071 are
# evaluated after 198 single-plant probes
_MAX_ORACLE_POINTS = 1_000_000


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
    n_evals: int        # evaluate_dispatch calls made, probes included
    n_points: int       # points of the offset grid
    resolution: float


def _state_key(state):
    """Bytes equal only for bit-identical plant states; None if a NaN is held."""
    values = np.array(state, dtype=float)
    return None if np.isnan(values).any() else values.tobytes()


def grid_search_oracle(scenario, request, *, resolution=0.05):
    """Exhaustively minimize one dispatch step's objective on an offset grid.

    Raises :class:`ConfigurationError` before the warmup if the cell has
    more than three plants, the resolution is not finite and positive, or
    the grid would hold more than ``_MAX_ORACLE_POINTS`` points.
    """
    twin = CellTwin(scenario)
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

    ref = twin.run_warmup()
    f, bounds = single_step_objective(twin, ref, request, CostTable())

    axes = []
    for lo, hi in bounds:
        n = int(round((hi - lo) / resolution))
        axes.append(np.clip(lo + resolution * np.arange(n + 1), lo, hi))

    # keep the first offset of each distinct end state of the axis's plant
    kept_axes = []
    for i, axis in enumerate(axes):
        seen, kept = set(), []
        for value in axis:
            probe = [a[0] for a in axes]
            probe[i] = value
            twin.evaluate_dispatch(ref, probe)
            key = _state_key(twin.plant_state(i))
            if key is None or key not in seen:
                seen.add(key)
                kept.append(value)
        kept_axes.append(kept)

    best_of = float("inf")
    best_x = None
    for point in itertools.product(*kept_axes):
        x = np.array(point)
        of, _feasible = f(x)
        if of < best_of:
            best_of = of
            best_x = x
    return OracleResult(of=best_of, x=best_x, n_evals=twin.n_evaluations,
                        n_points=math.prod(map(len, axes)),
                        resolution=resolution)
