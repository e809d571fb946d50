"""Receding-horizon dispatch of a flexibility request.

``run_dispatch`` checks that the run fits the scenario's profile window,
captures the pre-request reference state, then for each 15 s dispatch step
runs one Basin Hopping round over the plant-offset vector, scored by
``single_step_objective`` (the same objective the grid-search oracle
minimizes), commits the best found vector to the twin and records the
realized PCC reading, per-class shares and cost.  Each step's search is
warm-started from the previous step's solution: the start vector is
evaluated as iteration 0 and becomes the first incumbent.

Two warm-start candidates are compared before each step and the better one
(feasible first, then lower objective) is kept.  The raw carry reuses the
previous offsets unchanged, which tracks precisely while plant states drift
slowly.  The re-anchored variant maps the previous step's realized plant
powers back to minimal equivalent offsets against a fresh zero-offset
baseline: a raw offset can sit far beyond a plant's saturation point (a
storage heater clamped at zero ignores how negative its command is), and on
that flat plateau junk accumulates silently and poisons later searches.
Re-anchoring cleans that up but is only approximate for plants with
path-dependent dynamics, so neither candidate dominates and the cheap
two-evaluation comparison settles it per step.

Per-class shares: share_x = (sum of realized deviations of class x) divided by
the requested change (active classes against dP, inverter reactive against
dQ).  For a zero-change request the division is skipped and the raw deviation
sum in kW (kVAr) is reported instead.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DispatchError, PowerFlowError
from .optimizer import (
    BasinHoppingConfig,
    CostTable,
    FlexibilityRequest,
    basin_hopping,
    objective_breakdown,
)
from .twin import CellTwin

log = logging.getLogger("cellflex.dispatch")

__all__ = ["StepRecord", "DispatchRun", "run_dispatch", "single_step_objective",
           "technology_shares"]

_SHARE_CLASSES = ("bes", "ehp", "bev", "inv_q")


def technology_shares(plant_deltas, plant_classes, dp_target_kw, dq_target_kvar):
    """Aggregate per-plant deviations into per-technology shares of the request."""
    sums = {"bes": 0.0, "ehp": 0.0, "bev": 0.0, "inv_q": 0.0}
    for delta, cls in zip(plant_deltas, plant_classes):
        if cls == "bes":
            sums["bes"] += delta
        elif cls == "ehp":
            sums["ehp"] += delta
        elif cls in ("bev_v1g", "bev_v2g"):
            sums["bev"] += delta
        elif cls == "inv":
            sums["inv_q"] += delta
        else:
            raise DispatchError(f"unknown plant class '{cls}'")
    shares = {}
    for key in ("bes", "ehp", "bev"):
        shares[key] = sums[key] / dp_target_kw if abs(dp_target_kw) > 1e-9 \
            else sums[key]
    shares["inv_q"] = sums["inv_q"] / dq_target_kvar \
        if abs(dq_target_kvar) > 1e-9 else sums["inv_q"]
    return shares


def single_step_objective(twin, ref, request, costs: CostTable):
    """Objective closure for one dispatch step from ``ref``.

    Returns ``(f, bounds)`` where ``f(x) -> (of, feasible)``.  The PCC targets
    are taken from ``ref``, whose PCC reading stays frozen across
    ``advance_reference``, so every step of a run scores against the same
    targets.
    """
    weights = costs.weights_for(twin.plant_classes)
    p_target = ref.pcc_p_kw + request.dp_kw
    q_target = ref.pcc_q_kvar + request.dq_kvar
    collapse_of = costs.k_infeasible * (len(twin.topology.lines) + 1)

    def f(x):
        ev = twin.evaluate_dispatch(ref, x)
        if ev.failure is not None:
            return collapse_of, False
        bd = objective_breakdown(
            ev.plant_values - ref.plant_values, weights,
            ev.pcc_p_kw - p_target, ev.pcc_q_kvar - q_target,
            ev.n_violations, costs)
        return bd.of, ev.feasible

    return f, twin.plant_bounds()


@dataclass
class StepRecord:
    index: int
    t_s: float                     # end of the step, relative to the request
    offsets: np.ndarray            # committed dispatch vector
    of: float
    feasible: bool
    pcc_p_kw: float
    pcc_q_kvar: float
    dp_target_kw: float
    dq_target_kvar: float
    dp_pcc_kw: float               # realized P change vs frozen reference
    dq_pcc_kvar: float
    shares: dict
    cost_eur: float                # plant deviation cost (penalties excluded)
    plant_cost: float              # same in OF units
    pcc_cost: float
    penalty: float
    n_evals: int
    iterations: list = field(default_factory=list)
    trace: dict | None = None


@dataclass
class DispatchRun:
    scenario_name: str
    request: FlexibilityRequest
    config: BasinHoppingConfig
    costs: CostTable
    n_steps: int
    plant_labels: tuple
    plant_classes: tuple
    ref_pcc_p_kw: float
    ref_pcc_q_kvar: float
    steps: list
    runtime_s: float               # wall time; never written to output files


def run_dispatch(scenario, request, *, n_steps,
                 config: BasinHoppingConfig = None,
                 costs: CostTable = None,
                 warmup_s=None,
                 initial_bes_soc=None):
    """Disaggregate ``request`` across the cell's plants over ``n_steps`` steps.

    ``initial_bes_soc`` overrides every battery's state of charge after warmup
    and before the reference capture (depletion studies).  Raises
    :class:`ConfigurationError` before the warmup if the run outlasts the
    scenario's profile window, and :class:`DispatchError` if a committed step
    fails to solve; partial results travel in the exception's ``trace``
    attribute.
    """
    config = config or BasinHoppingConfig()
    costs = costs or CostTable()
    t_start = time.perf_counter()

    scenario.check_horizon(n_steps)
    twin = CellTwin(scenario)
    ref = twin.run_warmup(warmup_s)
    if initial_bes_soc is not None:
        twin.restore(ref.snapshot)
        twin.override_bes_soc(initial_bes_soc)
        ref = twin.capture_reference()

    weights = costs.weights_for(twin.plant_classes)
    p_target = ref.pcc_p_kw + request.dp_kw
    q_target = ref.pcc_q_kvar + request.dq_kvar
    bounds = twin.plant_bounds()
    rng = np.random.default_rng(config.seed)

    log.info("dispatch: request (%+.3f kW, %+.3f kVAr) on '%s', %d steps, "
             "T=%.3g, n_iter=%d, seed=%s",
             request.dp_kw, request.dq_kvar, scenario.name, n_steps,
             config.temperature, config.n_iter, config.seed)

    steps = []
    x = np.zeros(twin.n_plants)
    f, _ = single_step_objective(twin, ref, request, costs)
    for k in range(n_steps):
        result = basin_hopping(f, x, config, bounds=bounds, rng=rng)
        x = result.x
        try:
            ref, ev = twin.advance_reference(ref, x)
        except PowerFlowError as exc:
            raise DispatchError(
                f"step {k}: committed dispatch failed to solve: {exc}",
                trace=steps) from exc
        bd = objective_breakdown(
            ev.plant_values - ref.plant_values, weights,
            ev.pcc_p_kw - p_target, ev.pcc_q_kvar - q_target,
            ev.n_violations, costs)
        steps.append(StepRecord(
            index=k,
            t_s=ref.t_s,
            offsets=x.copy(),
            of=bd.of,
            feasible=ev.feasible,
            pcc_p_kw=ev.pcc_p_kw,
            pcc_q_kvar=ev.pcc_q_kvar,
            dp_target_kw=request.dp_kw,
            dq_target_kvar=request.dq_kvar,
            dp_pcc_kw=ev.pcc_p_kw - ref.pcc_p_kw,
            dq_pcc_kvar=ev.pcc_q_kvar - ref.pcc_q_kvar,
            shares=technology_shares(ev.plant_values - ref.plant_values,
                                     twin.plant_classes,
                                     request.dp_kw, request.dq_kvar),
            cost_eur=bd.cost_eur,
            plant_cost=bd.plant_cost,
            pcc_cost=bd.pcc_cost,
            penalty=bd.penalty,
            n_evals=result.n_evals,
            iterations=result.iterations,
            trace=ev.trace,
        ))
        log.debug("step %d: OF=%.6g dP_err=%+.4f kW dQ_err=%+.4f kVAr",
                  k, bd.of, ev.pcc_p_kw - p_target, ev.pcc_q_kvar - q_target)
        if k + 1 < n_steps:
            f, _ = single_step_objective(twin, ref, request, costs)
            base = twin.evaluate_dispatch(ref, np.zeros(twin.n_plants))
            if base.failure is None:
                x_clean = np.clip(ev.plant_values - base.plant_values,
                                  bounds[:, 0], bounds[:, 1])
                of_raw, feas_raw = f(x)
                of_clean, feas_clean = f(x_clean)
                if (feas_clean, -of_clean) > (feas_raw, -of_raw):
                    x = x_clean

    return DispatchRun(
        scenario_name=scenario.name,
        request=request,
        config=config,
        costs=costs,
        n_steps=n_steps,
        plant_labels=twin.plant_labels,
        plant_classes=twin.plant_classes,
        ref_pcc_p_kw=ref.pcc_p_kw,
        ref_pcc_q_kvar=ref.pcc_q_kvar,
        steps=steps,
        runtime_s=time.perf_counter() - t_start,
    )
