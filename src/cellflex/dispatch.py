"""Dispatch of a flexibility request, one step at a time.

Each 15 s dispatch step minimizes one weighted objective over the vector of
plant offsets, ``StepObjective``::

    OF = sum_i k_i * |delta_i|                       (plant deviation cost)
       + K_PCC_P * |P_pcc - P_target|                (active-power tracking)
       + K_PCC_Q * |Q_pcc - Q_target|                (reactive-power tracking)
       + K_INFEASIBLE * n_violating_lines            (network penalty)

where delta_i is the realized plant power minus its frozen reference value
and the targets are the frozen reference PCC reading plus the requested
change.  The weights are module constants: k_i per plant class in
``_PLANT_CLASSES``, then ``K_PCC_P``, ``K_PCC_Q`` and ``K_INFEASIBLE``; one OF
unit is ``EUR_PER_UNIT`` EUR.  A point whose power flow fails scores
``StepObjective.collapse_of`` instead.  The plant cost is summed left to
right in plant order by one compiled call, ``plant_cost(weights, values,
ref)``, not by BLAS, so the objective's bits do not depend on the CPU.

``run_dispatch`` checks that the run fits the scenario's profile window,
captures the pre-request reference state and builds the run's one
``StepObjective`` (plant weights, offset bounds, PCC targets and collapse
score; the same objective the grid-search oracle minimizes).  Then for each
15 s dispatch step it builds a start vector with the exchange pass, refines
it with one Basin Hopping (BH) round over the plant-offset vector, commits
the best found vector to the twin, moves the objective's reference forward
and records the realized PCC reading, per-class shares and cost.  The start
vector is evaluated as BH iteration 0 and becomes the first incumbent, and a
step's search stops after ``STALL_ITERATIONS`` (1) iteration without a
better candidate: BH runs one Nelder-Mead refinement of the start and goes
on only while it keeps finding better candidates.  Each refinement spends at most
``NelderMeadSettings.maxfev`` evaluations (40 by default, see there).

Since a step's search stops at its first worse candidate, the BH temperature
can change only whether that candidate is marked accepted, unless an
infeasible incumbent meets a feasible candidate.  ``temperature_panel``
studies the temperature on one step instead, with searches that run all
their iterations.

The exchange pass (``exchange_pass``) starts step 0 from zero offsets and
every later step from the carry, the previous step's committed offsets,
which track precisely while plant states drift slowly.  It is classical
economic dispatch: a plant's realized power depends only on its own offset,
so the plant cost is separable.  The objective is an L1 plant cost plus an
L1 tracking term, and every plant weight is below the tracking weight, so
its linear relaxation is solved greedily in order of signed marginal cost
(equal incremental cost).  The exchange brings the costly plants' realized
deviations back to zero and refills the PCC error from the cheapest
capacity, counting a move that shrinks a deviation as a saving; re-evaluated
passes absorb losses and plant lags.  Most of its evaluations move one
plant, which the incremental twin re-integrates alone.

Per-class shares: share_x = (sum of realized deviations of class x) divided by
the requested change (active classes against dP, inverter reactive against
dQ).  For a zero-change request the division is skipped and the raw deviation
sum in kW (kVAr) is reported instead.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._build import load_loops
from .errors import ConfigurationError, DispatchError, PowerFlowError
from .optimizer import PCG64, BasinHoppingConfig, FlexibilityRequest, basin_hopping
from .twin import CellTwin

log = logging.getLogger("cellflex.dispatch")

__all__ = ["ObjectiveBreakdown", "objective_breakdown",
           "StepRecord", "DispatchRun", "run_dispatch", "StepObjective",
           "temperature_panel", "technology_shares", "exchange_pass",
           "STALL_ITERATIONS", "K_PCC_P", "K_PCC_Q", "K_INFEASIBLE",
           "EUR_PER_UNIT"]

# BH iterations in a row without a better candidate that end a dispatch step
STALL_ITERATIONS = 1
_ZERO_TOL = 1e-6                # power (kW or kVAr) that counts as zero
_CORRECTIONS = 4                # exchange: corrections that drive one δ_i to 0
_REFILL_PASSES = 6              # exchange: passes that refill the PCC error
# per-kW (kVAr) deviation weight k_i and share key of each plant class
_PLANT_CLASSES = {"bes": (2.78e-4, "bes"), "inv": (1.38e-4, "inv_q"),
                  "ehp": (7.92e-3, "ehp"), "bev_v1g": (5.56e-4, "bev"),
                  "bev_v2g": (9.72e-4, "bev")}
K_PCC_P = 2.78e-2               # per kW of PCC active-power error
K_PCC_Q = 2.78e-2               # per kVAr of PCC reactive-power error
K_INFEASIBLE = 10.0             # per overloaded line
EUR_PER_UNIT = 0.1              # EUR per OF unit

_plant_cost = load_loops().plant_cost


class ObjectiveBreakdown(NamedTuple):
    of: float
    plant_cost: float          # sum k_i |delta_i|  (OF units)
    pcc_cost: float            # PCC tracking terms (OF units)
    penalty: float             # infeasibility term (OF units)
    cost_eur: float            # plant_cost expressed in EUR


def _of_terms(plant_cost, dp_err_kw, dq_err_kvar, n_violations):
    """``(pcc_cost, penalty, of)``: the one place the objective is summed."""
    pcc_cost = K_PCC_P * abs(dp_err_kw) + K_PCC_Q * abs(dq_err_kvar)
    penalty = K_INFEASIBLE * n_violations
    return pcc_cost, penalty, plant_cost + pcc_cost + penalty


def objective_breakdown(values, ref_values, weights, dp_err_kw, dq_err_kvar,
                        n_violations):
    """The objective's terms for realized plant ``values`` against
    ``ref_values``; the three vectors are float64 arrays of one length."""
    plant_cost = _plant_cost(weights, values, ref_values)
    pcc_cost, penalty, of = _of_terms(plant_cost, dp_err_kw, dq_err_kvar,
                                      n_violations)
    return ObjectiveBreakdown(
        of=of,
        plant_cost=plant_cost,
        pcc_cost=pcc_cost,
        penalty=penalty,
        cost_eur=plant_cost * EUR_PER_UNIT,
    )


def technology_shares(plant_deltas, plant_classes, dp_target_kw, dq_target_kvar):
    """Aggregate per-plant deviations into per-technology shares of the request."""
    sums = {"bes": 0.0, "ehp": 0.0, "bev": 0.0, "inv_q": 0.0}
    for delta, cls in zip(plant_deltas, plant_classes):
        if cls not in _PLANT_CLASSES:
            raise DispatchError(f"unknown plant class '{cls}'")
        sums[_PLANT_CLASSES[cls][1]] += delta
    shares = {}
    for key in ("bes", "ehp", "bev"):
        shares[key] = sums[key] / dp_target_kw if abs(dp_target_kw) > 1e-9 \
            else sums[key]
    shares["inv_q"] = sums["inv_q"] / dq_target_kvar \
        if abs(dq_target_kvar) > 1e-9 else sums["inv_q"]
    return shares


class StepObjective:
    """The weighted objective of one dispatch step from ``ref``.

    Calling it on offsets ``x`` returns ``(of, feasible)``: the plant
    deviation cost sum_i k_i |delta_i|, the PCC tracking cost and
    ``K_INFEASIBLE`` per overloaded line, or ``collapse_of`` when the power
    flow fails.  Weights, offset bounds, PCC targets and collapse score are
    computed once.  ``ref`` may be moved forward with ``advance_reference``,
    which keeps the baseline plant powers and PCC reading they are measured
    against, so every step of a run scores against the same targets.
    """

    def __init__(self, twin, ref, request):
        self.twin, self.ref = twin, ref
        self.weights = np.array([_PLANT_CLASSES[c][0]
                                 for c in twin.plant_classes])
        self.bounds = twin.plant_bounds()
        self.p_target = ref.pcc_p_kw + request.dp_kw
        self.q_target = ref.pcc_q_kvar + request.dq_kvar
        self.collapse_of = K_INFEASIBLE * (len(twin.topology.lines) + 1)

    def breakdown(self, ev):
        """``ObjectiveBreakdown`` of a solved evaluation."""
        return objective_breakdown(
            ev.plant_values, self.ref.plant_values, self.weights,
            ev.pcc_p_kw - self.p_target, ev.pcc_q_kvar - self.q_target,
            ev.n_violations)

    def score(self, ev):
        """``(of, feasible)``: ``breakdown(ev).of`` without building it."""
        if ev.failure is not None:
            return self.collapse_of, False
        plant_cost = _plant_cost(self.weights, ev.plant_values,
                                 self.ref.plant_values)
        return _of_terms(plant_cost, ev.pcc_p_kw - self.p_target,
                         ev.pcc_q_kvar - self.q_target,
                         ev.n_violations)[2], ev.feasible

    def __call__(self, x):
        return self.score(self.twin.evaluate_dispatch(self.ref, x))


def temperature_panel(scenario, request, temperatures, seeds, config):
    """Basin Hopping's temperature study on one dispatch step.

    From the reference after the scenario's ``simulation.warmup_s`` warmup,
    runs one BH search per temperature and seed from zero offsets, without
    a stall stop, on its :class:`StepObjective`; ``config`` gives
    ``n_iter``, ``step_size`` and ``nm``.  Returns ``(means, results)``: per temperature, the mean
    over seeds of each search's mean candidate OF (iterations >= 1), and
    the seeds' ``BasinHoppingResult`` list.  Invalid input raises
    :class:`ConfigurationError` before the warmup.
    """
    configs = [[replace(config, temperature=t_bh, seed=seed) for seed in seeds]
               for t_bh in temperatures]
    if not (temperatures and seeds and config.n_iter >= 1):
        raise ConfigurationError(
            f"a temperature panel needs a temperature, a seed and n_iter >= 1, "
            f"got {len(temperatures)}, {len(seeds)} and {config.n_iter}")
    twin = CellTwin(scenario)
    twin.check_plants()
    f = StepObjective(twin, twin.run_warmup(), request)
    results = [[basin_hopping(f, np.zeros(twin.n_plants), cfg, bounds=f.bounds)
                for cfg in row] for row in configs]
    per_seed = [[sum(r.of_local for r in res.iterations[1:])
                 / (len(res.iterations) - 1) for res in row] for row in results]
    return [sum(row) / len(row) for row in per_seed], results


def exchange_pass(f: StepObjective, x):
    """``x`` improved by exchanging costly deviations for cheap ones.

    Works on realized deviations δ_i rather than on offsets, so leftover
    error and plant drift in ``x`` (zero offsets, or the carry) do not stay
    on whichever plant responds.  Two stages:

    1. walk the active-power plants in descending cost weight, ties in
       plant-table order, and drive each one's δ_i toward 0 with up to
       ``_CORRECTIONS`` corrections ``x_i -= δ_i``, clipped to its bounds,
       until |δ_i| < 1e-6 kW; a correction is kept if the evaluation solved
       and |δ_i| shrank;
    2. up to ``_REFILL_PASSES`` passes, each of which
       a. refills the remaining PCC active-power error in ascending signed
          marginal cost: moving plant j costs -k_j while the move shrinks
          |δ_j| (at most down to δ_j = 0) and +k_j beyond, ties in
          plant-table order.  A move is kept if it lowers the objective
          (feasible first).  The refill ends when the error changes sign;
          the next pass re-sorts the moves.  Line losses make a move return
          more than itself at the PCC (~1.06 kW per kW for the battery a
          +5 kW request loads on the bundled cell), so each pass leaves a
          few percent of the error before it, and ``_REFILL_PASSES`` passes
          bring that case below 1e-5 kW;
       b. splits the reactive error evenly over the inverters, clipped to
          their bounds, kept if it lowers the objective; skipped when the
          error is below 1e-6 kVAr or the clipped split leaves ``x`` as is.
       The passes end after one that leaves the active-power error below
       1e-6 kW without moving the inverters.

    Returns the exchanged offsets if they score better than ``x`` (feasible
    first, then lower objective), else ``x`` unchanged.  A move's arithmetic
    runs on Python floats: ``xs`` holds the entries of ``x``.
    """
    score, twin, ref = f.score, f.twin, f.ref
    p_target, q_target = f.p_target, f.q_target
    weights = f.weights.tolist()
    lo_kw, hi_kw = f.bounds[:, 0].tolist(), f.bounds[:, 1].tolist()
    classes = twin.plant_classes
    inv = np.array([i for i, c in enumerate(classes) if c == "inv"], dtype=int)
    lo_inv, hi_inv = f.bounds[inv, 0], f.bounds[inv, 1]
    active = [i for i in np.argsort(-f.weights, kind="stable").tolist()
              if classes[i] != "inv"]
    ref_values = ref.plant_values.tolist()

    x_in = x
    x = np.array(x, dtype=float)
    xs = x.tolist()                 # x's entries, as Python floats
    ev = twin.evaluate_dispatch(ref, x)
    of_in, feas_in = score(ev)
    if ev.failure is not None:
        return x_in

    for i in active:
        for _ in range(_CORRECTIONS):
            d = ev.plant_values.item(i) - ref_values[i]
            if abs(d) < _ZERO_TOL:
                break
            moved = min(max(xs[i] - d, lo_kw[i]), hi_kw[i])
            if moved == xs[i]:
                break
            trial = x.copy()
            trial[i] = moved
            ev_trial = twin.evaluate_dispatch(ref, trial)
            if (ev_trial.failure is not None
                    or abs(ev_trial.plant_values.item(i) - ref_values[i]) >= abs(d)):
                break
            x, ev, xs[i] = trial, ev_trial, moved

    of, feas = score(ev)
    growing = sorted((weights[j], j, math.inf) for j in active)
    for _ in range(_REFILL_PASSES):
        sign = math.copysign(1.0, p_target - ev.pcc_p_kw)
        values = ev.plant_values.tolist()
        shrinking = [(-weights[j], j, abs(dev)) for j in active
                     if sign * (dev := values[j] - ref_values[j]) <= -_ZERO_TOL]
        for _cost, j, room in sorted(growing + shrinking):
            dp_err = p_target - ev.pcc_p_kw
            if abs(dp_err) < _ZERO_TOL or sign * dp_err < 0.0:
                break
            moved = min(max(xs[j] + sign * min(abs(dp_err), room), lo_kw[j]), hi_kw[j])
            if moved == xs[j]:
                continue
            trial = x.copy()
            trial[j] = moved
            ev_trial = twin.evaluate_dispatch(ref, trial)
            of_trial, feas_trial = score(ev_trial)
            if (feas_trial, -of_trial) > (feas, -of):
                x, ev, of, feas = trial, ev_trial, of_trial, feas_trial
                xs[j] = moved

        split = False
        dq_err = q_target - ev.pcc_q_kvar
        if len(inv) and abs(dq_err) >= _ZERO_TOL:
            trial = x.copy()
            trial[inv] = (x[inv] + dq_err / len(inv)).clip(lo_inv, hi_inv)
            if not (trial == x).all():
                ev_trial = twin.evaluate_dispatch(ref, trial)
                of_trial, feas_trial = score(ev_trial)
                if (feas_trial, -of_trial) > (feas, -of):
                    x, ev, of, feas = trial, ev_trial, of_trial, feas_trial
                    xs = x.tolist()
                    split = True
        if abs(p_target - ev.pcc_p_kw) < _ZERO_TOL and not split:
            break

    return x if (feas, -of) > (feas_in, -of_in) else x_in


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
    start_evals: int               # exchange-pass evaluations of the start
    n_evals: int                   # Basin Hopping evaluations of the step
    iterations: list = field(default_factory=list)
    trace: dict | None = None


@dataclass
class DispatchRun:
    scenario_name: str
    request: FlexibilityRequest
    config: BasinHoppingConfig
    plant_labels: tuple
    plant_classes: tuple
    ref_pcc_p_kw: float
    ref_pcc_q_kvar: float
    steps: list
    runtime_s: float               # wall time; never written to output files


def run_dispatch(scenario, request, *, n_steps,
                 config: BasinHoppingConfig = None,
                 initial_bes_soc=None):
    """Disaggregate ``request`` across the cell's plants over ``n_steps`` steps.

    ``initial_bes_soc`` overrides every battery's state of charge after warmup
    and before the reference capture (depletion studies).  Raises
    :class:`ConfigurationError` before the warmup if the run outlasts the
    scenario's profile window, the cell has no controllable plant or
    ``initial_bes_soc`` lies outside [0, 1], and
    :class:`DispatchError` if a committed step fails to solve; partial results
    travel in the exception's ``trace`` attribute.
    """
    config = config or BasinHoppingConfig()
    t_start = time.perf_counter()

    scenario.check_horizon(n_steps)
    twin = CellTwin(scenario)
    twin.check_plants()
    if initial_bes_soc is not None:
        twin.check_bes_soc(initial_bes_soc)
    ref = twin.run_warmup()
    if initial_bes_soc is not None:
        twin.override_bes_soc(initial_bes_soc)
        ref = twin.capture_reference()

    f = StepObjective(twin, ref, request)
    rng = PCG64(config.seed)

    log.info("dispatch: request (%+.3f kW, %+.3f kVAr) on '%s', %d steps, "
             "T=%.3g, n_iter=%d, seed=%s",
             request.dp_kw, request.dq_kvar, scenario.name, n_steps,
             config.temperature, config.n_iter, config.seed)

    steps = []
    x = np.zeros(twin.n_plants)    # step 0 starts from zero offsets
    for k in range(n_steps):
        n_evals_before = twin.n_evaluations
        x = exchange_pass(f, x)
        start_evals = twin.n_evaluations - n_evals_before
        result = basin_hopping(f, x, config, bounds=f.bounds, rng=rng,
                               patience=STALL_ITERATIONS)
        x = result.x
        try:
            f.ref, ev = twin.advance_reference(f.ref, x)
        except PowerFlowError as exc:
            raise DispatchError(
                f"step {k}: committed dispatch failed to solve: {exc}",
                trace=steps) from exc
        bd = f.breakdown(ev)
        steps.append(StepRecord(
            index=k,
            t_s=f.ref.t_s,
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
            start_evals=start_evals,
            n_evals=result.n_evals,
            iterations=result.iterations,
            trace=ev.trace,
        ))
        log.debug("step %d: OF=%.6g dP_err=%+.4f kW dQ_err=%+.4f kVAr, "
                  "%d BH iterations (%d start evaluations)",
                  k, bd.of, ev.pcc_p_kw - f.p_target, ev.pcc_q_kvar - f.q_target,
                  len(result.iterations) - 1, start_evals)

    return DispatchRun(
        scenario_name=scenario.name,
        request=request,
        config=config,
        plant_labels=twin.plant_labels,
        plant_classes=twin.plant_classes,
        ref_pcc_p_kw=ref.pcc_p_kw,
        ref_pcc_q_kvar=ref.pcc_q_kvar,
        steps=steps,
        runtime_s=time.perf_counter() - t_start,
    )
