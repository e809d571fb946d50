"""End-to-end acceptance gate: ten verifiable claims about the whole system.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (echoed again in the
terminal summary).  The two bundled-scenario dispatch runs are session
fixtures shared by several criteria; every configuration below is fixed-seed,
so the suite is deterministic.
"""

import json
import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from cellflex.cli import main as cli_main
from cellflex.dispatch import run_dispatch, temperature_panel
from cellflex.grid import solve_power_flow, worst_balance_error_pu
from cellflex.optimizer import (
    BasinHoppingConfig,
    FlexibilityRequest,
    NelderMeadSettings,
    basin_hopping,
    metropolis_accept,
)
from cellflex.oracle import grid_search_oracle, make_toy_scenario
from cellflex.plants import BatteryStorage
from cellflex.reporting import summary_dict
from cellflex.scenario import BesParams, load_bundled_scenario

from gs_reference import bus_vector, gauss_seidel_pf, random_radial_case

DP_TOL_KW = 0.1
DQ_TOL_KVAR = 0.05


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def search_budget(run):
    """Mean evaluations per step, split into the start and Basin Hopping,
    and the steps on which Basin Hopping improved on its start."""
    start = sum(st.start_evals for st in run.steps) / len(run.steps)
    bh = sum(st.n_evals for st in run.steps) / len(run.steps)
    improved = summary_dict(run)["search"]["bh_improved_steps"]
    return (f"{start + bh:.1f} evaluations per step (start {start:.1f} + "
            f"BH {bh:.1f}); BH improved on its start on {improved}/"
            f"{len(run.steps)} steps")


@pytest.fixture(scope="session")
def gain_run():
    """+5 kW / +1 kVAr on the bundled cell, winter evening, 40 steps."""
    return run_dispatch(
        load_bundled_scenario(), FlexibilityRequest(5.0, 1.0), n_steps=40,
        config=BasinHoppingConfig(seed=42))


@pytest.fixture(scope="session")
def reduction_run():
    """-5 kW / -1 kVAr with almost-empty batteries, 60 steps."""
    return run_dispatch(
        load_bundled_scenario(), FlexibilityRequest(-5.0, -1.0), n_steps=60,
        config=BasinHoppingConfig(seed=77, n_iter=30), initial_bes_soc=0.04)


def test_1_pcc_tracking(gain_run):
    within = [
        abs(st.dp_pcc_kw - st.dp_target_kw) <= DP_TOL_KW
        and abs(st.dq_pcc_kvar - st.dq_target_kvar) <= DQ_TOL_KVAR
        for st in gain_run.steps
    ]
    frac = sum(within) / len(within)
    worst_dp = max(abs(st.dp_pcc_kw - st.dp_target_kw) for st in gain_run.steps)
    worst_dq = max(abs(st.dq_pcc_kvar - st.dq_target_kvar)
                   for st in gain_run.steps)
    ok = frac >= 0.95
    report(1, ok,
           f"{sum(within)}/{len(within)} steps within "
           f"({DP_TOL_KW} kW, {DQ_TOL_KVAR} kVAr); worst dP "
           f"{worst_dp:.4f} kW, worst dQ {worst_dq:.4f} kVAr; "
           f"runtime {gain_run.runtime_s:.0f}s (600s expected budget); "
           f"{search_budget(gain_run)}")
    assert ok


def test_2_reduction_reallocates_to_bev(reduction_run):
    steps = reduction_run.steps
    idx = np.arange(len(steps))
    bes = np.array([st.shares["bes"] for st in steps])
    bev = np.array([st.shares["bev"] for st in steps])
    costs = [st.cost_eur for st in steps]

    bes_slope = np.polyfit(idx, bes, 1)[0]
    bev_slope = np.polyfit(idx, bev, 1)[0]

    sat = next((st.index for st in steps
                if min(st.trace["bes_soc"]) <= 1e-6), None)
    sat_found = sat is not None and sat <= len(steps) - 10
    eps = 1e-6
    cost_ok = sat_found and all(
        b >= a - eps for a, b in zip(costs[sat:], costs[sat + 1:]))

    ok = bes_slope < 0.0 and bev_slope > 0.0 and cost_ok
    report(2, ok,
           f"battery share slope {bes_slope:+.5f}/step, EV share slope "
           f"{bev_slope:+.5f}/step, batteries empty at step {sat}, "
           f"cost non-decreasing afterwards: {cost_ok}; "
           f"{search_budget(reduction_run)}")
    assert ok


def test_3_matches_grid_search_oracle():
    request = FlexibilityRequest(1.0, 0.3)
    oracle = grid_search_oracle(make_toy_scenario(), request, resolution=0.05)
    gaps = []
    for seed in range(1, 11):
        run = run_dispatch(make_toy_scenario(), request, n_steps=1,
                           config=BasinHoppingConfig(n_iter=50, seed=seed))
        gaps.append(run.steps[0].of - oracle.of)
    worst = max(gaps)
    ok = worst <= 1e-3
    n_scanned = oracle.n_evals - oracle.n_probes
    report(3, ok,
           f"10 seeds vs exhaustive search (res 0.05 kW): worst gap "
           f"{worst:+.2e} (allowed +1e-3); oracle OF {oracle.of:.6f} from "
           f"{oracle.n_evals:,} evaluations on {oracle.n_points:,} grid "
           f"points: {oracle.n_probes} probes, {n_scanned} scanned, "
           f"{oracle.n_pruned:,} pruned by the lower bound")
    assert ok


def test_4_metropolis_acceptance_probability():
    rng = np.random.default_rng(7)
    n = 100_000
    hits = sum(metropolis_accept(0.3466, 0.5, rng) for _ in range(n))
    rate = hits / n

    improving = [metropolis_accept(dy, 0.5, rng)
                 for dy in np.linspace(-5.0, 0.0, 1000)]
    ok = 0.49 <= rate <= 0.51 and all(improving)
    report(4, ok,
           f"worsening dY=0.3466 at T=0.5 accepted {rate:.4f} of 1e5 draws "
           f"(band [0.49, 0.51]); non-worsening accepted "
           f"{sum(improving)}/1000")
    assert ok


def test_5_adaptive_step_keeps_acceptance_centered():
    def quadratic(x):
        return float(np.sum((x - 1.0) ** 2))

    cfg = BasinHoppingConfig(
        temperature=0.5, n_iter=500, step_size=1.0, seed=11,
        nm=NelderMeadSettings(fatol=1e-3, xatol=1e-6, maxfev=20))
    result = basin_hopping(quadratic, np.full(5, 2.0), cfg)
    rate = result.acceptance_rate
    ok = 0.35 <= rate <= 0.65
    report(5, ok,
           f"acceptance over 500 iterations on a smooth 5-D quadratic: "
           f"{rate:.3f} (band [0.35, 0.65])")
    assert ok


def test_6_temperature_controls_exploration():
    temperatures = (0.2, 0.5, 2.0, 10.0)
    panel_means, results = temperature_panel(
        load_bundled_scenario(), FlexibilityRequest(28.0, 1.0), temperatures,
        (5, 11, 23, 31, 47), BasinHoppingConfig(
            n_iter=120, step_size=4.0, nm=NelderMeadSettings(maxfev=45)))
    traces_monotone = all(
        b.of_global_best <= a.of_global_best + 1e-15
        for row in results for res in row
        for a, b in zip(res.iterations, res.iterations[1:]))
    rates = [sum(res.acceptance_rate for res in row) / len(row)
             for row in results]

    non_decreasing = all(b >= a - 1e-12
                         for a, b in zip(panel_means, panel_means[1:]))
    ok = non_decreasing and traces_monotone
    report(6, ok,
           "mean candidate OF (acceptance rate) by temperature "
           + ", ".join(f"T={t:g}: {m:.4f} ({r:.2f})"
                       for t, m, r in zip(temperatures, panel_means, rates))
           + f"; non-decreasing: {non_decreasing}; every global-best trace "
             f"monotone: {traces_monotone}")
    assert ok


def test_7_integrator_matches_analytic_response():
    # a battery at half charge asked for a constant 1 kW: its ratings and
    # SOC headroom never bind, so its realized power is the lag's response
    worst = 0.0
    for time_constant in (0.5, 8.0, 120.0):
        bes = BatteryStorage(BesParams(10.0, 5.0, 5.0, soc0=0.5,
                                       time_constant_s=time_constant))
        dt = time_constant / 100.0
        for k in range(1, 501):
            y = bes.step(0.0, 1, 1.0, dt)
            exact = 1.0 - math.exp(-k * dt / time_constant)
            worst = max(worst, abs(y - exact) / exact)
    ok = worst <= 1e-4
    report(7, ok,
           f"battery power step response to a constant 1 kW wish, "
           f"T = 0.5, 8, 120 s, dt = T/100 over 5 time constants: "
           f"max relative error {worst:.2e} (allowed 1e-4)")
    assert ok


def test_8_power_conservation(gain_run, reduction_run):
    tracked = worst_balance_error_pu()

    rng = np.random.default_rng(2024)
    worst_v = 0.0
    for _ in range(100):
        topology, injections = random_radial_case(rng, n_buses=5)
        res = solve_power_flow(topology, bus_vector(topology, injections))
        v_ref, _, _ = gauss_seidel_pf(topology, injections)
        worst_v = max(worst_v,
                      max(abs(v - v_ref[b.id])
                          for b, v in zip(topology.buses, res.v_pu)))

    ok = tracked <= 1e-6 and worst_v <= 1e-6
    report(8, ok,
           f"worst PCC power-balance mismatch over every solve this session: "
           f"{tracked:.2e} pu (allowed 1e-6); sweep vs Gauss-Seidel on 100 "
           f"random radials: max |dV| {worst_v:.2e} pu")
    assert ok


def test_9_physical_bounds(gain_run, reduction_run):
    n_checked = 0
    ok = True
    for run in (gain_run, reduction_run):
        for st in run.steps:
            tr = st.trace
            ok &= all(35.0 - 1e-9 <= t <= 90.0 + 1e-9 for t in tr["ehp_t_c"])
            ok &= all(-1e-12 <= s <= 1.0 + 1e-12 for s in tr["bes_soc"])
            ok &= all(-1e-12 <= s <= 1.0 + 1e-12 for s in tr["bev_soc"])
            ok &= all(math.hypot(p, q) <= s + 1e-9
                      for p, q, s in zip(tr["inv_p_kw"], tr["inv_q_kvar"],
                                         tr["inv_s_rated_kva"]))
            ok &= all(p == 0.0
                      for conn, p in zip(tr["bev_connected"], tr["bev_p_kw"])
                      if not conn)
            n_checked += 1
    report(9, ok,
           f"storage temperatures in [35, 90] C, SOCs in [0, 1], inverter "
           f"apparent power within rating, disconnected EVs at exactly 0 kW "
           f"across {n_checked} committed steps of both runs")
    assert ok


def test_10_repeat_run_is_byte_identical(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "dispatch", "--dp-kw", "5.0", "--dq-kvar", "1.0",
            "--steps", "2", "--n-iter", "10", "--seed", "5",
            "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = {
        name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("dispatch.csv", "iterations.csv", "summary.json")
    }
    ok = all(same.values())
    report(10, ok,
           "same seed, same command, run twice: "
           + ", ".join(f"{k} identical: {v}" for k, v in same.items()))
    assert ok
