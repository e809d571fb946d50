import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cellflex.grid as grid
from cellflex.errors import ConfigurationError, InfeasibleNetworkError, PowerFlowError
from cellflex.grid import (
    V_COLLAPSE_PU,
    Bus,
    GridTopology,
    Line,
    check_line_limits,
    reset_balance_tracker,
    solve_power_flow,
    worst_balance_error_pu,
)

from gs_reference import gauss_seidel_pf, random_radial_case


def two_bus(r=0.1, x=0.0, i_max=270.0):
    return GridTopology(
        [Bus("pcc"), Bus("b1")],
        [Line("pcc", "b1", r, x, i_max)],
        pcc_bus="pcc",
    )


class TestTwoBus:
    def test_pcc_covers_load_plus_losses(self):
        # 10 kW three-phase at 400 V through 0.1 ohm/phase: I ~ 14.5 A/phase,
        # series loss 3*R*I^2 ~ 63.3 W, independently solved below
        res = solve_power_flow(two_bus(), {"b1": (10.0, 0.0)})
        v_ph = 400.0 / math.sqrt(3.0)
        s_ph = 10000.0 / 3.0
        vb = (v_ph + math.sqrt(v_ph * v_ph - 4.0 * 0.1 * s_ph)) / 2.0
        i = s_ph / vb
        expected_kw = (10000.0 + 3.0 * 0.1 * i * i) / 1000.0
        assert res.pcc.p_kw == pytest.approx(expected_kw, abs=1e-9)
        assert res.pcc.p_kw == pytest.approx(10.063, abs=1e-3)
        assert res.pcc.q_kvar == pytest.approx(0.0, abs=1e-9)
        assert res.currents_a[0] == pytest.approx(i, abs=1e-6)

    def test_no_load_means_no_flow(self):
        res = solve_power_flow(two_bus(), {"b1": (0.0, 0.0)})
        assert res.pcc.p_kw == 0.0
        assert res.pcc.q_kvar == 0.0
        assert res.v_pu[1] == 1.0

    def test_generation_reverses_flow(self):
        res = solve_power_flow(two_bus(), {"b1": (-10.0, 0.0)})
        assert res.pcc.p_kw < -9.9
        assert res.loss_p_kw > 0.0
        assert res.v_pu[1] > 1.0  # injection lifts the voltage

    def test_reactive_injection_shifts_q(self):
        res = solve_power_flow(two_bus(x=0.08), {"b1": (5.0, 3.0)})
        assert res.pcc.q_kvar > 3.0  # load plus reactive line losses

    def test_loading_monotone_in_power(self):
        topo = two_bus()
        currents = [solve_power_flow(topo, {"b1": (p, 0.0)}).currents_a[0]
                    for p in np.linspace(0.0, 50.0, 11)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_voltage_drops_with_load(self):
        res = solve_power_flow(two_bus(), {"b1": (30.0, 10.0)})
        assert res.v_pu[1] < 1.0
        assert res.v_pu[0] == 1.0


class TestConservationAndOracle:
    def test_balance_against_slack_flow(self):
        topo, inj = random_radial_case(np.random.default_rng(7), n_buses=6)
        res = solve_power_flow(topo, inj)
        assert res.balance_error_pu < 1e-6
        # PCC reading is the sum of injections plus series losses
        p_sum = sum(p for p, _ in inj.values()) + res.loss_p_kw
        q_sum = sum(q for _, q in inj.values()) + res.loss_q_kvar
        assert res.pcc.p_kw == pytest.approx(p_sum, abs=1e-9)
        assert res.pcc.q_kvar == pytest.approx(q_sum, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_gauss_seidel(self, seed):
        topo, inj = random_radial_case(np.random.default_rng(seed))
        res = solve_power_flow(topo, inj)
        v_ref, s_slack, _ = gauss_seidel_pf(topo, inj)
        for bus, v in zip(topo.buses, res.v_pu):
            assert v == pytest.approx(v_ref[bus.id], abs=1e-6)
        assert res.pcc.p_kw == pytest.approx(s_slack.real, abs=1e-3)
        assert res.pcc.q_kvar == pytest.approx(s_slack.imag, abs=1e-3)

    @pytest.mark.parametrize("seed", range(10))
    def test_line_currents_agree_with_gauss_seidel(self, seed):
        # the current through a line is its voltage drop over its impedance;
        # the lines are shuffled so that their order is not the order of the
        # buses they feed
        rng = np.random.default_rng(seed)
        topo, inj = random_radial_case(rng)
        lines = list(topo.lines)
        rng.shuffle(lines)
        topo = GridTopology(topo.buses, lines, pcc_bus="pcc",
                            transformer_kva=topo.transformer_kva)
        res = solve_power_flow(topo, inj)
        _, _, v = gauss_seidel_pf(topo, inj)
        for ln, amps in zip(topo.lines, res.currents_a):
            i_ref = abs(v[ln.from_bus] - v[ln.to_bus]) / abs(complex(ln.r_ohm, ln.x_ohm))
            assert amps == pytest.approx(i_ref, rel=1e-6)

    def test_line_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        topo, inj = random_radial_case(rng, n_buses=7)
        res_a = solve_power_flow(topo, inj)
        shuffled = list(topo.lines)
        rng.shuffle(shuffled)
        topo_b = GridTopology(topo.buses, shuffled, pcc_bus="pcc",
                              transformer_kva=topo.transformer_kva)
        res_b = solve_power_flow(topo_b, inj)
        for v_a, v_b in zip(res_a.v_pu, res_b.v_pu):
            assert v_a == pytest.approx(v_b, abs=1e-12)
        assert res_a.pcc.p_kw == pytest.approx(res_b.pcc.p_kw, abs=1e-12)

    def test_reset_balance_tracker_zeroes_the_worst_error(self, monkeypatch):
        # the session's worst error goes back in place after the test
        monkeypatch.setattr(grid, "_worst_balance_error_pu",
                            worst_balance_error_pu())
        large = solve_power_flow(*random_radial_case(np.random.default_rng(4),
                                                     n_buses=6))
        small = random_radial_case(np.random.default_rng(0), n_buses=6)
        assert worst_balance_error_pu() >= large.balance_error_pu > 0.0
        reset_balance_tracker()
        assert worst_balance_error_pu() == 0.0
        res = solve_power_flow(*small)
        assert 0.0 < res.balance_error_pu < large.balance_error_pu
        assert worst_balance_error_pu() == res.balance_error_pu


class TestFailureModes:
    def test_voltage_collapse_is_flagged_infeasible(self):
        with pytest.raises(InfeasibleNetworkError):
            solve_power_flow(two_bus(r=1.0), {"b1": (500.0, 100.0)})

    def test_sweep_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(grid, "MAX_SWEEPS", 1)
        with pytest.raises(PowerFlowError, match="within 1 sweeps"):
            solve_power_flow(two_bus(), {"b1": (20.0, 5.0)})

    @pytest.mark.parametrize("case", [
        lambda: (two_bus(), {"b1": (20.0, 5.0)}),
        lambda: random_radial_case(np.random.default_rng(4), n_buses=6),
    ], ids=["two_bus", "radial"])
    def test_sweep_budget_counts_every_sweep(self, monkeypatch, case):
        # a budget of exactly the sweeps a solve needs gives the same result;
        # one sweep fewer fails, and the message names that budget
        topology, injections = case()
        res = solve_power_flow(topology, injections)
        assert 2 <= res.sweeps < grid.MAX_SWEEPS
        monkeypatch.setattr(grid, "MAX_SWEEPS", res.sweeps)
        tight = solve_power_flow(topology, injections)
        assert (tight.sweeps, tight.v_pu) == (res.sweeps, res.v_pu)
        monkeypatch.setattr(grid, "MAX_SWEEPS", res.sweeps - 1)
        with pytest.raises(PowerFlowError,
                           match=f"within {res.sweeps - 1} sweeps"):
            solve_power_flow(topology, injections)

    @pytest.mark.parametrize("injection", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_injection_raises(self, injection):
        # NaN compares False both ways: a solve must not read it as converged
        with pytest.raises(PowerFlowError):
            solve_power_flow(two_bus(), {"b1": injection})
        topo, inj = random_radial_case(np.random.default_rng(3), n_buses=6)
        with pytest.raises(PowerFlowError):
            solve_power_flow(topo, dict(inj, b4=injection))

    def test_missing_injection_rejected(self):
        with pytest.raises(ConfigurationError, match="b1"):
            solve_power_flow(two_bus(), {})

    def test_slack_injection_rejected(self):
        with pytest.raises(ConfigurationError, match="pcc"):
            solve_power_flow(two_bus(), {"b1": (1.0, 0.0), "pcc": (1.0, 0.0)})

    def test_injection_errors_list_buses_in_order(self):
        topo, inj = random_radial_case(np.random.default_rng(1), n_buses=5)
        partial = {b: inj[b] for b in ("b3", "b1")}
        with pytest.raises(ConfigurationError,
                           match=r"missing for buses: \['b2', 'b4'\]$"):
            solve_power_flow(topo, partial)
        # a missing bus is reported before an unknown one
        with pytest.raises(ConfigurationError, match="missing"):
            solve_power_flow(topo, dict(partial, ghost=(1.0, 0.0)))
        extra = dict(inj, ghost=(1.0, 0.0), pcc=(0.0, 0.0))
        with pytest.raises(ConfigurationError,
                           match=r"slack/unknown buses: \['ghost', 'pcc'\]$"):
            solve_power_flow(topo, extra)


class TestLineLimits:
    def test_violation_reported_with_ratio(self):
        topo = two_bus(i_max=10.0)
        res = solve_power_flow(topo, {"b1": (10.0, 0.0)})
        assert check_line_limits(res, topo) == 1
        assert res.currents_a[0] / 10.0 > 1.4

    def test_no_violation_inside_limit(self):
        topo = two_bus()
        res = solve_power_flow(topo, {"b1": (10.0, 0.0)})
        assert check_line_limits(res, topo) == 0


class TestTopologyValidation:
    def test_line_to_unknown_bus_names_it(self):
        with pytest.raises(ConfigurationError, match="ghost"):
            GridTopology([Bus("pcc"), Bus("b1")],
                         [Line("pcc", "ghost", 0.1, 0.0, 100.0)],
                         pcc_bus="pcc")

    def test_wrong_line_count(self):
        with pytest.raises(ConfigurationError, match="radial"):
            GridTopology([Bus("pcc"), Bus("b1"), Bus("b2")],
                         [Line("pcc", "b1", 0.1, 0.0, 100.0)],
                         pcc_bus="pcc")

    def test_disconnected_bus_detected(self):
        # right line count but a cycle plus an island
        with pytest.raises(ConfigurationError, match="b3"):
            GridTopology(
                [Bus("pcc"), Bus("b1"), Bus("b2"), Bus("b3")],
                [Line("pcc", "b1", 0.1, 0.0, 100.0),
                 Line("b1", "b2", 0.1, 0.0, 100.0),
                 Line("b2", "pcc", 0.1, 0.0, 100.0)],
                pcc_bus="pcc")

    def test_duplicate_bus_ids(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            GridTopology([Bus("pcc"), Bus("b1"), Bus("b1")],
                         [Line("pcc", "b1", 0.1, 0.0, 100.0),
                          Line("b1", "b1", 0.1, 0.0, 100.0)],
                         pcc_bus="pcc")

    def test_unknown_pcc(self):
        with pytest.raises(ConfigurationError, match="nope"):
            GridTopology([Bus("pcc")], [], pcc_bus="nope")

    # GridTopology checks only the structure; the loader refuses line and
    # transformer parameters outside the schema's bounds

    def test_negative_impedance_rejected(self, validate_refuses):
        for field in ("r_ohm", "x_ohm"):
            def edit(document):
                document["topology"]["lines"][0][field] = -0.1
                return f"topology.lines[0].{field}: must be >= 0, got -0.1"
            validate_refuses(edit)

    @pytest.mark.parametrize("r, x, i_max", [
        (math.nan, 0.0, 100.0), (0.1, math.nan, 100.0), (0.1, 0.0, math.nan)])
    def test_nan_line_parameters_rejected(self, r, x, i_max, validate_refuses):
        def edit(document):
            document["topology"]["lines"][0].update(r_ohm=r, x_ohm=x, i_max_a=i_max)
            field = next(k for k, v in (("r_ohm", r), ("x_ohm", x), ("i_max_a", i_max))
                         if math.isnan(v))
            return f"topology.lines[0].{field}: expected a finite number, got nan"
        validate_refuses(edit)

    def test_nan_transformer_rating_rejected(self, validate_refuses):
        def edit(document):
            document["topology"]["transformer_kva"] = math.nan
            return "topology.transformer_kva: expected a finite number, got nan"
        validate_refuses(edit)

    @given(n_buses=st.integers(3, 9), seed=st.integers(0, 10_000))
    @example(n_buses=9, seed=5697)      # collapses to 0.428 pu at b5
    def test_random_trees_validate_and_solve(self, n_buses, seed):
        # a few heavily loaded draws have no operating point: the sweep may
        # call a case infeasible only if the Gauss-Seidel reference finds no
        # solution above the collapse floor either
        topo, inj = random_radial_case(np.random.default_rng(seed), n_buses=n_buses)
        try:
            res = solve_power_flow(topo, inj)
        except InfeasibleNetworkError:
            try:
                v_ref, _, _ = gauss_seidel_pf(topo, inj)
            except RuntimeError:
                return
            assert min(v_ref.values()) < V_COLLAPSE_PU
        else:
            assert res.balance_error_pu < 1e-6
