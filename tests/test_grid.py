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

import grid_reference
from gs_reference import bus_vector, gauss_seidel_pf, random_radial_case


def solve(topology, injections):
    """``solve_power_flow`` on a dict of bus id to (p_kw, q_kvar)."""
    return solve_power_flow(topology, bus_vector(topology, injections))


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
        res = solve(two_bus(), {"b1": (10.0, 0.0)})
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
        res = solve(two_bus(), {"b1": (0.0, 0.0)})
        assert res.pcc.p_kw == 0.0
        assert res.pcc.q_kvar == 0.0
        assert res.v_pu[1] == 1.0

    def test_generation_reverses_flow(self):
        res = solve(two_bus(), {"b1": (-10.0, 0.0)})
        assert res.pcc.p_kw < -9.9
        assert res.loss_p_kw > 0.0
        assert res.v_pu[1] > 1.0  # injection lifts the voltage

    def test_reactive_injection_shifts_q(self):
        res = solve(two_bus(x=0.08), {"b1": (5.0, 3.0)})
        assert res.pcc.q_kvar > 3.0  # load plus reactive line losses

    def test_loading_monotone_in_power(self):
        topo = two_bus()
        currents = [solve(topo, {"b1": (p, 0.0)}).currents_a[0]
                    for p in np.linspace(0.0, 50.0, 11)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_voltage_drops_with_load(self):
        res = solve(two_bus(), {"b1": (30.0, 10.0)})
        assert res.v_pu[1] < 1.0
        assert res.v_pu[0] == 1.0


class TestConservationAndOracle:
    def test_balance_against_slack_flow(self):
        topo, inj = random_radial_case(np.random.default_rng(7), n_buses=6)
        res = solve(topo, inj)
        assert res.balance_error_pu < 1e-6
        # PCC reading is the sum of injections plus series losses
        p_sum = sum(p for p, _ in inj.values()) + res.loss_p_kw
        q_sum = sum(q for _, q in inj.values()) + res.loss_q_kvar
        assert res.pcc.p_kw == pytest.approx(p_sum, abs=1e-9)
        assert res.pcc.q_kvar == pytest.approx(q_sum, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_gauss_seidel(self, seed):
        topo, inj = random_radial_case(np.random.default_rng(seed))
        res = solve(topo, inj)
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
        res = solve(topo, inj)
        _, _, v = gauss_seidel_pf(topo, inj)
        for ln, amps in zip(topo.lines, res.currents_a):
            i_ref = abs(v[ln.from_bus] - v[ln.to_bus]) / abs(complex(ln.r_ohm, ln.x_ohm))
            assert amps == pytest.approx(i_ref, rel=1e-6)

    def test_line_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        topo, inj = random_radial_case(rng, n_buses=7)
        res_a = solve(topo, inj)
        shuffled = list(topo.lines)
        rng.shuffle(shuffled)
        topo_b = GridTopology(topo.buses, shuffled, pcc_bus="pcc",
                              transformer_kva=topo.transformer_kva)
        res_b = solve(topo_b, inj)
        for v_a, v_b in zip(res_a.v_pu, res_b.v_pu):
            assert v_a == pytest.approx(v_b, abs=1e-12)
        assert res_a.pcc.p_kw == pytest.approx(res_b.pcc.p_kw, abs=1e-12)

    def test_reset_balance_tracker_zeroes_the_worst_error(self, monkeypatch):
        # the session's worst error goes back in place after the test
        monkeypatch.setattr(grid, "_worst_balance_error_pu",
                            worst_balance_error_pu())
        large = solve(*random_radial_case(np.random.default_rng(4),
                                                     n_buses=6))
        small = random_radial_case(np.random.default_rng(0), n_buses=6)
        assert worst_balance_error_pu() >= large.balance_error_pu > 0.0
        reset_balance_tracker()
        assert worst_balance_error_pu() == 0.0
        res = solve(*small)
        assert 0.0 < res.balance_error_pu < large.balance_error_pu
        assert worst_balance_error_pu() == res.balance_error_pu


class TestFailureModes:
    def test_voltage_collapse_is_flagged_infeasible(self):
        with pytest.raises(InfeasibleNetworkError):
            solve(two_bus(r=1.0), {"b1": (500.0, 100.0)})

    def test_sweep_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(grid, "MAX_SWEEPS", 1)
        with pytest.raises(PowerFlowError, match="within 1 sweeps"):
            solve(two_bus(), {"b1": (20.0, 5.0)})

    @pytest.mark.parametrize("case", [
        lambda: (two_bus(), {"b1": (20.0, 5.0)}),
        lambda: random_radial_case(np.random.default_rng(4), n_buses=6),
    ], ids=["two_bus", "radial"])
    def test_sweep_budget_counts_every_sweep(self, monkeypatch, case):
        # a budget of exactly the sweeps a solve needs gives the same result;
        # one sweep fewer fails, and the message names that budget
        topology, injections = case()
        res = solve(topology, injections)
        assert 2 <= res.sweeps < grid.MAX_SWEEPS
        monkeypatch.setattr(grid, "MAX_SWEEPS", res.sweeps)
        tight = solve(topology, injections)
        assert (tight.sweeps, tight.v_pu) == (res.sweeps, res.v_pu)
        monkeypatch.setattr(grid, "MAX_SWEEPS", res.sweeps - 1)
        with pytest.raises(PowerFlowError,
                           match=f"within {res.sweeps - 1} sweeps"):
            solve(topology, injections)

    @pytest.mark.parametrize("injection", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_injection_raises(self, injection):
        # NaN compares False both ways: a solve must not read it as converged
        with pytest.raises(PowerFlowError):
            solve(two_bus(), {"b1": injection})
        topo, inj = random_radial_case(np.random.default_rng(3), n_buses=6)
        with pytest.raises(PowerFlowError):
            solve(topo, dict(inj, b4=injection))

    @pytest.mark.parametrize("n_values", [0, 2, 3, 5])
    def test_wrong_length_vector_rejected(self, n_values):
        # two buses take four values; a dict of the non-slack buses, the
        # old call form, has the wrong length too
        with pytest.raises(ConfigurationError, match=r"has \d+ values, expected 4 "):
            solve_power_flow(two_bus(), [1.0] * n_values)
        with pytest.raises(ConfigurationError, match="expected 4 "):
            solve_power_flow(two_bus(), {"b1": (1.0, 0.0)})

    def test_slack_pair_is_ignored(self):
        # the PCC is put last so that its pair is not the vector's first
        topo, inj = random_radial_case(np.random.default_rng(5), n_buses=6)
        topo = GridTopology(topo.buses[1:] + topo.buses[:1], topo.lines,
                            pcc_bus="pcc")
        vector = bus_vector(topo, inj)
        want = repr(solve_power_flow(topo, vector))
        for pair in [(25.0, -7.0), (-0.0, 0.0), (math.nan, math.inf)]:
            vector[-2:] = pair
            assert repr(solve_power_flow(topo, vector)) == want


class TestLineLimits:
    def test_violation_reported_with_ratio(self):
        topo = two_bus(i_max=10.0)
        res = solve(topo, {"b1": (10.0, 0.0)})
        assert check_line_limits(res, topo) == 1
        assert res.currents_a[0] / 10.0 > 1.4

    def test_no_violation_inside_limit(self):
        topo = two_bus()
        res = solve(topo, {"b1": (10.0, 0.0)})
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
            res = solve(topo, inj)
        except InfeasibleNetworkError:
            try:
                v_ref, _, _ = gauss_seidel_pf(topo, inj)
            except RuntimeError:
                return
            assert min(v_ref.values()) < V_COLLAPSE_PU
        else:
            assert res.balance_error_pu < 1e-6


@st.composite
def sweep_cases(draw):
    """``random_radial_case`` feeders of 2 to 24 buses with their buses and
    lines shuffled, the loads scaled by 1, 4, 10 or 30 (into collapse and
    non-convergence), up to three injections replaced by ±0.0, NaN or ±inf,
    and a budget of ``MAX_SWEEPS`` sweeps or of one to three."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    topology, injections = random_radial_case(
        rng, n_buses=draw(st.integers(2, 24)))
    buses, lines = list(topology.buses), list(topology.lines)
    rng.shuffle(buses)
    rng.shuffle(lines)
    topology = GridTopology(buses, lines, pcc_bus="pcc",
                            transformer_kva=topology.transformer_kva)
    scale = draw(st.sampled_from([1.0, 4.0, 10.0, 30.0]))
    vector = [value * scale for value in bus_vector(topology, injections)]
    for _ in range(draw(st.integers(0, 3))):
        vector[draw(st.integers(0, len(vector) - 1))] = draw(st.sampled_from(
            [0.0, -0.0, math.nan, math.inf, -math.inf]))
    budget = draw(st.sampled_from([grid.MAX_SWEEPS, 1, 2, 3]))
    return topology, vector, budget


def sweep_outcome(solve, topology, injections):
    """The repr of each field of `solve`'s result, or the type and message
    of its failure."""
    try:
        res = solve(topology, injections)
    except Exception as exc:
        return type(exc), str(exc)
    return {name: repr(value) for name, value in res._asdict().items()}


class TestSweepReference:
    """The compiled sweep gives what the Python sweep of ``grid_reference``
    gives: the same repr of every result field, or the same exception type
    and message.  The session's balance tracker is put back afterwards,
    since these cases reach far outside an LV operating range."""

    @staticmethod
    def check(topology, injections, budget=grid.MAX_SWEEPS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_worst_balance_error_pu",
                       worst_balance_error_pu())
            mp.setattr(grid, "MAX_SWEEPS", budget)
            compiled = sweep_outcome(solve_power_flow, topology, injections)
            python = sweep_outcome(grid_reference.solve_power_flow, topology,
                                   injections)
        assert compiled == python
        return compiled

    @given(case=sweep_cases())
    def test_matches_the_python_sweep(self, case):
        self.check(*case)

    @pytest.mark.parametrize("seed, n_buses, scale, outcome", [
        (0, 12, 4.0, dict),
        # converges with some bus voltages more than 45 degrees from the
        # PCC's, where a complex quotient takes its |imag| > |real| branch
        (147, 6, 30.0, dict),
        (1, 12, 4.0, InfeasibleNetworkError),
        (271, 12, 30.0, PowerFlowError),      # out of MAX_SWEEPS sweeps
    ])
    def test_matches_on_each_outcome(self, seed, n_buses, scale, outcome):
        topology, injections = random_radial_case(
            np.random.default_rng(seed), n_buses=n_buses)
        vector = [value * scale for value in bus_vector(topology, injections)]
        got = self.check(topology, vector)
        if outcome is dict:
            assert isinstance(got, dict)
        else:
            assert got[0] is outcome
        if outcome is PowerFlowError:
            assert f"within {grid.MAX_SWEEPS} sweeps" in got[1]

    @pytest.mark.parametrize("pair", [
        (math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (-0.0, -0.0),
        (1e300, 0.0), (-1e306, 1e306)])
    def test_matches_on_extreme_injections(self, pair):
        topology, injections = random_radial_case(np.random.default_rng(5),
                                                  n_buses=6)
        self.check(topology, bus_vector(topology, dict(injections, b3=pair)))

    def test_matches_out_of_sweeps_far_from_nominal(self):
        # the last voltage change, printed in the message, is ~1e299 pu
        topology, injections = random_radial_case(np.random.default_rng(27),
                                                  n_buses=4)
        injections["b3"] = (5.955437849127209e+303, 0.0)
        got = self.check(topology, bus_vector(topology, injections))
        assert got[0] is PowerFlowError and "e+299 pu" in got[1]
