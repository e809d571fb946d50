"""Continuous dispatch loop, technology shares, reporting, grid oracle."""

import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cellflex import dispatch, optimizer
from cellflex.dispatch import (
    K_INFEASIBLE,
    K_PCC_P,
    K_PCC_Q,
    DispatchRun,
    StepObjective,
    dispatch_on,
    exchange_pass,
    run_dispatch,
    technology_shares,
    temperature_panel,
    warm_objective,
)
from cellflex.errors import ConfigurationError, DispatchError, PowerFlowError
from cellflex.optimizer import (
    BasinHoppingConfig,
    FlexibilityRequest,
    NelderMeadSettings,
)
from cellflex.oracle import (
    _grid_axes,
    _lower_bounds,
    _probe_axes,
    _scan,
    grid_search_oracle,
    make_toy_scenario,
    oracle_on,
)
from cellflex.reporting import (
    DISPATCH_COLUMNS,
    ITERATION_COLUMNS,
    summary_dict,
    write_dispatch_csv,
    write_iterations_csv,
    write_summary_json,
)
from cellflex.scenario import (
    load_bundled_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from cellflex.twin import CellTwin
from oracle_reference import brute_force_oracle, keyed_oracle
from test_twin import small_cells, weak_feeder_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import toy_requests  # noqa: E402

TOY_REQUEST = FlexibilityRequest(1.0, 0.3)
TOY_CONFIG = BasinHoppingConfig(n_iter=20, seed=6)
# each study's two forms: its scenario wrapper, and its twin entry on a new
# twin of the scenario
DISPATCH_FORMS = {
    "wrapper": lambda scn, **kw: run_dispatch(scn, TOY_REQUEST, **kw),
    "twin": lambda scn, **kw: dispatch_on(CellTwin(scn), TOY_REQUEST, **kw),
}
ORACLE_FORMS = {
    "wrapper": lambda scn, **kw: grid_search_oracle(scn, TOY_REQUEST, **kw),
    "twin": lambda scn, **kw: oracle_on(CellTwin(scn), TOY_REQUEST, **kw),
}
dispatch_forms = pytest.mark.parametrize(
    "dispatch_", DISPATCH_FORMS.values(), ids=list(DISPATCH_FORMS))
oracle_forms = pytest.mark.parametrize(
    "oracle_", ORACLE_FORMS.values(), ids=list(ORACLE_FORMS))


@pytest.fixture(scope="module")
def toy_run():
    return run_dispatch(make_toy_scenario(), TOY_REQUEST, n_steps=3,
                        config=TOY_CONFIG)


class TestTechnologyShares:
    def test_share_arithmetic(self):
        shares = technology_shares(
            plant_deltas=[1.0, 2.0, 0.5, 0.5, 0.3],
            plant_classes=("bes", "ehp", "bev_v1g", "bev_v2g", "inv"),
            dp_target_kw=5.0, dq_target_kvar=1.0)
        assert shares == pytest.approx(
            {"bes": 0.2, "ehp": 0.4, "bev": 0.2, "inv_q": 0.3})

    def test_zero_targets_fall_back_to_raw_sums(self):
        shares = technology_shares([1.5, -0.4], ("bes", "inv"), 0.0, 0.0)
        assert shares["bes"] == pytest.approx(1.5)
        assert shares["inv_q"] == pytest.approx(-0.4)

    def test_unknown_class(self):
        with pytest.raises(DispatchError, match="unknown plant class"):
            technology_shares([1.0], ("geothermal",), 5.0, 1.0)


@pytest.mark.usefixtures("warmup_fails")
class TestHorizon:
    """Each study rejects its input before the warmup, in both forms."""

    @dispatch_forms
    def test_horizon_beyond_profile_window_rejected_before_warmup(
            self, monkeypatch, dispatch_):
        # toy cell: one forward profile day holds 5760 steps of 15 s
        def fail(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("cellflex.dispatch.basin_hopping", fail)
        with pytest.raises(ConfigurationError, match="profile_forward_days"):
            dispatch_(make_toy_scenario(), n_steps=5761, config=TOY_CONFIG)
        make_toy_scenario().check_horizon(5760)

    @pytest.mark.parametrize("entry", [
        *(functools.partial(form, n_steps=1, config=TOY_CONFIG)
          for form in DISPATCH_FORMS.values()),
        *ORACLE_FORMS.values(),
        lambda scn: temperature_panel(CellTwin(scn), TOY_REQUEST, [0.1], [1],
                                      TOY_CONFIG),
    ], ids=["dispatch", "dispatch_on", "oracle", "oracle_on", "panel"])
    def test_cell_without_plants_rejected_before_warmup(self, entry):
        data = scenario_to_dict(make_toy_scenario())
        del data["prosumers"][0]["pv"], data["prosumers"][0]["bes"]
        with pytest.raises(ConfigurationError,
                           match="'toy2' has no controllable plants"):
            entry(scenario_from_dict(data))

    @dispatch_forms
    @pytest.mark.parametrize("soc", [1.5, -0.1, math.nan])
    def test_bes_soc_outside_unit_interval_rejected_before_warmup(
            self, dispatch_, soc):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            dispatch_(make_toy_scenario(), n_steps=1, config=TOY_CONFIG,
                      initial_bes_soc=soc)

    @dispatch_forms
    @pytest.mark.parametrize("n_steps", [0, 2.5, math.nan])
    def test_non_integer_or_zero_steps_rejected_before_warmup(
            self, dispatch_, n_steps):
        with pytest.raises(ConfigurationError,
                           match=f"at least 1 step, got {n_steps!r}"):
            dispatch_(make_toy_scenario(), n_steps=n_steps, config=TOY_CONFIG)

    @pytest.mark.parametrize("temperatures, seeds, n_iter", [
        ([], [1], 3), ([0.1], [], 3), ([0.1], [1], 0)])
    def test_panel_without_a_search_rejected_before_warmup(
            self, temperatures, seeds, n_iter):
        with pytest.raises(ConfigurationError,
                           match="needs a temperature, a seed and n_iter >= 1"):
            temperature_panel(CellTwin(make_toy_scenario()), TOY_REQUEST,
                              temperatures, seeds,
                              BasinHoppingConfig(n_iter=n_iter))


class TestToyTracking:
    def test_tracks_request_every_step(self, toy_run):
        assert len(toy_run.steps) == 3
        for st in toy_run.steps:
            assert abs(st.dp_pcc_kw - st.dp_target_kw) <= 0.02
            assert abs(st.dq_pcc_kvar - st.dq_target_kvar) <= 0.01
            assert st.feasible

    def test_step_clock_advances_by_dispatch_interval(self, toy_run):
        assert [st.t_s for st in toy_run.steps] == [15.0, 30.0, 45.0]
        assert [st.index for st in toy_run.steps] == [0, 1, 2]

    def test_battery_serves_p_and_inverter_serves_q(self, toy_run):
        for st in toy_run.steps:
            assert st.shares["bes"] == pytest.approx(1.0, abs=0.05)
            assert st.shares["inv_q"] == pytest.approx(1.0, abs=0.05)
            assert st.shares["ehp"] == 0.0
            assert st.shares["bev"] == 0.0

    def test_warm_start_contract(self, toy_run):
        # step 0 starts from zero offsets exchanged, later steps from the
        # carry exchanged: every iteration-0 objective lies far below the
        # pure PCC mismatch cost of the zero vector
        cold = K_PCC_P * abs(TOY_REQUEST.dp_kw) \
            + K_PCC_Q * abs(TOY_REQUEST.dq_kvar)
        x0 = [s.iterations[0].of_local for s in toy_run.steps]
        assert x0[0] < 0.1 * cold
        assert x0[1] < 0.1 * cold
        assert x0[2] < 0.1 * cold

    def test_each_step_exchanges_once_from_zeros_or_the_carry(
            self, monkeypatch):
        exchanged = []

        def recorded_exchange(f, x):
            exchanged.append(np.array(x, copy=True))
            return exchange_pass(f, x)

        monkeypatch.setattr("cellflex.dispatch.exchange_pass", recorded_exchange)
        run = run_dispatch(make_toy_scenario(), TOY_REQUEST, n_steps=3,
                           config=TOY_CONFIG)
        assert len(exchanged) == 3
        assert np.array_equal(exchanged[0], np.zeros(len(run.plant_labels)))
        for k in (1, 2):
            assert np.array_equal(exchanged[k], run.steps[k - 1].offsets)

    def test_committed_step_never_worse_than_its_start(self, toy_run):
        for st in toy_run.steps:
            assert st.of <= st.iterations[0].of_local

    def test_offsets_respect_plant_bounds(self, toy_run):
        bounds = CellTwin(make_toy_scenario()).plant_bounds()
        for st in toy_run.steps:
            assert np.all(st.offsets >= bounds[:, 0] - 1e-12)
            assert np.all(st.offsets <= bounds[:, 1] + 1e-12)

    def test_costs_are_consistent(self, toy_run):
        for st in toy_run.steps:
            assert st.cost_eur == pytest.approx(st.plant_cost * 0.1)
            assert st.of == pytest.approx(
                st.plant_cost + st.pcc_cost + st.penalty)
            assert st.penalty == 0.0

    def test_same_seed_reproduces_run(self, toy_run):
        again = run_dispatch(make_toy_scenario(), TOY_REQUEST, n_steps=3,
                             config=TOY_CONFIG)
        for a, b in zip(toy_run.steps, again.steps):
            assert a.pcc_p_kw == b.pcc_p_kw
            assert a.pcc_q_kvar == b.pcc_q_kvar
            assert np.array_equal(a.offsets, b.offsets)
            assert a.of == b.of

    def test_initial_bes_soc_override(self):
        run = run_dispatch(make_toy_scenario(), FlexibilityRequest(-1.0, 0.0),
                           n_steps=2, config=BasinHoppingConfig(n_iter=10, seed=3),
                           initial_bes_soc=0.02)
        socs = [st.trace["bes_soc"][0] for st in run.steps]
        assert socs[0] < 0.03          # override took, not the warm ~0.5
        assert socs[1] <= socs[0]      # reduction keeps draining it

    def test_commit_failure_raises_with_partial_trace(self):
        class FlakyTwin(CellTwin):
            commits = 0

            def advance_reference(self, ref, offsets):
                self.commits += 1
                if self.commits >= 2:
                    raise PowerFlowError("synthetic network failure")
                return super().advance_reference(ref, offsets)

        with pytest.raises(DispatchError, match="step 1") as err:
            dispatch_on(FlakyTwin(make_toy_scenario()), TOY_REQUEST,
                        n_steps=3, config=BasinHoppingConfig(n_iter=5, seed=1))
        assert len(err.value.trace) == 1
        assert err.value.trace[0].index == 0


class TestReporting:
    def test_dispatch_csv_layout(self, toy_run, tmp_path):
        path = tmp_path / "steps.csv"
        write_dispatch_csv(toy_run, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(DISPATCH_COLUMNS)
        assert len(lines) == 1 + len(toy_run.steps)
        first = lines[1].split(",")
        assert len(first) == len(DISPATCH_COLUMNS)
        assert float(first[0]) == 15.0
        assert float(first[3]) == TOY_REQUEST.dp_kw

    def test_iterations_csv_layout(self, toy_run, tmp_path):
        path = tmp_path / "iters.csv"
        write_iterations_csv(toy_run, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(ITERATION_COLUMNS)
        assert len(lines) == 1 + sum(len(st.iterations)
                                     for st in toy_run.steps)
        row = lines[1].split(",")
        assert row[0] == "0" and row[1] == "0"
        assert row[5] in ("0", "1")  # booleans written as integers

    def test_rewrite_is_byte_identical(self, toy_run, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dispatch_csv(toy_run, a)
        write_dispatch_csv(toy_run, b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_fields(self, toy_run):
        s = summary_dict(toy_run)
        assert s["scenario"] == "toy2"
        assert s["request"] == {"dp_kw": 1.0, "dq_kvar": 0.3}
        assert s["n_steps"] == 3
        assert s["optimizer"]["seed"] == 6
        assert s["tracking"]["frac_dp_within_0p1_kw"] == 1.0
        assert s["tracking"]["frac_dq_within_0p05_kvar"] == 1.0
        assert s["tracking"]["max_abs_dp_err_kw"] <= 0.02
        assert s["all_steps_feasible"] is True
        assert s["totals"]["cost_eur"] == pytest.approx(
            sum(st.cost_eur for st in toy_run.steps))

    def test_summary_search_counters_sum_the_steps(self, toy_run):
        search = summary_dict(toy_run)["search"]
        bh_iters = [len(st.iterations) - 1 for st in toy_run.steps]
        assert search["evaluations"] == sum(st.n_evals for st in toy_run.steps)
        assert search["start_evaluations"] \
            == sum(st.start_evals for st in toy_run.steps)
        assert search["bh_iterations_mean"] == sum(bh_iters) / len(bh_iters)
        assert search["bh_iterations_max"] == max(bh_iters)
        assert search["bh_improved_steps"] == sum(
            min(rec.of_local for rec in st.iterations[1:])
            < st.iterations[0].of_local for st in toy_run.steps)

    def test_summary_json_round_trips(self, toy_run, tmp_path):
        import json
        path = tmp_path / "summary.json"
        write_summary_json(toy_run, path)
        assert json.loads(path.read_text()) == summary_dict(toy_run)


class TestMeritOrderStart:
    """Step 0's start, the exchange pass from zero offsets, fills the request
    in merit order: the cheapest active-power plant moves first."""

    @pytest.mark.parametrize("scenario, request_", [
        (make_toy_scenario, TOY_REQUEST),
        (load_bundled_scenario, FlexibilityRequest(5.0, 1.0)),
        (load_bundled_scenario, FlexibilityRequest(-5.0, -1.0)),
    ])
    def test_tracks_the_request_cheapest_class_first(self, scenario, request_):
        f = warm_objective(CellTwin(scenario()), request_)
        twin, ref = f.twin, f.ref
        evaluated = []
        evaluate = twin.evaluate_dispatch

        def counted(ref_, offsets):
            evaluated.append(np.array(offsets, copy=True))
            return evaluate(ref_, offsets)

        twin.evaluate_dispatch = counted
        x = exchange_pass(f, np.zeros(twin.n_plants))
        assert len(evaluated) <= 40
        assert not evaluated[0].any()          # the exchange starts from zeros
        moved = np.flatnonzero(evaluated[1])
        weights = f.weights
        p_weights = [w for w, c in zip(weights, twin.plant_classes)
                     if c != "inv"]
        assert len(moved) == 1
        assert twin.plant_classes[moved[0]] != "inv"
        assert weights[moved[0]] == min(p_weights)

        bounds = twin.plant_bounds()
        assert np.all((bounds[:, 0] <= x) & (x <= bounds[:, 1]))
        ev = evaluate(ref, x)
        assert abs(ev.pcc_p_kw - ref.pcc_p_kw - request_.dp_kw) <= 0.1
        assert abs(ev.pcc_q_kvar - ref.pcc_q_kvar - request_.dq_kvar) <= 0.05


class TestExchangePass:
    @pytest.mark.parametrize("scenario, request_, bes_soc", [
        (make_toy_scenario, TOY_REQUEST, None),
        (load_bundled_scenario, FlexibilityRequest(5.0, 1.0), None),
        (load_bundled_scenario, FlexibilityRequest(-5.0, -1.0), 0.04),
    ])
    def test_lowers_the_objective_within_bounds_and_budget(
            self, scenario, request_, bes_soc):
        f = warm_objective(CellTwin(scenario()), request_, bes_soc)
        twin, ref = f.twin, f.ref
        x0 = np.zeros(twin.n_plants)
        of0, _ = f(x0)
        calls = []
        evaluate = twin.evaluate_dispatch

        def counted(ref_, offsets):
            calls.append(1)
            return evaluate(ref_, offsets)

        twin.evaluate_dispatch = counted
        x = exchange_pass(f, x0)
        twin.evaluate_dispatch = evaluate
        assert len(calls) <= 60

        assert np.all((f.bounds[:, 0] <= x) & (x <= f.bounds[:, 1]))
        of, feasible = f(x)
        assert feasible
        assert of <= of0
        ev = twin.evaluate_dispatch(ref, x)
        assert abs(ev.pcc_p_kw - ref.pcc_p_kw - request_.dp_kw) <= 0.1
        assert abs(ev.pcc_q_kvar - ref.pcc_q_kvar - request_.dq_kvar) <= 0.05

    def test_returns_the_input_when_nothing_improves(self):
        # on the toy cell a second exchange finds nothing better than the
        # first one's result, and hands back the vector it was given
        f = warm_objective(CellTwin(make_toy_scenario()), TOY_REQUEST)
        x0 = exchange_pass(f, np.zeros(f.twin.n_plants))
        assert exchange_pass(f, x0) is x0


class TestStepObjective:
    @pytest.mark.parametrize("scenario, request_, config", [
        (make_toy_scenario, TOY_REQUEST, TOY_CONFIG),
        (load_bundled_scenario, FlexibilityRequest(5.0, 1.0),
         BasinHoppingConfig(seed=42)),
    ], ids=["toy", "bundled"])
    def test_committed_of_is_the_objective_the_oracle_minimizes(
            self, scenario, request_, config):
        # a fresh objective on a fresh twin, its reference moved forward over
        # the committed offsets, scores every step as the run recorded it
        run = run_dispatch(scenario(), request_, n_steps=3, config=config)
        f = warm_objective(CellTwin(scenario()), request_)
        for st in run.steps:
            of, feasible = f(st.offsets)
            assert (of.hex(), feasible) == (st.of.hex(), st.feasible)
            f.ref, _ = f.twin.advance_reference(f.ref, st.offsets)


    @staticmethod
    @functools.cache
    def overload_cell():
        """A battery behind a line it overloads at ±40 kW and collapses at
        +40 kW and beyond: feasible points, violations and failures."""
        twin = CellTwin(weak_feeder_scenario(r_ohm=1.0, x_ohm=0.3, i_max_a=40.0))
        return twin, twin.run_warmup()

    @given(x=st.floats(-120.0, 120.0), dp=st.floats(-50.0, 50.0),
           dq=st.floats(-50.0, 50.0), k=st.tuples(*[st.floats(0.0, 1.0)] * 4))
    @example(x=0.0, dp=5.0, dq=1.0, k=(0.1, 0.2, 0.3, 10.0))
    @example(x=-60.0, dp=5.0, dq=1.0, k=(0.1, 0.2, 0.3, 10.0))
    @example(x=60.0, dp=5.0, dq=1.0, k=(0.1, 0.2, 0.3, 10.0))
    def test_score_is_the_breakdown_of_bit_for_bit(self, x, dp, dq, k):
        # the search minimises score and a committed step records
        # breakdown(ev).of: they must be one number
        twin, ref = self.overload_cell()
        ev = twin.evaluate_dispatch(ref, np.array([x]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(dispatch._PLANT_CLASSES, "bes", (k[0], "bes"))
            mp.setattr(dispatch, "K_PCC_P", k[1])
            mp.setattr(dispatch, "K_PCC_Q", k[2])
            mp.setattr(dispatch, "K_INFEASIBLE", k[3])
            f = StepObjective(twin, ref, FlexibilityRequest(dp, dq))
            assert f.weights.tolist() == [k[0]]
            of, feasible = f.score(ev)
            assert feasible == (ev.failure is None and not ev.n_violations)
            if ev.failure is None:
                assert of.hex() == f.breakdown(ev).of.hex()
            else:
                assert of == f.collapse_of == k[3] * 2


class TestEvaluationBudget:
    @staticmethod
    def calls_per_step(scenario, request_, n_steps, config):
        """Run a dispatch; evaluate_dispatch calls between its commits."""
        calls, marks = [], []

        class CountingTwin(CellTwin):
            def evaluate_dispatch(self, ref, offsets):
                calls.append(1)
                return super().evaluate_dispatch(ref, offsets)

            def advance_reference(self, ref, offsets):
                marks.append(len(calls))
                return super().advance_reference(ref, offsets)

        run = dispatch_on(CountingTwin(scenario), request_, n_steps=n_steps,
                          config=config)
        return run, np.diff([0] + marks)

    def test_start_and_search_evaluations_add_up_to_the_calls(self):
        run, per_step = self.calls_per_step(
            make_toy_scenario(), TOY_REQUEST, 3, TOY_CONFIG)
        assert [st.start_evals + st.n_evals for st in run.steps] \
            == per_step.tolist()
        assert all(st.start_evals > 0 for st in run.steps)

    def test_bundled_gain_step_spends_at_most_500_evaluations(self):
        run, per_step = self.calls_per_step(
            load_bundled_scenario(), FlexibilityRequest(5.0, 1.0),
            3, BasinHoppingConfig(seed=42))
        assert max(per_step) <= 500
        assert [st.start_evals + st.n_evals for st in run.steps] \
            == per_step.tolist()

    @staticmethod
    def doubled_bundled_cell():
        """The bundled cell with a copy of each prosumer on a stub bus off
        its own: 76 plants, more than NM's default budget of 40 reaches."""
        data = scenario_to_dict(load_bundled_scenario())
        topology = data["topology"]
        for pro in list(data["prosumers"]):
            bus = pro["bus"] + "b"
            topology["buses"].append({"id": bus})
            topology["lines"].append({"from": pro["bus"], "to": bus,
                                      "r_ohm": 0.01, "x_ohm": 0.004,
                                      "i_max_a": 270.0})
            data["prosumers"].append(dict(pro, id=pro["id"] + "b", bus=bus))
        return scenario_from_dict(data)

    def test_first_nelder_mead_call_moves_every_plant(self, monkeypatch):
        # NM's initial simplex displaces one plant per vertex, so a budget
        # below the plant count plus 1 leaves the last plants unmoved
        nelder_mead, moved = optimizer.nelder_mead, []

        def first_recorded(f, x0, **kwargs):
            if moved:
                return nelder_mead(f, x0, **kwargs)
            moved.append(np.zeros(len(x0), dtype=bool))

            def recorded(x):
                moved[0] |= x != x0
                return f(x)

            return nelder_mead(recorded, x0, **kwargs)

        monkeypatch.setattr(optimizer, "nelder_mead", first_recorded)
        twin = CellTwin(self.doubled_bundled_cell())
        run = dispatch_on(twin, FlexibilityRequest(5.0, 1.0), n_steps=1,
                          config=BasinHoppingConfig(n_iter=1, seed=1))
        assert twin.n_plants == 76
        assert moved[0].all(), np.flatnonzero(~moved[0])
        assert summary_dict(run)["optimizer"]["nm_maxfev"] == 76 + 2

    def test_larger_nm_budget_commits_the_same_gain_dispatch(self):
        # the default Nelder-Mead budget is small because a larger one buys
        # nothing here; if that stops holding, this fails
        def committed(nm):
            run = run_dispatch(
                load_bundled_scenario(), FlexibilityRequest(5.0, 1.0),
                n_steps=3, config=BasinHoppingConfig(seed=42, nm=nm))
            return [(st.offsets.tobytes(), st.of) for st in run.steps]

        assert committed(NelderMeadSettings(maxfev=200)) \
            == committed(NelderMeadSettings())


class TestOracle:
    @oracle_forms
    def test_oracle_refuses_large_cells_before_warmup(self, warmup_fails,
                                                      oracle_):
        with pytest.raises(ConfigurationError, match="at most 3"):
            oracle_(load_bundled_scenario())

    @oracle_forms
    @pytest.mark.parametrize("resolution", [0.0, math.nan, math.inf])
    def test_oracle_rejects_bad_resolution_before_warmup(
            self, warmup_fails, oracle_, resolution):
        with pytest.raises(ConfigurationError, match="resolution"):
            oracle_(make_toy_scenario(), resolution=resolution)

    @oracle_forms
    def test_oracle_rejects_oversized_grid_before_warmup(self, warmup_fails,
                                                         oracle_):
        # 80,001 x 18,001 points on the toy cell
        with pytest.raises(ConfigurationError,
                           match=r"about 1\.44e\+09 points.*at most 1,000,000"):
            oracle_(make_toy_scenario(), resolution=1e-4)
        with pytest.raises(ConfigurationError, match="about inf points"):
            oracle_(make_toy_scenario(), resolution=5e-324)

    def test_oracle_covers_the_offset_grid(self):
        result = grid_search_oracle(make_toy_scenario(), TOY_REQUEST,
                                    resolution=0.5)
        # bes spans [-4, 4] in 17 points, inverter [-0.9, 0.9] in 5
        assert result.n_points == 17 * 5
        # one probe per axis point, then one grid point: the lowest bound's
        # point is the minimizer, and every other point's bound lies above
        # its objective
        assert result.n_evals == (17 + 5) + 1
        assert result.n_probes == 17 + 5
        assert result.n_pruned == 17 * 5 - 1
        assert result.resolution == 0.5

    @pytest.mark.parametrize("resolution", [0.5, 0.7])
    def test_oracle_grid_stays_inside_the_offset_box(self, resolution):
        # 0.5 and 0.7 do not divide the inverter's span of 1.8 kVAr, so the
        # unclipped axis would end at 1.1 and 1.2 kVAr.  Records the probed
        # points and the scanned ones
        points = []

        class RecordingTwin(CellTwin):
            def evaluate_dispatch(self, ref, offsets):
                points.append(np.array(offsets, dtype=float))
                return super().evaluate_dispatch(ref, offsets)

            def probe_plant(self, ref, base, i, values):
                for value in values:
                    points.append(np.array(base, dtype=float))
                    points[-1][i] = value
                return super().probe_plant(ref, base, i, values)

        result = oracle_on(RecordingTwin(make_toy_scenario()), TOY_REQUEST,
                           resolution=resolution)
        bounds = CellTwin(make_toy_scenario()).plant_bounds()
        assert len(points) == result.n_evals
        for x in (*points, result.x):
            assert np.all((bounds[:, 0] <= x) & (x <= bounds[:, 1])), x
        assert max(x[1] for x in points) == bounds[1, 1]

    @pytest.mark.parametrize("request_index", range(4))
    def test_oracle_matches_brute_force_on_toy_requests(self, request_index):
        request, _seed = toy_requests(3, 4)[request_index]
        result = grid_search_oracle(make_toy_scenario(), request)
        of, x, n_points = brute_force_oracle(make_toy_scenario(), request, 0.05)
        assert result.of.hex() == of.hex()
        assert result.x.tobytes() == x.tobytes()
        assert result.n_points == n_points == 161 * 37
        assert result.n_evals < n_points

    @pytest.mark.parametrize("seed, request_index, n_evals", [
        (92, 16, 199), (100, 19, 200)])
    def test_oracle_matches_brute_force_at_the_battery_clamp(
            self, seed, request_index, n_evals):
        # the minimizer discharges the battery at its clamp (x[0] = -4.0),
        # so lower offsets end in the same plant state and share its lower
        # bound; their probes are bit-equal, so the scan scores them without
        # evaluating them and still returns the first minimizer
        request, _seed = toy_requests(seed, 25)[request_index]
        result = grid_search_oracle(make_toy_scenario(), request)
        of, x, n_points = brute_force_oracle(make_toy_scenario(), request, 0.05)
        assert x[0] == -4.0
        assert result.of.hex() == of.hex()
        assert result.x.tobytes() == x.tobytes()
        assert result.n_evals == n_evals
        assert result.n_evals + result.n_pruned == result.n_probes + n_points

    @pytest.mark.parametrize("plant", [
        pytest.param({"ehp": {"p_el_max_kw": 3.0, "p_element_kw": 2.0,
                              "storage_kwh_per_k": 0.4, "t0_c": 45.0}},
                     id="heat_pump"),
        pytest.param({"bevs": [{"capacity_kwh": 40.0, "p_rated_kw": 3.7,
                                "soc0": 0.5}]},
                     id="ev"),
    ])
    def test_oracle_matches_brute_force_on_a_three_plant_cell(self, plant):
        data = scenario_to_dict(make_toy_scenario())
        data["prosumers"][0].update(plant)
        scenario = scenario_from_dict(data)
        result = grid_search_oracle(scenario, TOY_REQUEST, resolution=0.5)
        of, x, n_points = brute_force_oracle(scenario, TOY_REQUEST, 0.5)
        assert len(x) == 3
        assert result.of.hex() == of.hex()
        assert result.x.tobytes() == x.tobytes()
        assert result.n_points == n_points
        assert result.n_evals < n_points

    def test_optimizer_matches_oracle_single_seed(self):
        oracle = grid_search_oracle(make_toy_scenario(), TOY_REQUEST)
        run = run_dispatch(make_toy_scenario(), TOY_REQUEST, n_steps=1,
                           config=BasinHoppingConfig(n_iter=50, seed=1))
        assert run.steps[0].of <= oracle.of + 1e-3
        assert oracle.x[0] == pytest.approx(1.0, abs=0.05)
        assert oracle.x[1] == pytest.approx(0.3, abs=0.05)


def check_keyed(scenario, request, resolution):
    """The oracle answers and counts as the keyed scan over the full grid."""
    result = grid_search_oracle(scenario, request, resolution=resolution)
    of, x, n_evals, n_pruned = keyed_oracle(scenario, request, resolution)
    assert result.of.hex() == of.hex()
    assert (None if result.x is None else result.x.tobytes()) == (
        None if x is None else x.tobytes())
    assert (result.n_evals, result.n_pruned) == (n_evals, n_pruned)


class TestOracleCounts:
    """The scan over each axis's distinct probe records evaluates the points
    the keyed scan over the full grid evaluated (``keyed_oracle``)."""

    # the minimizer discharges the battery at its clamp, below which every
    # offset probes alike
    @example(dp=toy_requests(92, 25)[16][0].dp_kw,
             dq=toy_requests(92, 25)[16][0].dq_kvar, resolution=0.05)
    @given(dp=st.floats(-1.5, 1.5), dq=st.floats(-0.6, 0.6),
           resolution=st.floats(0.05, 1.0))
    def test_toy_cell(self, dp, dq, resolution):
        check_keyed(make_toy_scenario(), FlexibilityRequest(dp, dq),
                    resolution)

    @given(cell=small_cells(max_plants=3), dp=st.floats(-3.0, 3.0),
           dq=st.floats(-1.0, 1.0), steps=st.integers(1, 6))
    def test_generated_cells(self, cell, dp, dq, steps):
        scenario = scenario_from_dict(cell)
        bounds = CellTwin(scenario).plant_bounds()
        # `steps` steps across the widest plant: at most 7^3 points
        resolution = float(np.max(bounds[:, 1] - bounds[:, 0])) / steps
        check_keyed(scenario, FlexibilityRequest(dp, dq), resolution)


def bounds_and_objectives(scenario, request, resolution):
    """The oracle's lower bound and the objective at every point of the full
    offset grid, each with one axis per plant."""
    f = warm_objective(CellTwin(scenario), request)
    axes = _grid_axes(f.bounds, resolution)
    lb = _lower_bounds(f, _probe_axes(f, axes))
    of = [f(np.array(x))[0] for x in itertools.product(*axes)]
    return lb, np.array(of).reshape(lb.shape)


class TestOracleBound:
    @pytest.mark.parametrize("request_", [
        TOY_REQUEST, FlexibilityRequest(0.0, 0.0),
        FlexibilityRequest(1.5, 0.6), FlexibilityRequest(1.5, -0.6),
        FlexibilityRequest(-1.5, 0.6), FlexibilityRequest(-1.5, -0.6),
    ], ids=str)
    def test_bound_holds_on_the_full_toy_grid(self, request_):
        lb, of = bounds_and_objectives(make_toy_scenario(), request_, 0.05)
        assert lb.shape == (161, 37)
        assert np.all(lb <= of), np.max(lb - of)

    @pytest.mark.parametrize("k_infeasible", [K_INFEASIBLE, 1e-3],
                             ids=["default", "cheap_collapse"])
    def test_bound_holds_where_the_feeder_collapses(self, monkeypatch,
                                                    k_infeasible):
        # offsets from +10 kW up collapse the weak feeder's voltage; a
        # collapse cheaper than the tracking cost takes the cap
        monkeypatch.setattr(dispatch, "K_INFEASIBLE", k_infeasible)
        request = FlexibilityRequest(-20.0, 0.0)
        lb, of = bounds_and_objectives(weak_feeder_scenario(), request, 5.0)
        assert np.count_nonzero(of == k_infeasible * 2) == 23
        assert np.all(lb <= of), np.max(lb - of)

    def test_pruned_oracle_matches_brute_force_where_the_feeder_collapses(self):
        request = FlexibilityRequest(-20.0, 0.0)
        result = grid_search_oracle(weak_feeder_scenario(), request,
                                    resolution=5.0)
        of, x, _n_points = brute_force_oracle(weak_feeder_scenario(), request,
                                              5.0)
        assert result.of.hex() == of.hex()
        assert result.x.tobytes() == x.tobytes()
        assert result.n_pruned > 0

    # close objectives and slacks, so that bounds tie with and fall just
    # below the best objective so far
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1e-7, 2e-7, 1.0, math.nan]),
                              st.sampled_from([0.0, 5e-8, 1.0, math.inf,
                                               math.nan])),
                    min_size=1, max_size=12))
    def test_scan_returns_the_first_minimizer(self, points):
        of = [v for v, _slack in points]
        lb = np.array([v - slack for v, slack in points])    # <= of, or NaN
        best_of, best = math.inf, None
        for k, v in enumerate(of):
            if v < best_of:
                best_of, best = v, k
        calls = []
        assert _scan(lb, lambda k: calls.append(k) or of[k]) == (best_of, best)
        assert len(calls) == len(set(calls))

    @given(cell=small_cells(max_plants=3), dp=st.floats(-3.0, 3.0),
           dq=st.floats(-1.0, 1.0))
    def test_pruned_oracle_matches_brute_force_on_generated_cells(self, cell,
                                                                  dp, dq):
        scenario = scenario_from_dict(cell)
        request = FlexibilityRequest(dp, dq)
        bounds = CellTwin(scenario).plant_bounds()
        # about five steps across the widest plant: at most 6^3 points
        resolution = float(np.max(bounds[:, 1] - bounds[:, 0])) / 5.0
        result = grid_search_oracle(scenario, request, resolution=resolution)
        of, x, n_points = brute_force_oracle(scenario, request, resolution)
        assert result.of.hex() == of.hex()
        assert result.x.tobytes() == x.tobytes()
        assert result.n_points == n_points
        lb, of_grid = bounds_and_objectives(scenario, request, resolution)
        assert np.all(lb <= of_grid), np.max(lb - of_grid)
