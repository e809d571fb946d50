"""Cell twin: reference capture, offset evaluation, commit semantics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cellflex import grid
from cellflex import twin as twin_module
from cellflex.errors import ConfigurationError, PowerFlowError
from cellflex.grid import reset_balance_tracker, solve_power_flow
from cellflex.oracle import make_toy_scenario
from cellflex.plants import (
    BatteryStorage,
    ElectricVehicle,
    HeatPumpSystem,
    PvInverter,
)
from cellflex.scenario import (
    load_bundled_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from cellflex.twin import SOLVED_MAX, CellTwin, _ProsumerTwin


@pytest.fixture(scope="module")
def toy():
    twin = CellTwin(make_toy_scenario())
    ref = twin.run_warmup()
    return twin, ref


@pytest.fixture(scope="module")
def bundled():
    twin = CellTwin(load_bundled_scenario())
    ref = twin.run_warmup()
    return twin, ref


def fingerprint(ev):
    """Everything an evaluation reports, with floats at full precision."""
    return (ev.pcc_p_kw.hex(), ev.pcc_q_kvar.hex(), ev.plant_values.tobytes(),
            ev.n_violations, ev.feasible, ev.failure)


def evaluated(twin, ref, x):
    """The fingerprint of evaluating `x` from `ref` on `twin`, and the plant
    states the evaluation leaves, which its result does not show."""
    return fingerprint(twin.evaluate_dispatch(ref, x)), repr(twin.snapshot())


def weak_feeder_scenario(r_ohm=6.0, x_ohm=2.0, i_max_a=200.0):
    """One oversized battery behind a 6-ohm line: full charge collapses it.
    A stiffer line keeps every point solvable and a lower `i_max_a`
    overloads it instead."""
    return scenario_from_dict({
        "name": "weak",
        "topology": {
            "pcc_bus": "pcc", "transformer_kva": 100.0,
            "buses": [{"id": "pcc"}, {"id": "h01"}],
            "lines": [{"from": "pcc", "to": "h01",
                       "r_ohm": r_ohm, "x_ohm": x_ohm, "i_max_a": i_max_a}],
        },
        "weather": {"ambient_mean_c": 5.0, "ambient_swing_c": 0.0},
        "simulation": {"start": "2023-01-16T20:00:00", "internal_dt_s": 1.0,
                       "dispatch_step_s": 15.0, "warmup_s": 3600.0},
        "prosumers": [{
            "id": "w01", "bus": "h01",
            "household": {"p_base_kw": 0.5, "p_morning_kw": 0.0,
                          "p_evening_kw": 0.0},
            "bes": {"capacity_kwh": 50.0, "p_max_charge_kw": 60.0,
                    "p_max_discharge_kw": 60.0, "soc0": 0.5},
        }],
    })


class TestPlantTable:
    def test_toy_plants_and_bounds(self, toy):
        twin, _ = toy
        assert twin.plant_labels == ("bes:t01", "inv:t01")
        assert twin.plant_classes == ("bes", "inv")
        bounds = twin.plant_bounds()
        assert bounds[0].tolist() == [-4.0, 4.0]
        assert bounds[1] == pytest.approx([-0.9, 0.9])

    def test_bounds_are_a_copy(self, toy):
        twin, _ = toy
        bounds = twin.plant_bounds()
        bounds[0, 0] = -999.0
        assert twin.plant_bounds()[0, 0] == -4.0

    def test_bundled_table_is_class_major(self):
        twin = CellTwin(load_bundled_scenario())
        assert twin.n_plants == 38
        kinds = [label.split(":")[0] for label in twin.plant_labels]
        assert kinds == ["bes"] * 4 + ["ehp"] * 6 + ["bev"] * 18 + ["inv"] * 10

    def test_offset_length_mismatch(self, toy):
        twin, _ = toy
        with pytest.raises(ConfigurationError, match="expected 2"):
            twin.set_offsets([0.0, 0.0, 0.0])


class TestEvaluation:
    def test_zero_offsets_reproduce_reference(self, toy):
        twin, ref = toy
        ev = twin.evaluate_dispatch(ref, np.zeros(2))
        assert ev.failure is None and ev.feasible
        assert abs(ev.pcc_p_kw - ref.pcc_p_kw) <= 1e-9
        assert abs(ev.pcc_q_kvar - ref.pcc_q_kvar) <= 1e-9

    def test_evaluation_is_repeatable(self, toy):
        twin, ref = toy
        a = twin.evaluate_dispatch(ref, np.array([0.7, -0.2]))
        b = twin.evaluate_dispatch(ref, np.array([0.7, -0.2]))
        assert a.pcc_p_kw == b.pcc_p_kw
        assert a.pcc_q_kvar == b.pcc_q_kvar
        assert np.array_equal(a.plant_values, b.plant_values)

    def test_battery_offset_moves_plant_and_pcc(self, toy):
        twin, ref = toy
        ev = twin.evaluate_dispatch(ref, np.array([1.0, 0.0]))
        assert ev.plant_values[0] - ref.plant_values[0] == pytest.approx(1.0, abs=1e-3)
        assert ev.pcc_p_kw - ref.pcc_p_kw == pytest.approx(1.0, abs=1e-2)

    def test_inverter_offset_moves_reactive_axis(self, toy):
        twin, ref = toy
        ev = twin.evaluate_dispatch(ref, np.array([0.0, 0.5]))
        assert ev.plant_values[1] - ref.plant_values[1] == pytest.approx(0.5)
        assert ev.pcc_q_kvar - ref.pcc_q_kvar == pytest.approx(0.5, abs=1e-2)
        assert ev.pcc_p_kw - ref.pcc_p_kw == pytest.approx(0.0, abs=1e-2)

    def test_evaluation_does_not_mutate_reference(self, toy):
        twin, ref = toy
        before = ref.plant_values.copy()
        twin.evaluate_dispatch(ref, np.array([2.0, 0.5]))
        assert np.array_equal(ref.plant_values, before)
        assert ref.t_s == 0.0

    def test_result_does_not_depend_on_evaluation_history(self, bundled):
        twin, ref = bundled
        rng = np.random.default_rng(11)
        bounds = twin.plant_bounds()
        x1, x2 = rng.uniform(bounds[:, 0], bounds[:, 1], size=(2, twin.n_plants))
        first = evaluated(twin, ref, x1)
        twin.evaluate_dispatch(ref, x2)
        assert evaluated(twin, ref, x1) == first

    def test_inputs_follow_the_clock_after_a_commit(self, bundled):
        # the cell's ambient temperature moves every second, so an evaluation
        # that reused the previous interval's inputs would differ in its bits
        twin, ref = bundled
        x = np.full(twin.n_plants, 0.1)
        twin.evaluate_dispatch(ref, x)
        new_ref, _ = twin.advance_reference(ref, x)
        after_commit = evaluated(twin, new_ref, x)
        assert after_commit == evaluated(CellTwin(twin.scenario), new_ref, x)

    def test_pv_inverter_steps_once_per_interval(self, toy, monkeypatch):
        twin, ref = toy
        calls = []
        step = PvInverter.step

        def counting_step(inverter, *args):
            calls.append(args)
            return step(inverter, *args)

        monkeypatch.setattr(PvInverter, "step", counting_step)
        twin.evaluate_dispatch(ref, np.array([0.5, 0.3]))
        twin.evaluate_dispatch(ref, np.array([0.5, -0.2]))
        assert [q for _, q in calls] == [0.3, -0.2]

    def test_offsets_of_another_shape_rejected(self, toy):
        twin, ref = toy
        with pytest.raises(ConfigurationError,
                           match="offset vector has 3 entries, expected 2"):
            twin.evaluate_dispatch(ref, [0.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError,
                           match=r"offset vector has shape \(2, 2\), expected 2"):
            twin.evaluate_dispatch(ref, np.zeros((2, 2)))

    def test_offsets_are_read_bit_for_bit(self):
        # the sign of zero and a NaN's payload reach the plants, from a
        # list or an array
        twin = CellTwin(make_toy_scenario())
        nan = struct.unpack("d", struct.pack("Q", 0x7FF8_0000_0000_0123))[0]
        for x in ([-0.0, nan], np.array([-0.0, nan])):
            twin.set_offsets(x)
            assert struct.pack("2d", *twin._offsets) == struct.pack("2d", -0.0, nan)

    def test_trace_only_on_request(self, toy):
        # an evaluation records no trace; a commit records one
        twin, ref = toy
        assert twin.evaluate_dispatch(ref, np.zeros(2)).trace is None
        _, committed = twin.advance_reference(ref, np.zeros(2))
        assert committed.trace["t_s"] == 15.0


def result_bits(ev):
    """The evaluation result the optimizer scores, at full precision."""
    return (ev.pcc_p_kw.hex(), ev.pcc_q_kvar.hex(), ev.plant_values.tobytes(),
            ev.n_violations, ev.feasible)


def value_bits(values):
    """Each float of `values` as its eight bytes."""
    return [struct.pack("d", v) for v in values]


def plant_step_counter(twin, ref, monkeypatch):
    """Count plant steps: the returned function evaluates `x` on `twin`
    (from `ref`, unless another reference is given), checks the result
    against a fresh twin's bit for bit, and lists the plants it stepped."""
    stepped = []
    for cls in (BatteryStorage, HeatPumpSystem, ElectricVehicle, PvInverter):
        def counting_step(plant, *args, _step=cls.step):
            stepped.append(plant)
            return _step(plant, *args)
        monkeypatch.setattr(cls, "step", counting_step)

    def plants_stepped(x, r=ref):
        want = CellTwin(twin.scenario).evaluate_dispatch(r, x)
        stepped.clear()
        assert result_bits(twin.evaluate_dispatch(r, x)) == result_bits(want)
        return list(stepped)

    return plants_stepped


class TestIncrementalEvaluation:
    """An evaluation re-integrates only the plants whose offsets changed.

    Every result must be bit-equal to the same evaluation on a fresh twin,
    whatever happened to the twin in between.
    """

    @pytest.mark.parametrize("make", [make_toy_scenario, load_bundled_scenario])
    def test_matches_a_fresh_twin_through_mixed_sequences(self, make):
        scenario = make()
        twin = CellTwin(scenario)
        ref = twin.run_warmup()
        bounds = twin.plant_bounds()
        n = twin.n_plants
        rng = np.random.default_rng(3)
        classes = twin.plant_classes
        i_bes, i_inv = classes.index("bes"), classes.index("inv")

        def check(r, x):
            assert evaluated(twin, r, x) == evaluated(CellTwin(scenario), r, x)

        x0 = 0.5 * rng.uniform(bounds[:, 0], bounds[:, 1])
        check(ref, x0)
        # single-coordinate moves, as in Nelder-Mead's initial simplex
        for j in sorted({0, i_inv, n - 1, int(rng.integers(n))}):
            x = x0.copy()
            x[j] += 0.1
            check(ref, x)
        check(ref, x0)
        check(ref, x0)                      # repeat
        x = x0.copy()
        x[i_bes] = bounds[i_bes, 1]         # held at a bound
        check(ref, x)
        x[i_inv] = bounds[i_inv, 0]
        check(ref, x)
        # past each bound, deeper, back to the bound, back inside, then zero
        # and its sign: a plant is kept only while its offset is the same
        # float
        stateful = [j for j, c in enumerate(classes) if c != "inv"]
        for side in (1, 0):
            far = bounds[stateful, side]
            y = x0.copy()
            y[stateful] = far
            check(ref, y)
            y[stateful] = 2.0 * far
            check(ref, y)
            y[stateful[0]] = far[0]         # one back at its anchor, the rest deeper
            check(ref, y)
            y[stateful] = far
            check(ref, y)
            y[stateful] = 0.5 * far
            check(ref, y)
            y[stateful] = far
            check(ref, y)
            for zero in (0.0, -0.0, 0.0):   # a zero anchor, then its sign
                y[stateful] = zero
                check(ref, y)
            y[stateful] = 2.0 * far
            check(ref, y)
        # the sign of a zero offset reaches the result
        z = np.zeros(n)
        check(ref, z)
        z[i_inv] = -0.0
        z[i_bes] = -0.0
        check(ref, z)
        check(ref, np.zeros(n))
        # whatever moves plant state outside an evaluation
        new_ref, _ = twin.advance_reference(ref, x0)
        check(new_ref, x0)
        check(ref, x0)
        check(new_ref, x0)
        twin.restore(ref.snapshot)
        check(new_ref, x0)
        twin.override_bes_soc(0.3)
        check(new_ref, x0)
        twin.step_dispatch_interval()
        check(new_ref, x0)
        twin.set_offsets(x)
        twin.step_dispatch_interval()
        check(new_ref, x0)
        x = x0.copy()
        x[i_bes] = -x[i_bes]
        check(new_ref, x)

    def test_only_a_plant_whose_offset_changed_is_re_integrated(
            self, monkeypatch):
        # the EV charges at rated power, so any offset up is clamped; a
        # deeper offset past that bound still steps it, and so does the
        # sign of a zero offset, but the same offsets step no plant
        twin = CellTwin(load_bundled_scenario())
        ref = twin.run_warmup()
        j = twin.plant_labels.index("bev:p02.0")
        ev = next(p for p in twin.prosumers if p.id == "p02").bevs[0]
        assert ref.plant_values[j] == ev.params.p_rated_kw
        plants_stepped = plant_step_counter(twin, ref, monkeypatch)
        x = np.zeros(twin.n_plants)
        assert len(plants_stepped(x)) == twin.n_plants
        assert plants_stepped(x) == []
        x[j] = 1.0
        assert plants_stepped(x) == [ev]
        x[j] = 3.0
        assert plants_stepped(x) == [ev]
        assert plants_stepped(x) == []
        x[j] = 0.0
        assert plants_stepped(x) == [ev]
        x[j] = -0.0
        assert plants_stepped(x) == [ev]
        assert plants_stepped(x) == []

    def test_only_the_prosumer_of_a_moved_plant_is_re_integrated(
            self, monkeypatch):
        # each plant in turn moves from x: only its prosumer is integrated,
        # every other bus pair keeps the previous evaluation's bits, and the
        # twin's injections equal a fresh twin's.  A moved inverter
        # re-sums its bus through the PV path that sets p_base and q_base.
        twin = CellTwin(load_bundled_scenario())
        ref = twin.run_warmup()
        integrated = []

        def counting(pro, *args, _integrate=_ProsumerTwin.integrate):
            integrated.append(pro)
            return _integrate(pro, *args)

        monkeypatch.setattr(_ProsumerTwin, "integrate", counting)
        by_id = {pro.id: pro for pro in twin.prosumers}
        bounds = twin.plant_bounds()
        x = 0.25 * bounds[:, 1]
        twin.evaluate_dispatch(ref, x)
        for j, label in enumerate(twin.plant_labels):
            pro = by_id[label.split(":")[1].split(".")[0]]
            y = x.copy()
            y[j] = 0.5 * bounds[j, 0]
            fresh = CellTwin(twin.scenario)
            fresh.evaluate_dispatch(ref, y)
            before = value_bits(twin.injections)
            integrated.clear()
            twin.evaluate_dispatch(ref, y)
            assert integrated == [pro], label
            after = value_bits(twin.injections)
            assert after == value_bits(fresh.injections), label
            moved = {k for k, (a, b) in enumerate(zip(before, after)) if a != b}
            assert moved <= {pro.i_p, pro.i_p + 1}, label
            if label.startswith("inv:"):
                assert moved == {pro.i_p + 1}, label
            integrated.clear()
            twin.evaluate_dispatch(ref, x)
            assert integrated == [pro], label

    def test_a_nan_offset_is_never_kept(self, monkeypatch):
        # NaN equals no float, itself included, so the plant it drives is
        # stepped again on every evaluation; the inverter's zero is kept
        twin = CellTwin(make_toy_scenario())
        ref = twin.run_warmup()
        bes = twin.prosumers[0].bes
        plants_stepped = plant_step_counter(twin, ref, monkeypatch)
        x = np.array([math.nan, 0.0])
        assert len(plants_stepped(x)) == twin.n_plants
        assert plants_stepped(x) == [bes]
        assert plants_stepped(x) == [bes]
        x[0] = 1.0
        assert plants_stepped(x) == [bes]
        assert plants_stepped(x) == []

    def test_every_plant_is_re_integrated_from_another_snapshot(
            self, monkeypatch):
        # a kept state is the end state of one snapshot object: the same
        # offsets from another reference, or after a restore, step every
        # plant again
        twin = CellTwin(make_toy_scenario())
        ref = twin.run_warmup()
        x = np.array([1.0, 0.3])
        new_ref, _ = twin.advance_reference(ref, x)
        plants_stepped = plant_step_counter(twin, ref, monkeypatch)
        # the commit left the end state of `ref` under x
        assert plants_stepped(x) == []
        assert len(plants_stepped(x, new_ref)) == twin.n_plants
        assert plants_stepped(x, new_ref) == []
        assert len(plants_stepped(x)) == twin.n_plants
        twin.restore(ref.snapshot)
        assert len(plants_stepped(x)) == twin.n_plants
        assert plants_stepped(x) == []

    @pytest.mark.parametrize("make, bes_soc", [
        pytest.param(make_toy_scenario, None, id="make_toy_scenario"),
        pytest.param(load_bundled_scenario, None, id="load_bundled_scenario"),
        pytest.param(load_bundled_scenario, 0.04,
                     id="load_bundled_scenario-bes_soc_0.04"),
    ])
    def test_each_plant_depends_only_on_its_own_offset(self, make, bes_soc):
        # the invariant that lets an evaluation skip unchanged plants: a
        # coupling between plants must fail here.  From the depletion run's
        # start (batteries at 4 % SOC) the evaluation of x2 right after x1,
        # which keeps plant j, must also match a full re-integration of x2
        twin = CellTwin(make())
        ref = twin.run_warmup()
        if bes_soc is not None:
            twin.override_bes_soc(bes_soc)
            ref = twin.capture_reference()
        bounds = twin.plant_bounds()
        rng = np.random.default_rng(7)

        def integrated(x):
            twin.restore(ref.snapshot)      # re-integrates every plant
            ev = twin.evaluate_dispatch(ref, x)
            return ev.plant_values, twin.snapshot()[1]

        for j in range(twin.n_plants):
            x1, x2 = rng.uniform(bounds[:, 0], bounds[:, 1], size=(2, twin.n_plants))
            x2[j] = x1[j]
            values1, states1 = integrated(x1)
            if bes_soc is not None:
                kept = twin.evaluate_dispatch(ref, x2).plant_values
                kept_states = twin.snapshot()[1]
            values2, states2 = integrated(x2)
            assert values1[j].tobytes() == values2[j].tobytes(), twin.plant_labels[j]
            assert states1[j] == states2[j], twin.plant_labels[j]
            if bes_soc is not None:
                assert kept.tobytes() == values2.tobytes(), twin.plant_labels[j]
                assert kept_states == states2, twin.plant_labels[j]


def flow_bits(res):
    """Everything a power-flow result holds, at full precision."""
    return (res.pcc.p_kw.hex(), res.pcc.q_kvar.hex(),
            tuple((v.real.hex(), v.imag.hex()) for v in res.v),
            tuple(amps.hex() for amps in res.currents_a),
            res.loss_p_kw.hex(), res.loss_q_kvar.hex(), res.sweeps,
            res.balance_error_pu.hex())


def flow_outcome(solve):
    """`solve()`'s result bits, or the type and message of its failure."""
    try:
        return flow_bits(solve())
    except PowerFlowError as exc:
        return type(exc), str(exc)


def count_solves(monkeypatch):
    """The list of injections the twin solves a power flow for from now on."""
    solved = []

    def counting(topology, injections):
        solved.append(injections)
        return solve_power_flow(topology, injections)

    monkeypatch.setattr("cellflex.twin.solve_power_flow", counting)
    return solved


class TestSolveMemo:
    """``CellTwin.solve`` returns what a new solve of the same bus
    injections would, bit for bit, and solves each distinct vector once."""

    @pytest.mark.parametrize("make", [make_toy_scenario, load_bundled_scenario])
    @given(data=st.data())
    def test_every_solve_matches_a_direct_solve(self, make, data):
        # random offsets, repeats, pushes deeper past a plant's bound, the
        # sign of zero and NaN
        twin = CellTwin(make())
        ref = twin.run_warmup()
        bounds = twin.plant_bounds()
        n = twin.n_plants
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        seen = [rng.uniform(bounds[:, 0], bounds[:, 1])]
        moves = data.draw(st.lists(
            st.tuples(st.sampled_from(("new", "repeat", "past", "zero", "nan")),
                      st.integers(0, n - 1), st.sampled_from((0, 1)),
                      st.integers(0, 2**16)),
            min_size=1, max_size=12))
        for move, j, side, k in [("repeat", 0, 0, 0)] + moves:
            x = seen[-1].copy()
            if move == "new":
                x = rng.uniform(bounds[:, 0], bounds[:, 1])
            elif move == "repeat":
                x = seen[k % len(seen)]
            elif move == "past":
                x[j] = bounds[j, side] * (1 + k % 3)
            elif move == "zero":
                x[j] = (0.0, -0.0)[side]
            else:
                x[j] = math.nan
            seen.append(x)
            ev = twin.evaluate_dispatch(ref, x)
            want = flow_outcome(
                lambda: solve_power_flow(twin.topology, twin.injections))
            assert flow_outcome(twin.solve) == want
            if ev.failure is None:
                assert (ev.pcc_p_kw.hex(), ev.pcc_q_kvar.hex()) == want[:2]
            else:
                assert ev.failure == want[1]
            assert len(twin._solved) <= SOLVED_MAX

    def test_a_hit_counts_its_balance_error(self, monkeypatch):
        # the session's worst error goes back in place after the test
        monkeypatch.setattr(grid, "_worst_balance_error_pu",
                            grid.worst_balance_error_pu())
        twin = CellTwin(load_bundled_scenario())
        ref = twin.run_warmup()
        twin.evaluate_dispatch(ref, np.zeros(twin.n_plants))
        solves = count_solves(monkeypatch)
        reset_balance_tracker()
        res = twin.solve()
        assert solves == []
        assert res.balance_error_pu > 0.0
        assert grid.worst_balance_error_pu() == res.balance_error_pu

    def test_a_failed_solve_is_never_stored(self, monkeypatch):
        # a feeder this resistive cannot carry the warmed-up load
        data = scenario_to_dict(make_toy_scenario())
        data["topology"]["lines"][0]["r_ohm"] = 5000.0
        twin = CellTwin(scenario_from_dict(data))
        solves = count_solves(monkeypatch)
        with pytest.raises(PowerFlowError, match="voltage collapse") as first:
            twin.run_warmup()
        for calls in (2, 3):
            with pytest.raises(PowerFlowError) as again:
                twin.solve()
            assert str(again.value) == str(first.value)
            assert len(solves) == calls
        assert twin._solved == {}

    def test_the_least_recently_used_solve_is_dropped(self, monkeypatch):
        twin = CellTwin(make_toy_scenario())
        ref = twin.run_warmup()
        solves = count_solves(monkeypatch)

        def solved_anew(bes_kw):
            before = len(solves)
            twin.evaluate_dispatch(ref, [bes_kw, 0.0])
            assert len(twin._solved) <= SOLVED_MAX
            return len(solves) - before

        # (a zero offset would repeat the warmed-up injections)
        kw = [0.01 * k for k in range(1, SOLVED_MAX + 11)]
        assert [solved_anew(p) for p in kw] == [1] * len(kw)
        assert len(twin._solved) == SOLVED_MAX
        assert solved_anew(kw[10]) == 0     # the oldest kept, now the newest
        assert solved_anew(kw[9]) == 1      # dropped; storing it drops kw[11]
        assert solved_anew(kw[10]) == 0
        assert solved_anew(kw[11]) == 1

    def test_a_move_that_changes_no_power_solves_nothing(self, monkeypatch):
        # the EV charges at rated power, so a Nelder-Mead vertex that pushes
        # its offset up re-integrates it, leaves every bus injection as it
        # was and solves no power flow
        twin = CellTwin(load_bundled_scenario())
        ref = twin.run_warmup()
        j = twin.plant_labels.index("bev:p02.0")
        assert ref.plant_values[j] == twin._plants[j].params.p_rated_kw
        x = np.full(twin.n_plants, 0.1)
        x[j] = 0.0
        solves = count_solves(monkeypatch)
        at_rest = twin.evaluate_dispatch(ref, x)
        assert len(solves) == 1
        for push in (1.0, 3.0):
            x[j] = push
            assert result_bits(twin.evaluate_dispatch(ref, x)) \
                == result_bits(at_rest)
            assert len(solves) == 1


@st.composite
def small_cells(draw, max_plants=12):
    """Scenario dicts built like ``make_toy_scenario``: one to three
    prosumers on a stub feeder, each with a battery, a heat pump and a PV
    inverter or not, and up to three EVs with a trip each spread over them,
    two to `max_plants` controllable plants in all, every value inside
    ``scenario.schema.json``.  So a cell holds up to three plants of a
    class, which the warmup steps in one class call.  Power limits and SOCs
    stay off zero and full, so that a plant can answer its offset;
    otherwise a coupling between plants would rarely show."""
    n_pro = draw(st.integers(1, 3))
    owned = {kind: draw(st.sets(st.integers(0, n_pro - 1)))
             for kind in ("bes", "ehp", "pv")}
    ev_owners = draw(st.lists(st.integers(0, n_pro - 1), max_size=3))
    assume(2 <= sum(map(len, owned.values())) + len(ev_owners) <= max_plants)
    prosumers = []
    for k in range(n_pro):
        kinds_here = {kind for kind, owners in owned.items() if k in owners}
        pro = {"id": f"p{k}", "bus": f"h{k}", "bevs": [], "household": {
            "p_base_kw": draw(st.floats(0.0, 2.0)),
            "p_morning_kw": draw(st.floats(0.0, 2.0)),
            "p_evening_kw": draw(st.floats(0.0, 2.0)),
            "tan_phi": draw(st.floats(0.0, 0.5)),
            "heat_ua_kw_per_k": draw(st.floats(0.0, 0.2)),
            "heat_base_kw": draw(st.floats(0.0, 1.0))}}
        if "pv" in kinds_here:
            pro["pv"] = {"s_rated_kva": draw(st.floats(0.5, 10.0)),
                         "p_peak_kwp": draw(st.floats(0.0, 10.0)),
                         "q_fraction_limit": draw(st.floats(0.05, 1.0))}
        if "bes" in kinds_here:
            pro["bes"] = {"capacity_kwh": draw(st.floats(0.5, 20.0)),
                          "p_max_charge_kw": draw(st.floats(0.5, 6.0)),
                          "p_max_discharge_kw": draw(st.floats(0.5, 6.0)),
                          "soc0": draw(st.floats(0.05, 0.95)),
                          "time_constant_s": draw(st.floats(0.5, 10.0))}
        if "ehp" in kinds_here:
            t_on = draw(st.floats(35.0, 45.0))
            pro["ehp"] = {"p_el_max_kw": draw(st.floats(0.5, 5.0)),
                          "p_element_kw": draw(st.floats(0.0, 6.0)),
                          "storage_kwh_per_k": draw(st.floats(0.1, 1.0)),
                          "t_on_c": t_on,
                          "t_off_c": t_on + draw(st.floats(1.0, 5.0)),
                          "t0_c": draw(st.floats(35.0, 90.0)),
                          "heating0": draw(st.booleans())}
        for _ in range(ev_owners.count(k)):
            depart = draw(st.floats(0.0, 22.0))
            pro["bevs"].append({
                "capacity_kwh": draw(st.floats(10.0, 80.0)),
                "p_rated_kw": draw(st.floats(1.0, 11.0)),
                "v2g": draw(st.booleans()),
                "soc0": draw(st.floats(0.0, 1.0)),
                "trips": [{"depart_hour": depart,
                           "return_hour": depart + draw(st.floats(0.5, 2.0)),
                           "energy_kwh": draw(st.floats(0.0, 10.0))}]})
        prosumers.append(pro)
    r_ohm = draw(st.lists(st.floats(0.005, 0.1), min_size=n_pro, max_size=n_pro))
    return {
        "name": "generated",
        "topology": {
            "pcc_bus": "pcc",
            "transformer_kva": 100.0,
            "buses": [{"id": "pcc"}] + [{"id": f"h{k}"} for k in range(n_pro)],
            "lines": [{"from": "pcc", "to": f"h{k}", "r_ohm": r,
                       "x_ohm": 0.4 * r, "i_max_a": 270.0}
                      for k, r in enumerate(r_ohm)],
        },
        "weather": {
            "ambient_mean_c": draw(st.floats(-10.0, 20.0)),
            "ambient_swing_c": draw(st.floats(0.0, 6.0)),
            "irradiance_peak_w_m2": draw(st.floats(0.0, 1000.0)),
            "sunrise_hour": 8.0,
            "sunset_hour": 16.0,
        },
        "simulation": {
            "start": f"2023-01-16T{draw(st.integers(0, 23)):02d}:00:00",
            "internal_dt_s": draw(st.sampled_from([1.0, 5.0, 15.0])),
            "dispatch_step_s": 15.0,
            "warmup_s": 7200.0,
            "profile_back_days": 1.0,
            "profile_forward_days": 1.0,
        },
        "prosumers": prosumers,
    }


@st.composite
def radial_cells(draw):
    """``small_cells`` moved onto a random radial tree: one or two junction
    buses below the PCC, zero to two more anywhere below those, and every
    prosumer bus at depth two or more; no junction carries a prosumer.  The
    ``buses`` list is shuffled, and rotated by one where the shuffle leaves
    every prosumer's bus at its prosumer's index, so that bus order never
    matches prosumer order.  Half the cells take a coarse substep, of one or
    two per dispatch step, whose warmup ends in a shorter block: 7200 s is
    8 x 22 + 4 substeps of 40 s, 8 x 18 + 6 of 48 s, 8 x 11 + 2 of 80 s or
    8 x 9 + 3 of 96 s."""
    cell = draw(small_cells())
    if draw(st.booleans()):
        dt = draw(st.sampled_from([40.0, 48.0, 80.0, 96.0]))
        cell["simulation"].update(internal_dt_s=dt,
                                  dispatch_step_s=dt * draw(st.sampled_from([1, 2])))
    n_pro = len(cell["prosumers"])
    placed = [f"j{k}" for k in range(draw(st.integers(1, 2)))]
    lines = [("pcc", bus) for bus in placed]
    extra = [f"j{k}" for k in range(len(placed), len(placed) + draw(st.integers(0, 2)))]
    for bus in draw(st.permutations(extra + [f"h{k}" for k in range(n_pro)])):
        lines.append((placed[draw(st.integers(0, len(placed) - 1))], bus))
        placed.append(bus)
    buses = draw(st.permutations(["pcc"] + placed))
    if all(buses.index(f"h{k}") == k for k in range(n_pro)):
        buses = buses[1:] + buses[:1]
    cell["topology"]["buses"] = [{"id": bus} for bus in buses]
    cell["topology"]["lines"] = [
        {"from": a, "to": b, "r_ohm": r, "x_ohm": 0.4 * r, "i_max_a": 270.0}
        for (a, b), r in zip(lines, draw(st.lists(
            st.floats(0.005, 0.05), min_size=len(lines), max_size=len(lines))))]
    return cell


def _state_bits(states):
    return [np.array(state, dtype=float).tobytes() for state in states]


class TestGeneratedCells:
    @given(cell=small_cells(), seed=st.integers(0, 2**32 - 1))
    def test_each_plant_depends_only_on_its_own_offset(self, cell, seed):
        # changing every other coordinate leaves plant j's value and state
        # bit-equal, and the evaluation of x right after x1, which keeps
        # plant j, matches a full re-integration of x
        twin = CellTwin(scenario_from_dict(cell))
        ref = twin.run_warmup()
        bounds = twin.plant_bounds()
        rng = np.random.default_rng(seed)

        def integrated(x):
            twin.restore(ref.snapshot)      # re-integrates every plant
            ev = twin.evaluate_dispatch(ref, x)
            return ev.plant_values, _state_bits(twin.snapshot()[1])

        for j in range(twin.n_plants):
            for x1, x in rng.uniform(bounds[:, 0], bounds[:, 1],
                                     size=(3, 2, twin.n_plants)):
                x[j] = x1[j]
                values1, states1 = integrated(x1)
                kept = twin.evaluate_dispatch(ref, x).plant_values
                kept_states = _state_bits(twin.snapshot()[1])
                values, states = integrated(x)
                label = twin.plant_labels[j]
                assert values[j].tobytes() == values1[j].tobytes(), label
                assert states[j] == states1[j], label
                assert kept.tobytes() == values.tobytes(), label
                assert kept_states == states, label


def check_probes(scenario, rng):
    """Probe every plant of `scenario` from a random base and check each row
    against a full evaluation; then check that the evaluations right after
    the probe match full ones too."""
    twin = CellTwin(scenario)
    ref = twin.run_warmup()
    bounds = twin.plant_bounds()
    full = CellTwin(scenario)
    slack = [b.id for b in twin.topology.buses].index(twin.topology.pcc_bus)

    def integrated(x):
        full.restore(ref.snapshot)          # re-integrates every plant
        ev = full.evaluate_dispatch(ref, x)
        return ev, np.array(full.injections, dtype=float).reshape(-1, 2)

    for i in range(twin.n_plants):
        base = rng.uniform(bounds[:, 0], bounds[:, 1])
        lo, hi = bounds[i]
        # a repeat, a zero and its sign, past the bound, then off the grid
        values = [lo, lo, 0.0, -0.0, hi, 2.0 * hi, rng.uniform(lo, hi)]
        n_evaluations = twin.n_evaluations
        got_values, got_inj = twin.probe_plant(ref, base, i, values)
        label = twin.plant_labels[i]
        assert twin.n_evaluations == n_evaluations
        assert got_inj.shape == (len(values), len(twin.topology.buses), 2)
        assert not got_inj[:, slack].any()
        for value, got, inj in zip(values, got_values, got_inj):
            x = base.copy()
            x[i] = value
            ev, want_inj = integrated(x)
            assert got.tobytes() == ev.plant_values[i].tobytes(), (label, value)
            assert inj.tobytes() == want_inj.tobytes(), (label, value)
        # right after the probe, the base re-steps plant i alone; then the
        # probe's last point re-steps it again, and a random point that
        # keeps plant i re-steps the others
        last = base.copy()
        last[i] = values[-1]
        other = rng.uniform(bounds[:, 0], bounds[:, 1])
        other[i] = last[i]
        for x in (base, last, other):
            want = fingerprint(integrated(x)[0]), repr(full.snapshot())
            assert evaluated(twin, ref, x) == want, label


class TestProbePlant:
    """``probe_plant`` reads what the evaluations it stands for would, and
    leaves the twin where the next evaluation's skip rule expects it."""

    @pytest.mark.parametrize("make", [make_toy_scenario, load_bundled_scenario])
    def test_rows_match_full_evaluations(self, make):
        check_probes(make(), np.random.default_rng(11))

    @given(cell=small_cells(), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_full_evaluations_on_generated_cells(self, cell, seed):
        check_probes(scenario_from_dict(cell), np.random.default_rng(seed))


def read_plant_values(twin):
    """Each plant's value read from the plant itself, by its label: Q of an
    inverter, P of the others."""
    by_id = {pro.id: pro for pro in twin.prosumers}
    values = []
    for label in twin.plant_labels:
        cls, where = label.split(":")
        pro = by_id[where.split(".")[0]]
        if cls == "bev":
            values.append(pro.bevs[int(where.split(".")[1])].p_kw)
        elif cls == "inv":
            values.append(pro.pv.q_kvar)
        else:
            values.append(getattr(pro, cls).p_kw)
    return np.array(values, dtype=float)


_OFFSET_MOVES = ("same", "one", "all", "zero", "nan")


class TestHandedOutValues:
    """The twin's plant values follow its plants, and an array it has
    handed out never changes.

    Any sequence of the calls that move plant state is drawn; after each,
    ``plant_values()`` must equal a read of every plant's attribute, and
    every ``ref.plant_values``, ``EvaluationResult.plant_values``,
    ``plant_values()`` and probe array returned so far must keep its bytes.
    """

    @pytest.mark.parametrize("make", [make_toy_scenario, load_bundled_scenario])
    @given(data=st.data())
    def test_any_sequence_of_calls(self, make, data):
        twin = CellTwin(make())
        refs = [twin.run_warmup()]
        bounds = twin.plant_bounds()
        x = np.zeros(twin.n_plants)
        handed_out = []

        def hand_out(*arrays):
            handed_out.extend((a, a.tobytes()) for a in arrays)

        def offsets():
            nonlocal x
            move = data.draw(st.sampled_from(_OFFSET_MOVES), label="move")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            j = rng.integers(twin.n_plants)
            x = x.copy()
            if move == "one":
                x[j] = rng.uniform(*bounds[j])
            elif move == "all":
                x = rng.uniform(bounds[:, 0], bounds[:, 1])
            elif move == "zero":
                x[j] = (0.0, -0.0)[int(rng.integers(2))]
            elif move == "nan":
                x[j] = math.nan
            return x

        hand_out(refs[0].plant_values, twin.plant_values())
        calls = data.draw(st.lists(st.sampled_from(
            ("evaluate", "probe", "advance", "restore", "override",
             "capture")), min_size=1, max_size=12), label="calls")
        for call in calls:
            ref = data.draw(st.sampled_from(refs), label="ref")
            if call == "evaluate":
                hand_out(twin.evaluate_dispatch(ref, offsets()).plant_values)
            elif call == "probe":
                i = data.draw(st.integers(0, twin.n_plants - 1), label="plant")
                values = data.draw(st.lists(st.sampled_from(
                    (bounds[i, 0], 0.0, -0.0, bounds[i, 1], 0.5)),
                    min_size=1, max_size=3), label="values")
                hand_out(*twin.probe_plant(ref, offsets(), i, values))
            elif call == "advance":
                try:
                    new_ref, ev = twin.advance_reference(ref, offsets())
                except PowerFlowError:
                    pass
                else:
                    refs.append(new_ref)
                    hand_out(ev.plant_values)
            elif call == "restore":
                twin.restore(ref.snapshot)
            elif call == "override":
                twin.override_bes_soc(data.draw(st.sampled_from((0.0, 0.04, 1.0))))
            else:
                try:
                    refs.append(twin.capture_reference())
                except PowerFlowError:
                    pass
                else:
                    hand_out(refs[-1].plant_values)
            values = twin.plant_values()
            assert values.tobytes() == read_plant_values(twin).tobytes(), call
            hand_out(values)
            for array, bits in handed_out:
                assert array.tobytes() == bits, call


class TestCommit:
    def test_advance_keeps_frozen_baseline(self, toy):
        twin, ref = toy
        new_ref, ev = twin.advance_reference(ref, np.zeros(2))
        assert new_ref.t_s == ref.t_s + 15.0
        assert new_ref.plant_values is ref.plant_values
        assert new_ref.pcc_p_kw == ref.pcc_p_kw
        assert new_ref.pcc_q_kvar == ref.pcc_q_kvar
        assert ev.failure is None

    def test_advance_raises_on_network_collapse(self):
        twin = CellTwin(weak_feeder_scenario())
        ref = twin.run_warmup()
        with pytest.raises(PowerFlowError, match="committing step"):
            twin.advance_reference(ref, np.array([120.0]))

    def test_collapse_evaluation_reports_failure(self):
        twin = CellTwin(weak_feeder_scenario())
        ref = twin.run_warmup()
        ev = twin.evaluate_dispatch(ref, np.array([120.0]))
        assert ev.failure is not None
        assert not ev.feasible
        assert ev.n_violations == len(twin.topology.lines)


    @pytest.mark.parametrize("offsets", [[math.nan, 0.0], [0.0, math.nan]])
    def test_nan_offset_reports_failure(self, offsets):
        # a NaN offset reaches the power flow, which must not call it solved
        twin = CellTwin(make_toy_scenario())
        ref = twin.run_warmup()
        zero = fingerprint(twin.evaluate_dispatch(ref, np.zeros(2)))
        ev = twin.evaluate_dispatch(ref, offsets)
        assert ev.failure is not None
        assert ev.feasible is False
        assert fingerprint(twin.evaluate_dispatch(ref, np.zeros(2))) == zero

class TestWarmup:
    def test_warmup_is_deterministic(self):
        refs = []
        for _ in range(2):
            twin = CellTwin(make_toy_scenario())
            refs.append(twin.run_warmup())
        assert refs[0].pcc_p_kw == refs[1].pcc_p_kw
        assert refs[0].pcc_q_kvar == refs[1].pcc_q_kvar
        assert np.array_equal(refs[0].plant_values, refs[1].plant_values)

    def test_warmup_ends_at_time_zero(self, toy):
        _, ref = toy
        assert ref.t_s == 0.0

    @staticmethod
    def toy_warming_up_for(warmup_s):
        """The toy cell with its scenario's ``simulation.warmup_s`` set."""
        data = scenario_to_dict(make_toy_scenario())
        data["simulation"]["warmup_s"] = warmup_s
        return scenario_from_dict(data)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="> 0"):
            self.toy_warming_up_for(-1.0)

    def test_zero_duration_rejected(self):
        # nothing would be integrated, so the reference PCC would read 0 kW
        with pytest.raises(ConfigurationError,
                           match=r"simulation\.warmup_s: must be > 0, got 0"):
            self.toy_warming_up_for(0.0)

    def test_nan_duration_rejected(self):
        # NaN fails every comparison, so it must not skip the warmup silently
        with pytest.raises(ConfigurationError,
                           match="expected a finite number, got nan"):
            self.toy_warming_up_for(float("nan"))

    def test_warmup_beyond_profile_window_rejected_before_integrating(self):
        # the toy cell's profiles reach one day back; the loader refuses the
        # scenario, so no twin is built and nothing is integrated
        with pytest.raises(ConfigurationError,
                           match=r"warmup_s: exceeds the covered profile window "
                                 r"\(profile_back_days\)"):
            self.toy_warming_up_for(1.5 * 86400.0)
        twin = CellTwin(self.toy_warming_up_for(86400.0))
        assert twin.run_warmup().t_s == 0.0

    def test_warmup_off_the_substep_grid_rejected_before_integrating(self):
        # refused by the loader, before any twin is built
        with pytest.raises(ConfigurationError,
                           match="3600.5 s is not a whole number of 15 s"):
            self.toy_warming_up_for(3600.5)

    def test_coarse_internal_step_warms_up_in_whole_substeps(self, monkeypatch):
        # 40 s substeps: 22 of them (880 s) per block, 180 in the 7200 s
        # warmup; the toy cell's battery, plus a heat pump and an EV.  Each
        # class is stepped in one class call over the whole schedule, and
        # no plant steps on its own but the PV inverter, once
        data = scenario_to_dict(make_toy_scenario())
        data["simulation"].update(internal_dt_s=40.0, dispatch_step_s=40.0)
        data["prosumers"][0]["ehp"] = {"p_el_max_kw": 3.0, "p_element_kw": 5.0,
                                       "storage_kwh_per_k": 0.4}
        data["prosumers"][0]["bevs"] = [{"capacity_kwh": 40.0,
                                         "p_rated_kw": 3.7}]
        twin = CellTwin(scenario_from_dict(data))
        schedules, steps = [], []

        def recording(step_class):
            def record(plants, inputs, counts, shared, dt):
                schedules.append((type(plants[0]).__name__, len(plants),
                                  counts, dt))
                return step_class(plants, inputs, counts, shared, dt)
            return record

        for name in ("step_stores", "step_heat_pumps"):
            monkeypatch.setattr(twin_module, name,
                                recording(getattr(twin_module, name)))
        for cls in (BatteryStorage, HeatPumpSystem, ElectricVehicle,
                    PvInverter):
            def counting(plant, *args, _step=cls.step):
                steps.append(type(plant).__name__)
                return _step(plant, *args)
            monkeypatch.setattr(cls, "step", counting)
        assert twin.run_warmup().t_s == 0.0
        assert sorted(schedules) == [
            (name, 1, (22,) * 8 + (4,), 40.0)
            for name in ("BatteryStorage", "ElectricVehicle", "HeatPumpSystem")]
        assert steps == ["PvInverter"]

    def test_override_bes_soc(self):
        twin = CellTwin(make_toy_scenario())
        ref = twin.run_warmup()
        twin.override_bes_soc(0.04)
        ref = twin.capture_reference()
        _, ev = twin.advance_reference(ref, np.zeros(2))
        assert ev.trace["bes_soc"][0] <= 0.05

    @pytest.mark.parametrize("soc", [-0.01, 1.5])
    def test_override_bes_soc_outside_unit_interval_rejected(self, soc):
        twin = CellTwin(make_toy_scenario())
        twin.run_warmup()
        soc_before = twin.prosumers[0].bes.soc
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            twin.override_bes_soc(soc)
        assert twin.prosumers[0].bes.soc == soc_before


@pytest.fixture(scope="module")
def traced(bundled):
    twin, ref = bundled
    _, ev = twin.advance_reference(ref, np.zeros(twin.n_plants))
    return twin, ev


class TestEvConnectionTrace:
    def test_connection_is_read_where_the_last_substep_started(self):
        # toy cell plus an EV that leaves at 20:15, 900 s after the start:
        # the step ending at t=900 still charged through its last substep
        data = scenario_to_dict(make_toy_scenario())
        data["prosumers"][0]["bevs"] = [{
            "capacity_kwh": 40.0, "p_rated_kw": 3.7, "soc0": 0.5,
            "trips": [{"depart_hour": 20.25, "return_hour": 22.0,
                       "energy_kwh": 5.0}],
        }]
        twin = CellTwin(scenario_from_dict(data))
        ref = twin.run_warmup()
        rows = {}
        while ref.t_s < 915.0:
            ref, ev = twin.advance_reference(ref, np.zeros(twin.n_plants))
            rows[ev.trace["t_s"]] = ev.trace
        assert rows[900.0]["bev_connected"] == (True,)
        assert rows[900.0]["bev_p_kw"] == (3.7,)
        assert rows[915.0]["bev_connected"] == (False,)
        assert rows[915.0]["bev_p_kw"] == (0.0,)


class TestBundledTrace:
    def test_evening_bev_presence(self, traced):
        _, ev = traced
        connected = ev.trace["bev_connected"]
        assert len(connected) == 18
        assert sum(connected) == 14

    def test_disconnected_bevs_draw_nothing(self, traced):
        _, ev = traced
        for conn, p in zip(ev.trace["bev_connected"], ev.trace["bev_p_kw"]):
            if not conn:
                assert p == 0.0

    def test_network_state_is_healthy(self, traced):
        _, ev = traced
        assert ev.feasible
        assert 0.9 < ev.trace["v_min_pu"] < 1.0
        assert ev.trace["line_loading_max"] < 1.0

    def test_thermal_states_inside_band(self, traced):
        _, ev = traced
        for t in ev.trace["ehp_t_c"]:
            assert 35.0 <= t <= 90.0
