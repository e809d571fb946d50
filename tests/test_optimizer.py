"""Objective, Metropolis rule, step adaptation, Nelder-Mead, Basin Hopping."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import optimizer_reference as reference

import cellflex
from cellflex.dispatch import (
    EUR_PER_UNIT,
    K_INFEASIBLE,
    K_PCC_P,
    K_PCC_Q,
    StepObjective,
    objective_breakdown,
)
from cellflex.errors import ConfigurationError
from cellflex.optimizer import (
    PCG64,
    BasinHoppingConfig,
    FlexibilityRequest,
    NelderMeadSettings,
    adapt_step_size,
    basin_hopping,
    metropolis_accept,
    nelder_mead,
)
from cellflex.scenario import load_bundled_scenario
from cellflex.twin import CellTwin


class TestCostTable:
    """The fixed cost weights of the dispatch objective."""

    def test_default_weights(self):
        assert K_PCC_P == K_PCC_Q == pytest.approx(2.78e-2)
        assert K_INFEASIBLE == 10.0
        assert EUR_PER_UNIT == 0.1
        twin = CellTwin(load_bundled_scenario())
        ref = twin.run_warmup()
        f = StepObjective(twin, ref, FlexibilityRequest(5.0, 1.0))
        assert f.collapse_of == K_INFEASIBLE * (len(twin.topology.lines) + 1)
        ev = twin.evaluate_dispatch(ref, np.full(twin.n_plants, 0.5))
        bd = f.breakdown(ev)
        assert bd.plant_cost > 0.0
        assert bd.cost_eur == EUR_PER_UNIT * bd.plant_cost

    def test_weights_for_classes(self):
        twin = CellTwin(load_bundled_scenario())
        f = StepObjective(twin, twin.run_warmup(), FlexibilityRequest(5.0, 1.0))
        k = {"bes": 2.78e-4, "inv": 1.38e-4, "ehp": 7.92e-3,
             "bev_v1g": 5.56e-4, "bev_v2g": 9.72e-4}
        assert set(twin.plant_classes) == set(k)
        assert f.weights.tolist() == [k[c] for c in twin.plant_classes]


class TestObjectiveBreakdown:
    def test_hand_computed_terms(self):
        bd = objective_breakdown(
            values=np.array([1.5, -1.0]), ref_values=np.array([0.5, 1.0]),
            weights=np.array([2.78e-4, 9.72e-4]),
            dp_err_kw=0.5, dq_err_kvar=-0.25, n_violations=2)
        plant = 1.0 * 2.78e-4 + 2.0 * 9.72e-4
        pcc = 2.78e-2 * 0.5 + 2.78e-2 * 0.25
        assert bd.plant_cost == pytest.approx(plant)
        assert bd.pcc_cost == pytest.approx(pcc)
        assert bd.penalty == pytest.approx(20.0)
        assert bd.of == pytest.approx(plant + pcc + 20.0)
        assert bd.cost_eur == pytest.approx(plant * 0.1)

    def test_zero_everything(self):
        one = np.ones(3)
        bd = objective_breakdown(one, one, one, 0.0, 0.0, 0)
        assert bd.of == 0.0 and bd.cost_eur == 0.0

    @given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64),
                              st.floats(0.0, 1.0)), max_size=40))
    def test_plant_cost_adds_the_plants_left_to_right(self, terms):
        # the sum's order is fixed, not left to a BLAS kernel
        want = 0.0
        for value, ref, weight in terms:
            want += abs(value - ref) * weight
        columns = np.array(terms, dtype=float).reshape(-1, 3).T.copy()
        bd = objective_breakdown(*columns, 0.0, 0.0, 0)
        assert bd.plant_cost.hex() == want.hex()

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_of_depends_on_error_magnitudes_only(self, dp, dq):
        zero = np.zeros(1)
        a = objective_breakdown(zero, zero, zero, dp, dq, 0)
        b = objective_breakdown(zero, zero, zero, -dp, -dq, 0)
        assert a.of == pytest.approx(b.of)
        assert a.of >= 0.0


# (size k, scale s) of the draws uniform(-s, s, size=k); each is followed by
# a random()
DRAWS = [(k, s) for k in (0, 1, 38, 100) for s in (1e-300, 0.25, 3.7)]


def stream_bits(rng, draws):
    """The bits ``rng`` draws for ``draws``: each uniform vector as uint64
    words, each random() as float.hex."""
    bits = []
    for k, s in draws:
        bits.append(rng.uniform(-s, s, size=k).view(np.uint64).tolist())
        bits.append(rng.random().hex())
    return bits


class TestPCG64:
    """The stream draws the bits numpy.random.default_rng draws from the
    same seed."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32, 2**64 + 3, 10**30])
    def test_fixed_seeds(self, seed):
        assert stream_bits(PCG64(seed), DRAWS) == \
            stream_bits(np.random.default_rng(seed), DRAWS)

    @given(seed=st.integers(0, 2**130),
           draws=st.lists(st.sampled_from(DRAWS), max_size=12))
    def test_any_seed(self, seed, draws):
        assert stream_bits(PCG64(seed), draws) == \
            stream_bits(np.random.default_rng(seed), draws)

    def test_unseeded_stream_seeds_from_16_bytes_of_urandom(self, monkeypatch):
        entropy = bytes(range(7, 23))
        requested = []

        def urandom(n):
            requested.append(n)
            return entropy[:n]

        monkeypatch.setattr(os, "urandom", urandom)
        rng = PCG64()
        assert requested == [16]
        assert stream_bits(rng, DRAWS) == stream_bits(
            np.random.default_rng(int.from_bytes(entropy, "little")), DRAWS)

    def test_range_beyond_a_float_raises_before_any_draw(self):
        rng, numpy_rng = PCG64(3), np.random.default_rng(3)
        for r in (rng, numpy_rng):
            with pytest.raises(OverflowError):
                r.uniform(-1e308, 1e308, size=2)
        assert stream_bits(rng, DRAWS) == stream_bits(numpy_rng, DRAWS)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be"):
            PCG64(seed)


# a fresh interpreter runs the snippet and prints which of these modules it
# loaded: a bare `import numpy` first, then the run
UNUSED_MODULES = ("numpy.random", "secrets", "hmac")
FRESH_RUN = """
import json, sys
import numpy
unused = {unused!r}
before = sorted(m for m in unused if m in sys.modules)
{run}
print(json.dumps([before, sorted(m for m in unused if m in sys.modules)]))
"""
RUNS = {
    "run_dispatch": (
        "from cellflex.dispatch import run_dispatch\n"
        "from cellflex.optimizer import FlexibilityRequest\n"
        "from cellflex.oracle import make_toy_scenario\n"
        "run_dispatch(make_toy_scenario(), FlexibilityRequest(1.0, 0.5), "
        "n_steps=2)"),
    "cli": (
        "from cellflex.cli import main\n"
        "assert main(['dispatch', '--dp-kw', '5', '--dq-kvar', '1', "
        "'--steps', '2', '--out', 'out']) == 0"),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_a_dispatch_run_never_imports_numpy_random(run, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(cellflex.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN.format(unused=UNUSED_MODULES, run=run)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    if before:
        pytest.skip(f"a bare import numpy loads {before}")
    assert after == []


class TestMetropolis:
    def test_improvement_always_accepted_without_draw(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert metropolis_accept(-1.0, 0.5, rng) is True
        assert metropolis_accept(0.0, 0.5, rng) is True
        assert rng.bit_generator.state == state

    def test_worsening_consumes_one_draw(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        metropolis_accept(0.3, 0.5, rng_a)
        rng_b.random()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_zero_temperature_rejects_worsening_without_draw(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert metropolis_accept(1e-12, 0.0, rng) is False
        assert rng.bit_generator.state == state

    def test_acceptance_probability_near_half(self):
        # exp(-0.3466/0.5) = 0.5000 to four decimals
        rng = np.random.default_rng(123)
        n = 20_000
        hits = sum(metropolis_accept(0.3466, 0.5, rng) for _ in range(n))
        assert 0.47 <= hits / n <= 0.53

    @given(st.floats(-100.0, 0.0), st.floats(0.0, 100.0))
    def test_non_worsening_always_accepted(self, dy, temperature):
        rng = np.random.default_rng(0)
        assert metropolis_accept(dy, temperature, rng) is True


class TestAdaptiveStep:
    def test_high_acceptance_grows_step(self):
        assert adapt_step_size(1.0, 8, 10) == pytest.approx(1.0 / 0.9)

    def test_low_acceptance_shrinks_step(self):
        assert adapt_step_size(1.0, 2, 10) == pytest.approx(0.9)

    def test_on_target_leaves_step(self):
        assert adapt_step_size(1.0, 5, 10) == 1.0

    @given(st.floats(0.01, 100.0), st.integers(0, 10))
    def test_direction_matches_rate(self, step, n_acc):
        out = adapt_step_size(step, n_acc, 10)
        if n_acc > 5:
            assert out > step
        elif n_acc < 5:
            assert out < step
        else:
            assert out == step


def plateau_objective(center, step, feasible_cut, paired):
    """A bowl around ``center`` floored to multiples of ``step`` (0: none),
    so that nearby points tie; paired, it is feasible for x[0] >= the cut."""
    def f(x):
        d = x - center
        v = float(np.sum(np.abs(d)) + 0.5 * float(d @ d))
        if step:
            v = math.floor(v / step) * step
        return (v, bool(x[0] >= feasible_cut)) if paired else v
    return f


class TestNelderMead:
    def test_quadratic_minimum(self):
        f = lambda x: float((x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2)
        x, fx, _, _ = nelder_mead(f, np.array([0.0, 0.0]),
                                  settings=NelderMeadSettings(maxfev=200))
        assert x == pytest.approx([3.0, -1.0], abs=1e-4)
        assert fx < 1e-7

    def test_rosenbrock(self):
        f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        settings = NelderMeadSettings(fatol=1e-12, xatol=1e-10, maxfev=2000)
        x, fx, _, _ = nelder_mead(f, np.array([-1.2, 1.0]), settings=settings)
        assert x == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_bounds_clamp_minimizer(self):
        f = lambda x: float((x[0] - 5.0) ** 2)
        x, fx, _, _ = nelder_mead(f, np.array([1.0]),
                                  bounds=np.array([[0.0, 2.0]]))
        assert x[0] == pytest.approx(2.0, abs=1e-6)
        assert fx == pytest.approx(9.0, abs=1e-4)

    def test_never_worse_than_start(self):
        calls = {"n": 0}

        def nasty(x):
            calls["n"] += 1
            return 0.0 if calls["n"] == 1 else 100.0 + float(np.sum(x ** 2))

        x, fx, _, _ = nelder_mead(nasty, np.array([1.0, 2.0]),
                                  settings=NelderMeadSettings(maxfev=7))
        assert fx == 0.0
        assert np.array_equal(x, [1.0, 2.0])

    def test_respects_eval_budget(self):
        # n_evals counts every call, and (x, f) is the first strict minimum
        # over the clipped points f received
        objective = plateau_objective(np.full(4, 0.2), 0.25, 0.0, paired=False)
        bounds = np.array([[-1.0, 1.0], [-0.3, 2.0], [0.0, 0.5], [-2.0, 0.0]])
        for budget in range(1, 61):
            calls = []

            def f(x):
                calls.append(x.copy())
                return objective(x)

            x, fx, n, _ = nelder_mead(
                f, np.array([0.9, 1.9, 0.1, -1.9]), bounds=bounds, scale=0.5,
                settings=NelderMeadSettings(maxfev=budget))
            values = [objective(p) for p in calls]
            first_min = int(np.argmin(values))
            assert n == len(calls) <= budget
            assert fx == values[first_min]
            assert x.tobytes() == calls[first_min].tobytes()
            assert all(np.all((bounds[:, 0] <= p) & (p <= bounds[:, 1]))
                       for p in calls)

    def test_returns_the_flag_of_the_point_it_returns(self):
        # the lowest objective, at x = 1, is the only infeasible point; every
        # later point is worse and feasible
        calls = []

        def f(x):
            of = abs(float(x[0]) - 1.0)
            calls.append(of > 0.0)
            return of, of > 0.0

        x, fx, n, feasible = nelder_mead(
            f, np.array([0.0]), scale=1.0,
            settings=NelderMeadSettings(maxfev=10))
        assert (x.tolist(), fx, n) == ([1.0], 0.0, 10)
        assert calls == [True, False] + [True] * 8
        assert feasible is False

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ConfigurationError, match="zero-dimensional"):
            nelder_mead(lambda x: 0.0, np.array([]))

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))
    def test_result_never_above_start_value(self, x0):
        f = lambda x: float(np.sum((np.asarray(x) - 1.5) ** 2))
        x0 = np.array(x0)
        fx = nelder_mead(f, x0, settings=NelderMeadSettings(maxfev=50))[1]
        assert fx <= f(x0) + 1e-12


@st.composite
def search_problems(draw, paired=st.booleans()):
    """An objective, a start, a box and Nelder-Mead settings."""
    d = draw(st.integers(1, 6))
    coord = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    x0 = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    f = plateau_objective(center, draw(st.sampled_from([0.0, 0.1, 1.0, 1e3])),
                          draw(st.floats(-2.0, 2.0)), draw(paired))
    bounds = None
    if draw(st.booleans()):
        lo = np.array(draw(st.lists(st.floats(-3.0, 0.0), min_size=d,
                                    max_size=d)))
        width = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=d,
                                       max_size=d)))
        bounds = np.column_stack([lo, lo + width])
    nm = NelderMeadSettings(fatol=draw(st.sampled_from([0.0, 1e-9, 0.5])),
                            xatol=draw(st.sampled_from([0.0, 1e-9, 0.5])),
                            maxfev=draw(st.integers(1, 60)))
    return f, x0, bounds, nm


def recorded(f):
    """``f`` and the list of the points it is called with."""
    calls = []

    def g(x):
        calls.append(x.tobytes())
        return f(x)
    return g, calls


class TestSearchReference:
    """Nelder-Mead and Basin Hopping evaluate the same points and return
    the same bits as the reference search in ``optimizer_reference``."""

    @given(problem=search_problems(paired=st.just(False)),
           scale=st.floats(0.01, 2.0))
    def test_nelder_mead(self, problem, scale):
        f, x0, bounds, nm = problem
        runs = []
        for search in (nelder_mead, reference.nelder_mead):
            g, calls = recorded(f)
            x, fx, n = search(g, x0, bounds=bounds, scale=scale,
                              settings=nm)[:3]
            runs.append((x.tobytes(), fx.hex(), n, calls))
        assert runs[0] == runs[1]

    @given(problem=search_problems(), n_iter=st.integers(0, 8),
           temperature=st.sampled_from([0.0, 0.05, 1.0]),
           step_size=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1),
           patience=st.sampled_from([None, 1, 3]))
    # the candidate's best point lies just below the feasibility cut and
    # Nelder-Mead evaluates feasible points after it
    @example(problem=(plateau_objective(np.array([0.5]), 0.0, 0.5, True),
                      np.array([0.0]), None, NelderMeadSettings()),
             n_iter=1, temperature=0.0, step_size=1.0, seed=1, patience=None)
    def test_basin_hopping(self, problem, n_iter, temperature, step_size, seed,
                           patience):
        f, x0, bounds, nm = problem
        config = BasinHoppingConfig(temperature=temperature, n_iter=n_iter,
                                    step_size=step_size, seed=seed, nm=nm)
        runs = []
        for search in (basin_hopping, reference.basin_hopping):
            g, calls = recorded(f)
            r = search(g, x0, config, bounds=bounds, patience=patience)
            records = [(it.iteration, it.of_local.hex(), it.of_global_best.hex(),
                        it.step_size.hex(), it.accepted) for it in r.iterations]
            runs.append((r.x.tobytes(), r.of.hex(), r.feasible, r.n_evals,
                         r.n_accepted, records, calls))
        assert runs[0] == runs[1]


def double_well(x):
    """Two basins: local minimum near +2, global minimum near -2."""
    v = float(x[0])
    return (v * v - 4.0) ** 2 + 0.3 * v


class TestBasinHopping:
    def test_start_point_is_iteration_zero(self):
        evals = []

        def f(x):
            evals.append(x.copy())
            return float(np.sum(x ** 2))

        result = basin_hopping(f, np.array([1.5]),
                               BasinHoppingConfig(n_iter=0, seed=1))
        assert len(evals) == 1
        assert result.n_evals == 1
        assert len(result.iterations) == 1
        row = result.iterations[0]
        assert row.iteration == 0 and row.accepted
        assert row.of_local == pytest.approx(2.25)
        assert np.array_equal(result.x, [1.5])

    def test_escapes_local_basin(self):
        start = np.array([2.0])  # inside the shallower basin
        cfg = BasinHoppingConfig(temperature=0.5, n_iter=60, step_size=3.0,
                                 seed=4)
        result = basin_hopping(double_well, start, cfg,
                               bounds=np.array([[-4.0, 4.0]]))
        assert result.x[0] < 0.0
        assert result.of < double_well(np.array([2.0])) - 0.5

    def test_global_best_trace_is_monotone(self):
        cfg = BasinHoppingConfig(n_iter=40, seed=11)
        result = basin_hopping(double_well, np.array([0.5]), cfg,
                               bounds=np.array([[-4.0, 4.0]]))
        assert len(result.iterations) == cfg.n_iter + 1
        best = [r.of_global_best for r in result.iterations]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        assert best[-1] == pytest.approx(result.of)
        assert all(r.iteration == i for i, r in enumerate(result.iterations))

    def test_same_seed_same_run(self):
        cfg = BasinHoppingConfig(n_iter=25, seed=7)
        a = basin_hopping(double_well, np.array([1.0]), cfg)
        b = basin_hopping(double_well, np.array([1.0]), cfg)
        assert np.array_equal(a.x, b.x)
        assert a.of == b.of
        assert [(r.of_local, r.accepted) for r in a.iterations] == \
               [(r.of_local, r.accepted) for r in b.iterations]

    def test_explicit_rng_overrides_seed(self):
        cfg = BasinHoppingConfig(n_iter=15, seed=None)
        a = basin_hopping(double_well, np.array([1.0]), cfg,
                          rng=np.random.default_rng(42))
        b = basin_hopping(double_well, np.array([1.0]), cfg,
                          rng=np.random.default_rng(42))
        assert np.array_equal(a.x, b.x) and a.of == b.of

    def test_prefers_feasible_solution(self):
        # objective falls toward 0 but feasibility requires x >= 1
        def f(x):
            v = float(x[0])
            return v * v, v >= 1.0

        cfg = BasinHoppingConfig(n_iter=40, step_size=1.0, seed=2)
        result = basin_hopping(f, np.array([2.0]), cfg,
                               bounds=np.array([[-3.0, 3.0]]))
        assert result.feasible
        assert result.x[0] >= 1.0 - 1e-9
        # the raw global best it declined to return is infeasible and lower
        assert result.iterations[-1].of_global_best < result.of

    def test_infeasible_everywhere_still_returns_best(self):
        f = lambda x: (float(np.sum(x ** 2)), False)
        result = basin_hopping(f, np.array([1.0, 1.0]),
                               BasinHoppingConfig(n_iter=10, seed=3))
        assert not result.feasible
        assert result.of == pytest.approx(
            min(r.of_local for r in result.iterations))

    def test_x0_outside_bounds_is_clipped(self):
        f = lambda x: float(np.sum(x ** 2))
        result = basin_hopping(f, np.array([10.0]),
                               BasinHoppingConfig(n_iter=0, seed=1),
                               bounds=np.array([[-2.0, 2.0]]))
        assert result.iterations[0].of_local == pytest.approx(4.0)

    def test_flat_objective_grows_step_each_window(self):
        f = lambda x: 0.0  # every move is a tie -> always accepted
        cfg = BasinHoppingConfig(n_iter=20, step_size=1.0, seed=8)
        result = basin_hopping(f, np.zeros(2), cfg)
        steps = [r.step_size for r in result.iterations]
        assert steps[1] == steps[10] == 1.0
        assert steps[11] == pytest.approx(1.0 / 0.9)
        assert steps[20] == pytest.approx(1.0 / 0.9)
        assert result.acceptance_rate == 1.0

    def test_patience_stops_a_start_at_the_minimum(self):
        f = lambda x: float(np.sum(x ** 2))
        nm = NelderMeadSettings(maxfev=20)
        result = basin_hopping(f, np.zeros(3),
                               BasinHoppingConfig(n_iter=50, seed=5, nm=nm),
                               patience=4)
        # no candidate beats the start, so iterations 1-4 run and no more
        assert [r.iteration for r in result.iterations] == [0, 1, 2, 3, 4]
        assert result.of == 0.0
        assert np.array_equal(result.x, np.zeros(3))
        assert result.n_evals == 1 + 4 * nm.maxfev

    def test_no_patience_runs_every_iteration(self):
        f = lambda x: float(np.sum(x ** 2))
        cfg = BasinHoppingConfig(n_iter=12, seed=5)
        result = basin_hopping(f, np.zeros(3), cfg, patience=None)
        assert len(result.iterations) == cfg.n_iter + 1

    def test_patience_same_seed_same_records(self):
        cfg = BasinHoppingConfig(n_iter=60, seed=9)
        a = basin_hopping(double_well, np.array([2.0]), cfg, patience=3)
        b = basin_hopping(double_well, np.array([2.0]), cfg, patience=3)
        assert len(a.iterations) < cfg.n_iter + 1
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x) and a.n_evals == b.n_evals

    @pytest.mark.parametrize("patience", [0, -1, 2.5, math.nan])
    def test_patience_below_one_rejected(self, patience):
        with pytest.raises(ConfigurationError, match="patience"):
            basin_hopping(lambda x: 0.0, np.zeros(1),
                          BasinHoppingConfig(n_iter=1, seed=1),
                          patience=patience)

    def test_bounds_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="bounds shape"):
            basin_hopping(lambda x: 0.0, np.zeros(2),
                          BasinHoppingConfig(n_iter=1, seed=1),
                          bounds=np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("kwargs", [
        {"temperature": -0.1},
        {"n_iter": -1},
        {"step_size": 0.0},
        {"temperature": math.nan},
        {"step_size": math.nan},
        {"step_size": math.inf},
        {"seed": -1},
        {"seed": 1.5},
        {"nm": {"maxfev": 0}},
        {"nm": {"maxfev": -5}},
        {"nm": {"fatol": -1e-9}},
        {"nm": {"xatol": -1.0}},
        {"nm": {"fatol": math.nan}},
        {"nm": {"xatol": math.nan}},
        {"temperature": -math.inf},
        {"temperature": math.inf},
        {"n_iter": math.nan},
        {"nm": {"maxfev": math.nan}},
        {"n_iter": 2.5},
        {"nm": {"maxfev": 2.5}},
        {"n_iter": "3"},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            if "nm" in kwargs:
                kwargs = {**kwargs, "nm": NelderMeadSettings(**kwargs["nm"])}
            BasinHoppingConfig(**kwargs)

    @pytest.mark.parametrize("dp, dq", [(math.nan, 0.0), (0.0, math.nan),
                                        (math.inf, 0.0), (0.0, -math.inf),
                                        ("1", 0.0), (0.0, None)])
    def test_request_must_be_finite(self, dp, dq):
        with pytest.raises(ConfigurationError, match="must be finite"):
            FlexibilityRequest(dp, dq)

    def test_request_is_a_plain_value_pair(self):
        r = FlexibilityRequest(5.0, 1.0)
        assert (r.dp_kw, r.dq_kvar) == (5.0, 1.0)
