"""The benchmark's patch points still reach the package.

``bench/tracing.py`` wraps cellflex callables by name from outside the
package.  If a refactor renames or bypasses one of them, the benchmark's
traced metrics silently read zero; this test catches that in the unit suite
by running one evaluation under each probe: a toy dispatch for the step
clock, and a bundled-cell evaluation, which steps every plant once, for the
tracer.  A second traced evaluation that moves one battery offset checks
that an evaluation re-integrating only that plant is still seen, as exactly
one battery step.
"""

import collections

import sys
from pathlib import Path

import numpy as np

import cellflex.dispatch
from cellflex.dispatch import run_dispatch
from cellflex.optimizer import BasinHoppingConfig, FlexibilityRequest
from cellflex.oracle import make_toy_scenario
from cellflex.scenario import load_bundled_scenario
from cellflex.twin import CellTwin

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402


def test_step_clock_marks_each_dispatch_step_and_uninstalls():
    original = cellflex.dispatch.basin_hopping
    clock = tracing.StepClock()
    undo = clock.install()
    try:
        run_dispatch(make_toy_scenario(), FlexibilityRequest(1.0, 0.3),
                     n_steps=2, config=BasinHoppingConfig(n_iter=1, seed=1))
    finally:
        undo()
    assert len(clock.step_marks) == 2
    assert cellflex.dispatch.basin_hopping is original


def test_tracer_counts_every_layer_of_an_evaluation():
    twin = CellTwin(load_bundled_scenario())
    ref = twin.run_warmup()
    original = CellTwin.evaluate_dispatch
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        twin.evaluate_dispatch(ref, np.full(twin.n_plants, 0.2))
    finally:
        undo()
    assert CellTwin.evaluate_dispatch is original
    counts = {key: agg[0] for key, agg in tracer.root.agg.items()}
    counts.update({key: agg[0] for key, agg in tracer.root.inner.items()})
    for key in ("twin.evaluate", "twin.restore", "twin.integrate",
                "grid.solve"):
        assert counts.get(key, 0) >= 1, key
    # the first evaluation from a reference steps every plant once
    classes = collections.Counter(twin.plant_classes)
    plants = {"plants.bes": classes["bes"], "plants.ehp": classes["ehp"],
              "plants.bev": classes["bev_v1g"] + classes["bev_v2g"],
              "plants.pv": classes["inv"]}
    assert all(plants.values()), plants
    assert {key: counts.get(key, 0) for key in plants} == plants


def test_tracer_sees_the_plants_an_incremental_evaluation_re_integrates():
    # an evaluation that changes only a battery offset still passes through
    # restore, integration and the power flow, and steps that battery alone
    twin = CellTwin(load_bundled_scenario())
    ref = twin.run_warmup()
    x = np.full(twin.n_plants, 0.2)
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        twin.evaluate_dispatch(ref, x)
        first = {key: agg[0] for key, agg in tracer.root.inner.items()}
        x[twin.plant_classes.index("bes")] = -0.2
        twin.evaluate_dispatch(ref, x)
    finally:
        undo()
    calls = {key: agg[0] - first.get(key, 0)
             for key, agg in tracer.root.inner.items()}
    for key in ("twin.restore", "twin.integrate", "grid.solve"):
        assert calls.get(key, 0) >= 1, key
    assert calls.get("plants.bes", 0) == 1
    for key in ("plants.ehp", "plants.bev", "plants.pv"):
        assert calls.get(key, 0) == 0, key
