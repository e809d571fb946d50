"""One twin serves several studies in turn, each as a fresh twin would.

A twin warms up once and keeps the reference it captured, so the oracle,
dispatches and the temperature panel can run on one twin one after another.
Whatever a study leaves on the twin must not change a later study's result.
A twin that warmed up again would fail here: on the bundled cell a second
warmup moves the reference PCC reading from about 84.6 kW to 93.9 kW, and
on the toy cell, where the PCC reading stays as it was, it drains the
battery.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cellflex.dispatch import dispatch_on, temperature_panel
from cellflex.optimizer import BasinHoppingConfig, FlexibilityRequest
from cellflex.oracle import make_toy_scenario, oracle_on
from cellflex.scenario import load_bundled_scenario
from cellflex.twin import CellTwin
from test_plain_twin import DISPATCHES, PANEL
from twin_reference import PlainTwin, bits

BUNDLED_STUDIES = {
    "panel": lambda twin: temperature_panel(twin, **PANEL),
    "gain": lambda twin: dispatch_on(twin, **DISPATCHES["gain"]),
    "reduction": lambda twin: dispatch_on(twin, **DISPATCHES["reduction"]),
}


def oracle_then_dispatch(twin, request, seed):
    """The toy problem as ``cellflex oracle`` solves it: the grid oracle,
    then one dispatch step, on the twin given."""
    return bits((oracle_on(twin, request),
                 dispatch_on(twin, request, n_steps=1,
                             config=BasinHoppingConfig(seed=seed))))


def on_fresh_twins(twin_cls, request, seed):
    """The same two searches, each on a twin of its own."""
    return bits((oracle_on(twin_cls(make_toy_scenario()), request),
                 dispatch_on(twin_cls(make_toy_scenario()), request,
                             n_steps=1, config=BasinHoppingConfig(seed=seed))))


@pytest.mark.parametrize("twin_cls", [CellTwin, PlainTwin])
def test_one_bundled_twin_answers_as_fresh_twins(twin_cls):
    shared = twin_cls(load_bundled_scenario())
    warm = bits(shared.run_warmup())
    for name in ("panel", "gain", "reduction", "gain"):
        study = BUNDLED_STUDIES[name]
        fresh = twin_cls(load_bundled_scenario())
        assert bits(study(shared)) == bits(study(fresh)), name
    assert bits(shared.run_warmup()) == warm


@pytest.mark.parametrize("twin_cls", [CellTwin, PlainTwin])
def test_one_toy_twin_answers_the_oracle_and_a_dispatch(twin_cls):
    request = FlexibilityRequest(1.0, 0.3)
    assert oracle_then_dispatch(twin_cls(make_toy_scenario()), request, 2) \
        == on_fresh_twins(twin_cls, request, 2)


# requests from the benchmark's toy box, and its range of seeds
@example(dp=-1.5, dq=0.6, seed=0)
@given(dp=st.floats(-1.5, 1.5), dq=st.floats(-0.6, 0.6),
       seed=st.integers(0, 2**31 - 2))
def test_toy_oracle_then_dispatch_on_one_twin(dp, dq, seed):
    request = FlexibilityRequest(dp, dq)
    assert oracle_then_dispatch(CellTwin(make_toy_scenario()), request, seed) \
        == on_fresh_twins(CellTwin, request, seed)
