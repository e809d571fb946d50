"""The shortcuts of the evaluation path change no output byte.

Each study runs twice, once on the package's ``CellTwin`` (compiled plant
loops and sweep, stale-plant and prosumer skip, power-flow memo) and once on
``PlainTwin`` (Python reference loops and sweep, every plant and every power
flow each time), passed in as the study's twin.  The two runs' results must
match at full precision and their output files byte for byte: a few steps of
both acceptance requests, a short temperature panel, the toy oracle problem
and its dispatch, and two steps on generated radial feeders.  The warmup
reference is compared at full precision too.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellflex.dispatch import dispatch_on, temperature_panel
from cellflex.optimizer import (BasinHoppingConfig, FlexibilityRequest,
                                NelderMeadSettings)
from cellflex.oracle import make_toy_scenario, oracle_on
from cellflex.reporting import (write_dispatch_csv, write_iterations_csv,
                                write_panel, write_summary_json)
from cellflex.scenario import (load_bundled_scenario, scenario_from_dict,
                               scenario_to_dict)
from cellflex.twin import CellTwin
from test_twin import radial_cells
from twin_reference import PlainTwin, bits

TWINS = {"real": CellTwin, "plain": PlainTwin}
DISPATCHES = {
    # acceptance 1's request, seed and search budget
    "gain": dict(request=FlexibilityRequest(5.0, 1.0), n_steps=3,
                 config=BasinHoppingConfig(seed=42)),
    # acceptance 2's: almost-empty batteries, 30 Basin Hopping iterations
    "reduction": dict(request=FlexibilityRequest(-5.0, -1.0), n_steps=3,
                      config=BasinHoppingConfig(seed=77, n_iter=30),
                      initial_bes_soc=0.04),
}
# acceptance 6's panel, cut to two temperatures, two seeds, 3 iterations
PANEL = dict(request=FlexibilityRequest(28.0, 1.0), temperatures=[0.0, 10.0],
             seeds=[5, 11],
             config=BasinHoppingConfig(n_iter=3, step_size=4.0,
                                       nm=NelderMeadSettings(maxfev=45)))


def written_dispatch(run, out):
    """The bytes of the files ``cellflex dispatch`` writes for ``run``."""
    out.mkdir()
    for write, name in ((write_dispatch_csv, "dispatch.csv"),
                        (write_iterations_csv, "iterations.csv"),
                        (write_summary_json, "summary.json")):
        write(run, out / name)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def dispatched(scenario, request, out, **kwargs):
    """Each twin's dispatch run and written files, by twin."""
    runs = {name: dispatch_on(cls(scenario), request, **kwargs)
            for name, cls in TWINS.items()}
    return {name: (bits(run), written_dispatch(run, out / name))
            for name, run in runs.items()}


@pytest.mark.parametrize("request_", sorted(DISPATCHES))
def test_dispatch_outputs_match_the_plain_twin(request_, tmp_path):
    outputs = dispatched(load_bundled_scenario(), out=tmp_path,
                         **DISPATCHES[request_])
    assert outputs["plain"] == outputs["real"]


def test_temperature_panel_matches_the_plain_twin(tmp_path):
    outputs = {}
    for name, cls in TWINS.items():
        means, results = temperature_panel(cls(load_bundled_scenario()),
                                           **PANEL)
        out = tmp_path / name
        out.mkdir()
        summary = write_panel(PANEL["temperatures"], PANEL["seeds"], means,
                              results, out)
        outputs[name] = (bits((means, results)), summary,
                         {path.name: path.read_bytes()
                          for path in out.iterdir()})
    assert outputs["plain"] == outputs["real"]


def test_oracle_and_its_dispatch_match_the_plain_twin():
    # the oracle command's problem: both searches on one toy twin
    request = FlexibilityRequest(1.0, 0.3)
    outputs = {}
    for name, cls in TWINS.items():
        twin = cls(make_toy_scenario())
        outputs[name] = bits((
            oracle_on(twin, request),
            dispatch_on(twin, request, n_steps=1,
                        config=BasinHoppingConfig(n_iter=30, seed=2))))
    assert outputs["plain"] == outputs["real"]


def warmed_up(twin):
    """The reference a warmup of `twin` captures and everything it leaves on
    the twin, its prosumers and its plants, at full precision: all but the
    sampled inputs, which the twin holds for all blocks and the plain twin
    for the last.  Then the same after one dispatch interval from the
    reference, which must sample its own inputs."""
    def plants():
        return [{name: getattr(plant, name)
                 for cls in type(plant).__mro__
                 for name in getattr(cls, "__slots__", ())}
                for plant in twin._plants]

    ref = twin.run_warmup()
    prosumers = [{name: getattr(pro, name)
                  for name in ("load_p", "load_q", "p_base", "q_base")}
                 for pro in twin.prosumers]
    warm = repr((ref.snapshot, ref.plant_values.tolist(), ref.pcc_p_kw,
                 ref.pcc_q_kvar, twin.t_s, twin._irr, twin._last_substep_tod,
                 twin._end_of, twin.injections, twin._values.tolist(),
                 prosumers, plants()))
    twin.step_dispatch_interval()
    return warm + repr((twin.t_s, plants(), twin.injections,
                        twin._values.tolist(), twin._last_substep_tod))


def bundled_from_noon():
    """The bundled cell starting at noon, so the warmup's first and last
    blocks see different daylight irradiance."""
    data = scenario_to_dict(load_bundled_scenario())
    data["simulation"]["start"] = "2023-01-16T12:00:00"
    return scenario_from_dict(data)


@pytest.mark.parametrize(
    "make", [load_bundled_scenario, bundled_from_noon, make_toy_scenario])
def test_warmup_reference_matches_the_plain_twin(make):
    assert warmed_up(CellTwin(make())) == warmed_up(PlainTwin(make()))


class TestRadialFeeders:
    """Generated cells on random radial feeders, where junction buses carry
    no prosumer and bus order differs from prosumer order, some on coarse
    substeps whose warmup ends in a shorter block."""

    @given(cell=radial_cells())
    def test_warmup_matches_the_plain_twin(self, cell):
        scenario = scenario_from_dict(cell)
        assert warmed_up(CellTwin(scenario)) == warmed_up(PlainTwin(scenario))

    @given(cell=radial_cells(), dp=st.floats(-3.0, 3.0),
           dq=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
    def test_dispatch_outputs_match_the_plain_twin(self, cell, dp, dq, seed):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = dispatched(
                scenario_from_dict(cell), FlexibilityRequest(dp, dq),
                Path(tmp), n_steps=2,
                config=BasinHoppingConfig(n_iter=3, seed=seed))
        assert outputs["plain"] == outputs["real"]
