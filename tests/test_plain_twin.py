"""The shortcuts of the evaluation path change no output byte.

Each command runs twice, once on the package's ``CellTwin`` (compiled plant
loops and sweep, stale-plant and prosumer skip, power-flow memo) and once on
``PlainTwin`` (Python reference loops and sweep, every plant and every power
flow each time), and the two
runs' output files must match byte for byte: a few steps of both acceptance
requests, a short temperature panel, the toy oracle problem and two steps on
generated radial feeders.  The outputs print rounded floats, so
the warmup reference is compared at full precision too.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellflex.cli import main
from cellflex.oracle import make_toy_scenario
from cellflex.scenario import (load_bundled_scenario, scenario_from_dict,
                               scenario_to_dict)
from cellflex.twin import CellTwin
from test_twin import radial_cells
from twin_reference import PlainTwin, use_plain_twin

DISPATCH_FILES = ("dispatch.csv", "iterations.csv", "summary.json")
PANEL_FILES = ("sweep_summary.json", "iterations_T0.csv", "iterations_T10.csv")
COMMANDS = {
    # acceptance 1's request, seed and search budget
    "gain": ["dispatch", "--dp-kw", "5", "--dq-kvar", "1", "--steps", "3",
             "--seed", "42"],
    # acceptance 2's: almost-empty batteries, 30 Basin Hopping iterations
    "reduction": ["dispatch", "--dp-kw", "-5", "--dq-kvar", "-1", "--steps",
                  "3", "--seed", "77", "--n-iter", "30", "--bes-soc", "0.04"],
}


def dispatch_outputs(args, out):
    assert main(args + ["--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in DISPATCH_FILES}


@pytest.mark.parametrize("request_", sorted(COMMANDS))
def test_dispatch_outputs_match_the_plain_twin(request_, tmp_path, monkeypatch,
                                               capsys):
    args = COMMANDS[request_]
    real = dispatch_outputs(args, tmp_path / "real")
    use_plain_twin(monkeypatch)
    assert dispatch_outputs(args, tmp_path / "plain") == real


def test_temperature_panel_matches_the_plain_twin(tmp_path, monkeypatch,
                                                  capsys):
    # acceptance 6's panel, cut to two temperatures, two seeds, 3 iterations
    args = ["sweep-temperature", "--temperatures", "0,10", "--seeds", "5,11",
            "--n-iter", "3"]

    def outputs(out):
        assert main(args + ["--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in PANEL_FILES}

    real = outputs(tmp_path / "real")
    use_plain_twin(monkeypatch)
    assert outputs(tmp_path / "plain") == real


def test_oracle_report_matches_the_plain_twin(monkeypatch, capsys):
    args = ["oracle", "--n-iter", "30", "--seed", "2"]
    assert main(args) == 0
    real = capsys.readouterr().out
    use_plain_twin(monkeypatch)
    assert main(args) == 0
    assert capsys.readouterr().out == real


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
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            (tmp / "cell.json").write_text(json.dumps(cell))
            args = ["dispatch", "--scenario", str(tmp / "cell.json"),
                    f"--dp-kw={dp!r}", f"--dq-kvar={dq!r}", "--steps", "2",
                    "--n-iter", "3", "--seed", str(seed)]
            real = dispatch_outputs(args, tmp / "real")
            use_plain_twin(mp)
            assert dispatch_outputs(args, tmp / "plain") == real
