"""The shortcuts of the evaluation path change no output byte.

Each command runs twice, once on the package's ``CellTwin`` (compiled plant
loops, stale-plant skip, power-flow memo) and once on ``PlainTwin`` (Python
reference loops, every plant and every power flow each time), and the two
runs' output files must match byte for byte: a few steps of both acceptance
requests and the toy oracle problem.  The outputs print rounded floats, so
the warmup reference is compared at full precision too.
"""

import pytest

from cellflex.cli import main
from cellflex.oracle import make_toy_scenario
from cellflex.scenario import load_bundled_scenario
from cellflex.twin import CellTwin
from twin_reference import PlainTwin, use_plain_twin

DISPATCH_FILES = ("dispatch.csv", "iterations.csv", "summary.json")
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


def test_oracle_report_matches_the_plain_twin(monkeypatch, capsys):
    args = ["oracle", "--n-iter", "30", "--seed", "2"]
    assert main(args) == 0
    real = capsys.readouterr().out
    use_plain_twin(monkeypatch)
    assert main(args) == 0
    assert capsys.readouterr().out == real


@pytest.mark.parametrize("make", [load_bundled_scenario, make_toy_scenario])
def test_warmup_reference_matches_the_plain_twin(make):
    refs = [cls(make()).run_warmup() for cls in (CellTwin, PlainTwin)]
    real, plain = [repr((ref.snapshot, ref.plant_values.tolist(), ref.pcc_p_kw,
                         ref.pcc_q_kvar)) for ref in refs]
    assert plain == real
