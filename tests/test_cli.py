"""Command-line interface: subcommands, exit codes, output files."""

import argparse
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import cellflex.cli
from cellflex.cli import build_parser, main
from cellflex.dispatch import run_dispatch, temperature_panel
from cellflex.optimizer import BasinHoppingConfig, NelderMeadSettings
from cellflex.oracle import make_toy_scenario
from cellflex.scenario import load_bundled_scenario, save_scenario, scenario_to_dict
from cellflex.twin import CellTwin


@pytest.fixture(scope="module")
def toy_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.json"
    save_scenario(make_toy_scenario(), path)
    return path


class TestValidate:
    def test_bundled_census(self, capsys):
        assert main(["validate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "rural1_flex"
        assert report["census"]["controllable_plants"] == 38

    def test_scenario_file(self, toy_path, capsys):
        assert main(["validate", "--scenario", str(toy_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["census"] == {
            "prosumers": 1, "pv": 1, "bes": 1, "ehp": 0,
            "bev": 0, "bev_v2g": 0, "controllable_plants": 2,
        }

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("]")
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_heat_pump_effectiveness_out_of_range_exits_1(self, tmp_path, capsys):
        data = scenario_to_dict(load_bundled_scenario())
        i, pro = next((i, p) for i, p in enumerate(data["prosumers"]) if "ehp" in p)
        pro["ehp"]["effectiveness"] = 0.0
        bad = tmp_path / "bad_ehp.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert (f"prosumers[{i}].ehp.effectiveness: must be > 0"
                in capsys.readouterr().err)


class TestSimulate:
    def test_writes_csv(self, toy_path, tmp_path, capsys):
        out = tmp_path / "baseline.csv"
        assert main(["simulate", "--scenario", str(toy_path),
                     "--steps", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_s,p_pcc_kw,q_pcc_kvar"
        assert len(lines) == 4  # reference row plus two steps
        assert [float(r.split(",")[0]) for r in lines[1:]] == [0.0, 15.0, 30.0]

    def test_prints_to_stdout_without_out(self, toy_path, capsys):
        assert main(["simulate", "--scenario", str(toy_path),
                     "--steps", "1"]) == 0
        assert capsys.readouterr().out.startswith("t_s,p_pcc_kw,q_pcc_kvar")

    def test_horizon_beyond_profile_window_exits_1(self, toy_path, capsys):
        assert main(["simulate", "--scenario", str(toy_path),
                     "--steps", "5761"]) == 1
        assert "profile_forward_days" in capsys.readouterr().err

    def test_negative_steps_exit_1(self, toy_path, capsys):
        assert main(["simulate", "--scenario", str(toy_path),
                     "--steps", "-3"]) == 1
        captured = capsys.readouterr()
        assert "at least 1 step" in captured.err
        assert captured.out == ""

    def test_warmup_beyond_profile_window_exits_1(self, tmp_path, capsys):
        # the toy cell's profiles reach one day back: a warmup of exactly one
        # day runs, a longer one is rejected at load
        data = scenario_to_dict(make_toy_scenario())
        path = tmp_path / "warm.json"
        for days, code in ((1.0, 0), (1.5, 1)):
            data["simulation"]["warmup_s"] = days * 86400.0
            path.write_text(json.dumps(data))
            assert main(["simulate", "--scenario", str(path),
                         "--steps", "1"]) == code
        assert "profile_back_days" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_1(self, toy_path, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(toy_path), "--steps", "1",
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_out_in_missing_directory_fails_before_the_warmup(
            self, toy_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the warmup started")

        monkeypatch.setattr(CellTwin, "run_warmup", fail)
        assert main(["simulate", "--scenario", str(toy_path),
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_rejected_run_removes_only_a_file_it_made(self, tmp_path, capsys):
        # a feeder this resistive cannot carry the warmed-up load
        data = scenario_to_dict(make_toy_scenario())
        data["topology"]["lines"][0]["r_ohm"] = 5000.0
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(data))
        made, kept = tmp_path / "made.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        for out in (made, kept):
            assert main(["simulate", "--scenario", str(path),
                         "--out", str(out)]) == 2
            assert "runtime failure: voltage collapse at bus 'h01'" \
                in capsys.readouterr().err
        assert not made.exists()
        assert kept.read_text() == "old\n"


class TestDispatch:
    def test_writes_result_files(self, toy_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "1.0", "--dq-kvar", "0.3",
                     "--steps", "2", "--n-iter", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        for name in ("dispatch.csv", "iterations.csv", "summary.json"):
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_steps"] == 2
        assert summary["optimizer"]["seed"] == 3
        tracking = json.loads(capsys.readouterr().out)
        assert tracking["max_abs_dp_err_kw"] <= 0.1

    def test_same_seed_same_bytes(self, toy_path, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["dispatch", "--scenario", str(toy_path),
                    "--dp-kw", "1.0", "--dq-kvar", "0.3",
                    "--steps", "2", "--n-iter", "10", "--seed", "9",
                    "--out", str(out)]
            assert main(args) == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("dispatch.csv", "iterations.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_searches_with_the_config_defaults(self, toy_path, tmp_path,
                                               capsys):
        # temperature, step size and Nelder-Mead budget are not options
        out = tmp_path / "run"
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "1.0", "--steps", "1", "--n-iter", "4",
                     "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["optimizer"] == {"temperature": 0.5, "n_iter": 4,
                                        "step_size": 1.0, "seed": 7,
                                        "nm_maxfev": 40}

    def test_zero_steps_exit_1(self, toy_path, tmp_path, capsys):
        out = tmp_path / "none"
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "1.0", "--steps", "0",
                     "--out", str(out)]) == 1
        assert "at least 1 step" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_run_leaves_no_nested_output_directory(
            self, toy_path, tmp_path, capsys):
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "1.0", "--steps", "0",
                     "--out", str(tmp_path / "a" / "b")]) == 1
        assert "at least 1 step" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_non_finite_request_exits_1(self, toy_path, tmp_path, capsys):
        out = tmp_path / "nan"
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "nan", "--steps", "1", "--n-iter", "2",
                     "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_warmup_exits_1(self, tmp_path, capsys):
        # a zero warmup would capture an all-zero reference PCC reading
        data = scenario_to_dict(make_toy_scenario())
        data["simulation"]["warmup_s"] = 0.0
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "cold"
        assert main(["dispatch", "--scenario", str(path),
                     "--dp-kw", "1.0", "--steps", "2", "--n-iter", "1",
                     "--out", str(out)]) == 1
        assert "simulation.warmup_s: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_warmup_off_the_substep_grid_exits_1_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        # 0.3333 days is 28797.12 s, not a whole number of 15 s substeps
        # the loader refuses the file, so no twin is ever built
        def fail(*args, **kwargs):
            raise AssertionError("a twin was built")

        monkeypatch.setattr(CellTwin, "__init__", fail)
        data = scenario_to_dict(make_toy_scenario())
        data["simulation"]["warmup_s"] = 0.3333 * 86400.0
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "odd"
        assert main(["dispatch", "--scenario", str(path),
                     "--dp-kw", "1.0", "--steps", "1", "--n-iter", "1",
                     "--out", str(out)]) == 1
        assert "28797.1 s is not a whole number of 15 s warmup substeps" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_exits_1_before_dispatching(
            self, toy_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_dispatch was entered")

        monkeypatch.setattr(cellflex.cli, "run_dispatch", fail)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "5", "--steps", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_negative_request_in_exponent_form(self, toy_path, tmp_path,
                                               capsys):
        # argparse alone takes "-1e-05" for an option and exits 2 with
        # "expected one argument"; as a separate word it must be read as
        # the value, and give what the "=" form gives
        outs = []
        for form in (["--dp-kw", "-1e-05", "--dq-kvar", "-1E+3"],
                     ["--dp-kw=-1e-05", "--dq-kvar=-1E+3"]):
            out = tmp_path / str(len(outs))
            assert main(["dispatch", "--scenario", str(toy_path), *form,
                         "--steps", "1", "--n-iter", "2",
                         "--out", str(out)]) == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("dispatch.csv", "iterations.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert summary["request"] == {"dp_kw": -1e-05, "dq_kvar": -1000.0}

    @pytest.mark.parametrize("value", ["-1e-05", "-1E+3", "-.5e2", "-2."])
    def test_every_float_option_takes_a_negative_exponent(self, value):
        # parsing only: each float option of each subcommand reads the next
        # word as its value
        parser = build_parser()
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        checked = 0
        for name, p in sub.choices.items():
            for action in p._actions:
                if action.type is not float:
                    continue
                flag = action.option_strings[0]
                request = ["--dp-kw", "1"] \
                    if name == "dispatch" and flag != "--dp-kw" else []
                args = parser.parse_args([name, *request, flag, value])
                assert getattr(args, action.dest) == float(value), (name, flag)
                checked += 1
        assert checked == 7

    def test_missing_request_is_a_usage_error(self, toy_path):
        with pytest.raises(SystemExit) as err:
            main(["dispatch", "--scenario", str(toy_path)])
        assert err.value.code == 2

    def test_bes_soc_flag(self, toy_path, tmp_path, capsys):
        out = tmp_path / "soc"
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "-0.5", "--steps", "1", "--n-iter", "5",
                     "--seed", "1", "--bes-soc", "0.05",
                     "--out", str(out)]) == 0
        capsys.readouterr()

    def test_bes_soc_outside_unit_interval_exits_1(self, toy_path, tmp_path,
                                                   capsys):
        assert main(["dispatch", "--scenario", str(toy_path),
                     "--dp-kw", "-0.5", "--steps", "1", "--n-iter", "5",
                     "--bes-soc", "1.5", "--out", str(tmp_path / "soc")]) == 1
        assert "outside [0, 1]" in capsys.readouterr().err


class TestSweepTemperature:
    def test_writes_one_log_per_temperature(self, toy_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "0.5,2", "--dp-kw", "1.0",
                     "--dq-kvar", "0.3", "--n-iter", "5",
                     "--seeds", "2", "--out", str(out)]) == 0
        assert (out / "iterations_T0p5.csv").is_file()
        assert (out / "iterations_T2.csv").is_file()
        sweep = json.loads((out / "sweep_summary.json").read_text())
        assert set(sweep) == {"0.5", "2"}
        for entry in sweep.values():
            assert "mean_of_local" in entry and "final_of_global_best" in entry

    def test_explains_each_temperature(self, toy_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "0,10", "--seeds", "2,3",
                     "--n-iter", "4", "--dp-kw", "1.0", "--dq-kvar", "0.3",
                     "--out", str(out)]) == 0
        sweep = json.loads((out / "sweep_summary.json").read_text())
        # T = 0 accepts no worse candidate; every search runs all 4 moves
        assert sweep["0"]["acceptance_rate"] < sweep["10"]["acceptance_rate"]
        assert all(entry["evaluations"] > 2 * 4 for entry in sweep.values())
        rows = (out / "iterations_T10.csv").read_text().splitlines()
        assert rows[0].startswith("seed,iteration,")
        assert [r.split(",")[:2] for r in rows[1:]] == [
            [seed, str(i)] for seed in ("2", "3") for i in range(5)]

    def test_reacts_to_temperature_on_the_bundled_cell(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--temperatures", "0.2,10",
                     "--seeds", "5", "--n-iter", "20", "--dp-kw", "28",
                     "--dq-kvar", "1", "--out", str(out)]) == 0
        sweep = json.loads((out / "sweep_summary.json").read_text())
        assert sweep["0.2"]["mean_of_local"] != sweep["10"]["mean_of_local"]

    def test_panel_runs_acceptance_6_search_settings(
            self, toy_path, tmp_path, capsys, monkeypatch):
        seen = []

        def panel(scenario, request, temperatures, seeds, config):
            seen.append((temperatures, seeds, config))
            return temperature_panel(scenario, request, temperatures, seeds,
                                     config)

        monkeypatch.setattr(cellflex.cli, "temperature_panel", panel)
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "0,2", "--seeds", "4", "--n-iter", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        (temperatures, seeds, config), = seen
        assert (temperatures, seeds) == ([0.0, 2.0], [4])
        assert config == BasinHoppingConfig(
            n_iter=2, step_size=4.0, nm=NelderMeadSettings(maxfev=45))

    def test_empty_temperature_list_exits_1(self, toy_path, capsys):
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", " , "]) == 1
        assert "at least one" in capsys.readouterr().err

    def test_bad_temperature_exits_1_before_any_run(self, toy_path, tmp_path,
                                                    capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "0.5,-1",
                     "--n-iter", "5", "--out", str(out)]) == 1
        assert "temperature must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_temperatures_sharing_a_tag_exit_1_before_any_run(
            self, toy_path, tmp_path, capsys):
        # both print as 0.123457, so they would write the same outputs
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "0.5, 0.1234567,0.1234568",
                     "--out", str(out)]) == 1
        assert "'0.1234567' and '0.1234568' share the output tag '0.123457'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_temperature_exits_1(self, toy_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     "--temperatures", "a,b", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: --temperatures: 'a' is not a number" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n-iter", "0"], "needs a temperature, a seed and n_iter >= 1"),
        (["--seeds", " , "], "--seeds must name at least one value"),
        (["--seeds", "2,1.5"], "--seeds: '1.5' is not an integer"),
        (["--seeds", "2,-1"], "seed must be None or an integer >= 0"),
        (["--seeds", "2,3,2"], "--seeds: '2' is named twice"),
    ])
    def test_bad_search_settings_exit_1_before_the_warmup(
            self, flags, message, toy_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the warmup started")

        monkeypatch.setattr(CellTwin, "run_warmup", fail)
        out = tmp_path / "sweep"
        assert main(["sweep-temperature", "--scenario", str(toy_path),
                     *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestOracleCommand:
    def test_reports_gap(self, capsys):
        assert main(["oracle", "--n-iter", "30", "--seed", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gap"] <= 1e-3
        # 161 battery by 37 inverter points at the oracle's 0.05 resolution
        assert report["oracle_points"] == 161 * 37
        assert 0 < report["oracle_evals"] < report["oracle_points"]

    def test_searches_with_the_config_defaults(self, capsys, monkeypatch):
        # the grid is checked at 0.05 by test_reports_gap's point count
        seen = []

        def dispatch(*args, config, **kwargs):
            seen.append(config)
            return run_dispatch(*args, config=config, **kwargs)

        monkeypatch.setattr(cellflex.cli, "run_dispatch", dispatch)
        assert main(["oracle", "--n-iter", "3", "--seed", "5"]) == 0
        capsys.readouterr()
        config, = seen
        assert (config.temperature, config.n_iter, config.step_size,
                config.seed, config.nm.maxfev) == (0.5, 3, 1.0, 5, 40)

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed must be None or an integer >= 0"),
    ])
    def test_bad_optimizer_settings_exit_1(self, flags, message, capsys):
        # rejected before the grid search, with a message and no traceback
        assert main(["oracle", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestModuleEntryPoint:
    def test_python_dash_m(self, toy_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cellflex", "validate",
             "--scenario", str(toy_path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "toy2"


# each subcommand's options, --help aside; the search settings that no
# command varies (temperature, step size, Nelder-Mead budget, oracle
# resolution) are constants, not options
OPTIONS = {
    "validate": {"--scenario"},
    "simulate": {"--scenario", "--steps", "--out"},
    "dispatch": {"--scenario", "--seed", "--n-iter", "--dp-kw", "--dq-kvar",
                 "--steps", "--bes-soc", "--out"},
    "sweep-temperature": {"--scenario", "--temperatures", "--seeds",
                          "--dp-kw", "--dq-kvar", "--n-iter", "--out"},
    "oracle": {"--seed", "--n-iter", "--dp-kw", "--dq-kvar"},
}


def test_each_subcommand_has_its_pinned_options():
    """A flag added or removed shows up here as a visible change."""
    def options(parser):
        return {flag for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings}

    parser = build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == {"-v", "--verbose"}
    assert {name: options(p) for name, p in sub.choices.items()} == OPTIONS


def test_readme_commands_parse():
    """Every ``cellflex`` line in the README's bash blocks parses (nothing
    runs), so a removed flag cannot leave a stale example."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```bash\n(.*?)^```", readme.read_text(),
                        re.MULTILINE | re.DOTALL)
    commands = []
    for line in "".join(blocks).replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["cellflex"]:
            commands.append(words[1:])
    assert {argv[0] for argv in commands} == set(cellflex.cli._COMMANDS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: cellflex {shlex.join(argv)} does not parse")
