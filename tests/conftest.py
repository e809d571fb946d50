import json

import hypothesis
import pytest

import cellflex.twin
from cellflex.cli import main
from cellflex.scenario import load_bundled_scenario, scenario_to_dict

hypothesis.settings.register_profile("fast", max_examples=25, deadline=None)
hypothesis.settings.register_profile("thorough", max_examples=200, deadline=None)
hypothesis.settings.load_profile("fast")

# One "ACCEPTANCE n: PASS/FAIL" line per criterion, echoed after the run so
# they stay visible even with output capture on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def validate_refuses(tmp_path, capsys):
    """Run ``cellflex validate`` on the bundled cell's JSON document after
    ``edit(document)``, which returns the message the run must print; assert
    that the run exits 1 with that message."""
    def run(edit):
        document = scenario_to_dict(load_bundled_scenario())
        expected = edit(document)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(document))     # NaN stays NaN
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert expected in err, err
    return run


@pytest.fixture
def warmup_fails(monkeypatch):
    """Make any twin's warmup fail at its first step, so that a call which
    must reject its input before the warmup shows it did."""
    def fail(*args, **kwargs):
        raise AssertionError("the warmup started")

    monkeypatch.setattr(cellflex.twin, "warmup_schedule", fail)


@pytest.fixture
def twins_built(monkeypatch):
    """A list that gains one entry for each twin built from now on."""
    built = []
    build_profiles = cellflex.twin.build_profiles

    def counted(scenario):
        built.append(scenario.name)
        return build_profiles(scenario)

    monkeypatch.setattr(cellflex.twin, "build_profiles", counted)
    return built
