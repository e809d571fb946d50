import json

import hypothesis
import pytest

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
