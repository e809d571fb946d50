"""Scripts under scripts/: the bundled-scenario generator reproduces its output."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "scripts" / "make_rural_scenario.py"
BUNDLED = ROOT / "src" / "cellflex" / "data" / "rural1_flex.json"


def test_make_rural_scenario_regenerates_bundled_file(tmp_path):
    out = tmp_path / "rural1_flex.json"
    proc = subprocess.run([sys.executable, str(GENERATOR), "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == BUNDLED.read_bytes()
