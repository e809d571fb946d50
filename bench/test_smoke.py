"""Smoke test of the benchmark at its smallest size: one operation per workload.

Run from the repository root (about a minute):

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = {"track_ok_frac": "1", "mean_of": "OF", "cost_eur": "EUR"}
CHECK_KINDS = {"raised", "balance", "bounds", "feasible", "deadline"}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def printed(stdout, name, unit):
    return re.search(rf"^(\[\w+\] )?{re.escape(name)}: \S+ \(?"
                     rf"{re.escape(unit)}\)?$", stdout, re.M)


@pytest.mark.parametrize("workload", ["gain", "reduction", "toy_oracle"])
def test_one_op_traced_run(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2          # one op untraced, one traced
    assert "1 ops" in out

    for m in BENCH["end_to_end"]:
        assert printed(out, m["name"], m["unit"]), m["name"]
    quality = dict(QUALITY, oracle_gap_max="OF") \
        if workload == "toy_oracle" else QUALITY
    for name, unit in quality.items():
        assert printed(out, name, unit), name
    assert re.search(r"step_s_tail: .*\(s\)", out)
    assert re.search(r"step_fail_frac 0 \(1\)", out)

    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert printed(out, m["name"], m["unit"]), m["name"]

    kinds = CHECK_KINDS | ({"oracle_gap"} if workload == "toy_oracle" else set())
    for label in ("untraced", "traced"):
        line = re.search(rf"^\[{label}\] checks passed: (.*)$", out, re.M)
        counts = dict(re.findall(r"(\w+) (\d+/\d+)", line.group(1)))
        # traced times include the tracer's cost, so no deadline check there
        assert set(counts) == (kinds if label == "untraced"
                               else kinds - {"deadline"})
        for kind, frac in counts.items():
            ok, ran = map(int, frac.split("/"))
            assert ran >= 1 and ok == ran, (label, kind, frac)
    assert "digest traced == untraced: True" in out


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench(ROOT, "--workload", "toy_oracle", "--seed", "4",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "gain", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
