"""Golden outputs: sha256 digests of fixed-seed CLI runs.

Pins the three files of the acceptance-10 dispatch command, the three files
of a depletion run that overrides every battery's state of charge
(``--bes-soc``), the JSON printed by
``cellflex oracle --n-iter 30 --seed 2`` and the four files of a
temperature panel on the toy cell, so a refactor that is
meant to keep numerics unchanged is checked byte for byte.  The warmup
reference of the bundled and the toy cell (snapshot, baseline plant values
and PCC reading) is pinned directly, at full float precision, since the CLI
outputs print it only rounded.  A change that
alters numerics on purpose re-records these digests and says so in
CHANGES.md.

The dispatch command also runs in child processes under each of OpenBLAS's
CPU kernels and with glibc's AVX2 and FMA code paths masked, and must write
the same digests under each: no output byte may depend on which kernel the
host's CPU selects.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellflex.cli import main
from cellflex.oracle import make_toy_scenario
from cellflex.scenario import load_bundled_scenario, save_scenario
from cellflex.twin import CellTwin

DISPATCH_ARGS = ["dispatch", "--dp-kw", "5", "--dq-kvar", "1", "--steps", "2",
                 "--n-iter", "10", "--seed", "5"]
DISPATCH_DIGESTS = {
    "dispatch.csv":
        "489f4047098cd06ad627c0abf3c2dfc574e8e4150d934e7f75a6bf01dee2864c",
    "iterations.csv":
        "5cbbc645c12f5f7bf0e7d7d808c2b6a613989fb96d52b9f77269fb3a95dbe7ad",
    "summary.json":
        "3154abaff24bbebe5ba11107afe1cecb621c2fa7d47e55e63d1c367d966e2dec",
}
BES_SOC_ARGS = ["dispatch", "--dp-kw", "-5", "--dq-kvar", "-1", "--steps", "2",
                "--n-iter", "5", "--seed", "5", "--bes-soc", "0.04"]
BES_SOC_DIGESTS = {
    "dispatch.csv":
        "07f7a3bee16ea426e035de8ab237300d89225e37613c0e9c87b102d6ad9f77a4",
    "iterations.csv":
        "98a24d4061c50ff1d7878431c22d73b5e2b8d9628c6fbca733703c2abb6fc648",
    "summary.json":
        "d2e4dba24775db8753da5aa248ea3a6838e6df0f007d9b47634e133e64acba00",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "1262fc7ddd2947fabbe84b1fa9ea4564d1d9726512d4b194d9174549ac277d2c"
SWEEP_ARGS = ["sweep-temperature", "--temperatures", "0,0.2,10",
              "--seeds", "2,3", "--n-iter", "20", "--dp-kw", "1",
              "--dq-kvar", "0.3"]
SWEEP_DIGESTS = {
    "iterations_T0.csv":
        "2c07d066b211a5510ea3a97fc63d192581422aec41994b1e6cb532f040c92889",
    "iterations_T0p2.csv":
        "af68eef243e6442a847c43833500a182643d5b787283f87ca766b3a62fce465e",
    "iterations_T10.csv":
        "5ea7cb9e362e7ddf9fafd9bfd25db3412849d39af6903153a70a0e485f55f42f",
    "sweep_summary.json":
        "18d0db1828df6b76f5fec4cfb20aa27e7398dd0ee603373d808ca086c37a52b7",
}

# one child environment variable each: OpenBLAS's kernels from AVX-512 down
# to SSE3, and glibc's string and math routines without AVX2 or FMA
CPU_SETTINGS = [("OPENBLAS_CORETYPE", kernel) for kernel in
                ("SkylakeX", "Haswell", "Sandybridge", "Prescott")] + [
    ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-FMA4")]
SRC = Path(__file__).resolve().parent.parent / "src"

WARMUP_DIGESTS = {
    "bundled": "15df1f8bf86f645ab7bb0bd766963d242da44b7d71226e5388af376012325743",
    "toy": "6077b05bd1c77a3a27e2e179aac019c98462d7b45882b2238545122636ff8778",
}
WARMUP_SCENARIOS = {"bundled": load_bundled_scenario, "toy": make_toy_scenario}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _output_digests(args, out, names):
    assert main(args + ["--out", str(out)]) == 0
    return {name: _sha256((out / name).read_bytes()) for name in names}


def test_dispatch_outputs_match_golden_digests(tmp_path, capsys):
    assert _output_digests(DISPATCH_ARGS, tmp_path, DISPATCH_DIGESTS) \
        == DISPATCH_DIGESTS


def test_dispatch_digests_do_not_depend_on_the_cpu_kernels(tmp_path):
    children = []
    for k, (name, value) in enumerate(CPU_SETTINGS):
        env = {key: val for key, val in os.environ.items()
               if key not in ("OPENBLAS_CORETYPE", "GLIBC_TUNABLES")}
        env[name] = value
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / str(k)
        children.append((f"{name}={value}", out, subprocess.Popen(
            [sys.executable, "-m", "cellflex", *DISPATCH_ARGS, "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)))
    digests = {}
    try:
        for setting, out, child in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, (setting, err)
            digests[setting] = {name: _sha256((out / name).read_bytes())
                                for name in DISPATCH_DIGESTS}
    finally:
        for _, _, child in children:
            child.kill()
            child.wait()
    assert digests == {setting: DISPATCH_DIGESTS for setting, _, _ in children}


def test_bes_soc_override_outputs_match_golden_digests(tmp_path, capsys):
    assert _output_digests(BES_SOC_ARGS, tmp_path, BES_SOC_DIGESTS) \
        == BES_SOC_DIGESTS


def test_oracle_report_matches_golden_digest(capsys):
    assert main(ORACLE_ARGS) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == ORACLE_DIGEST


def test_toy_temperature_panel_outputs_match_golden_digests(tmp_path, capsys):
    toy = tmp_path / "toy.json"
    save_scenario(make_toy_scenario(), toy)
    args = SWEEP_ARGS + ["--scenario", str(toy)]
    assert _output_digests(args, tmp_path / "sweep", SWEEP_DIGESTS) \
        == SWEEP_DIGESTS


@pytest.mark.parametrize("cell", sorted(WARMUP_DIGESTS))
def test_warmup_reference_matches_golden_digest(cell):
    ref = CellTwin(WARMUP_SCENARIOS[cell]()).run_warmup()
    text = repr((ref.snapshot, ref.plant_values.tolist(), ref.pcc_p_kw,
                 ref.pcc_q_kvar))
    assert _sha256(text.encode("utf-8")) == WARMUP_DIGESTS[cell]
