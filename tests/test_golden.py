"""Golden outputs: sha256 digests of fixed-seed CLI runs.

Pins the three files of the acceptance-10 dispatch command, the three files
of a depletion run that overrides every battery's state of charge
(``--bes-soc``), and the JSON printed by
``cellflex oracle --n-iter 30 --seed 2``, so a refactor that is
meant to keep numerics unchanged is checked byte for byte.  A change that
alters numerics on purpose re-records these digests and says so in
CHANGES.md.
"""

import hashlib

from cellflex.cli import main

DISPATCH_ARGS = ["dispatch", "--dp-kw", "5", "--dq-kvar", "1", "--steps", "2",
                 "--n-iter", "10", "--seed", "5"]
DISPATCH_DIGESTS = {
    "dispatch.csv":
        "f10cfc4495961ade09cf922d41ba5e18e9c211f3e2fd547e78f543b5770aff0d",
    "iterations.csv":
        "c2f27c7c99a8f823dd94ad407bff731edf801e6980d36eb9886c9cbf6981b331",
    "summary.json":
        "90ae137a9b01e99dd177aa889532daf1e59f71ccc30bd6c70ad01fdac9eb6f04",
}
BES_SOC_ARGS = ["dispatch", "--dp-kw", "-5", "--dq-kvar", "-1", "--steps", "2",
                "--n-iter", "5", "--seed", "5", "--bes-soc", "0.04"]
BES_SOC_DIGESTS = {
    "dispatch.csv":
        "45168af40e345927bedd2bb3a50c79672f98f64aa2d1a63e9622643c22e6f1c1",
    "iterations.csv":
        "f9e9aba73b40ab999c6c2c2928e05a8d58487f99bc36618a9c7b1c1d12f76915",
    "summary.json":
        "40ca00058a8b883155d0e9794ff365ef82f2c75817bd2a00f54b5a878325007a",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "2afe7744bcbc867574631fc02d8e0b678692f56c9505a3d7da2b5bb3715904e8"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _dispatch_digests(args, out, names):
    assert main(args + ["--out", str(out)]) == 0
    return {name: _sha256((out / name).read_bytes()) for name in names}


def test_dispatch_outputs_match_golden_digests(tmp_path, capsys):
    assert _dispatch_digests(DISPATCH_ARGS, tmp_path, DISPATCH_DIGESTS) \
        == DISPATCH_DIGESTS


def test_bes_soc_override_outputs_match_golden_digests(tmp_path, capsys):
    assert _dispatch_digests(BES_SOC_ARGS, tmp_path, BES_SOC_DIGESTS) \
        == BES_SOC_DIGESTS


def test_oracle_report_matches_golden_digest(capsys):
    assert main(ORACLE_ARGS) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == ORACLE_DIGEST
