"""Golden outputs: sha256 digests of fixed-seed CLI runs.

Pins the three files of the acceptance-10 dispatch command and the JSON
printed by ``cellflex oracle --n-iter 30 --seed 2``, so a refactor that is
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
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "2afe7744bcbc867574631fc02d8e0b678692f56c9505a3d7da2b5bb3715904e8"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_dispatch_outputs_match_golden_digests(tmp_path, capsys):
    assert main(DISPATCH_ARGS + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in DISPATCH_DIGESTS}
    assert digests == DISPATCH_DIGESTS


def test_oracle_report_matches_golden_digest(capsys):
    assert main(ORACLE_ARGS) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == ORACLE_DIGEST
