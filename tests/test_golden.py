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
        "e1f653f7edd94a24e82c1e9098e5e0e3deefb30d58fbae136e02fa4a7d49de92",
    "iterations.csv":
        "aedc634fe22aa3b1030347ab67c82da406128de962338255279a509683283218",
    "summary.json":
        "74f6292c7e6ec991a2b713fae7aebf9c5a0af10e44295c443d8fd6ec8e65df08",
}
BES_SOC_ARGS = ["dispatch", "--dp-kw", "-5", "--dq-kvar", "-1", "--steps", "2",
                "--n-iter", "5", "--seed", "5", "--bes-soc", "0.04"]
BES_SOC_DIGESTS = {
    "dispatch.csv":
        "21e45a230de9ea43b8825b4827b042e5cbe4d0d14f4d05c20d5d583021b9492d",
    "iterations.csv":
        "7af79cf0b2ba0df33ad87bd98c0fe5be978ba5f595c2c9962ecc89164ce8e45e",
    "summary.json":
        "d3c304ee0a864690807b6eab8438a614ab39aafaa78275abacd35db5928ad018",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "f344f3d5c0836730e93ee4aa35f4c9af0eb628e704811d60f1cfe0446636bcd9"


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
