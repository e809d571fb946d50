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
        "152e2803624c711a4352ec511209ad32e45b98982a915b79b2e80db4aabbf889",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "38e03f1fe42b3d9e52838b8d94baae584ef1ba0ed631f04fd66f2b3d69337833"


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
