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
        "5bad6a572001b147ecbf55f103d0e5d4af9d70beafea139b9aa1401275e3c47a",
    "summary.json":
        "022f8476cf76ff54251a50a7e092ce82c43537f7cc7c73305c02857acfe05ef1",
}
BES_SOC_ARGS = ["dispatch", "--dp-kw", "-5", "--dq-kvar", "-1", "--steps", "2",
                "--n-iter", "5", "--seed", "5", "--bes-soc", "0.04"]
BES_SOC_DIGESTS = {
    "dispatch.csv":
        "07f7a3bee16ea426e035de8ab237300d89225e37613c0e9c87b102d6ad9f77a4",
    "iterations.csv":
        "3608a2b3371a90e0778223b2ed9a433d6767250c88e669154dca8431e1afe581",
    "summary.json":
        "4297fc17f6b6745d7c5438e1c807c905f48be4db6cd356f95bba9d75bab23fe9",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "54c4a8e5d3812fdf4030347ebc3a389190b3b977d5763976b7d9535748ef057c"


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
