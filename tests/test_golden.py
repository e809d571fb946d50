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
        "4357f5fe2c169a3687dde3d0dd4666b92cd95641131fe7991c200678514d9769",
    "iterations.csv":
        "b6396f45b1fe71cf192455241c4d239db086e74de512ad2e5dcb1663cf1f7df3",
    "summary.json":
        "bb0abc8564070380b8ea7029f4515da0bbaeaeb8d3324c2668fae8816dec3531",
}
ORACLE_ARGS = ["oracle", "--n-iter", "30", "--seed", "2"]
ORACLE_DIGEST = "caa1855dc00e6fcbfb4db403f7e9c09ae7cbeebf0163b645b558ce184993c318"


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
