"""Golden output hashes: every file the CLI writes is byte-identical for a fixed seed.

The table below holds the sha256 of each output of a small end-to-end
session: two generated datasets, a sweep with its summary, per-key rows
and the five wire traces, the packed bytes of every trace at three key
domains, a conditional run with its saved aggregate, a default-value
study with its summary, and the `bounds` and `cost` tables.  A refactor must
leave every hash where it is.  A change that moves bytes on purpose
regenerates only the affected entries and says why: run this file as a
script to print the current table on stdout and, on stderr, the names
whose digest differs from the committed one.

The hashes depend on numpy's random streams and float formatting, so the
test skips on any numpy version other than the one that made the table.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from kvldp import cli
from kvldp.mechanisms import Report, pack_reports

N = 20_000
D = 20
SEED = 11
TRACES = ("privkv", "privkv-improved", "f2m", "kvue", "kvoh")
PACK_DIMS = (20, 37, 65)

GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "aggregate.txt": "c3e27059ae5549dc6686a5ca12176ab2d8585644f2371a3df0e0656b39731d64",
    "bounds.csv": "263c95ab2ceb2b77f39f9d52e07b2b290905fc9686f81a080f6b77707795d355",
    "conditional.csv": "bf7456cdded2075075215c25d1c7963f754a61d3d920ac96f083cf2bd5d0abd3",
    "cost.csv": "8ebfaa23dff167e6c71aca5247d7b7c36b0c7e6b04bea2e77b610b1c459fdd69",
    "gaussian.csv": "2aa8802dabef4bec10cd71a3007aa3e56992f939616623a726f3e5489e1c3d3b",
    "packed/f2m.d20": "f2b570bd3aa238cd3ddd6ca60d783d4e9af841e0dd78e0c059ebd77b8a25919f",
    "packed/f2m.d37": "61dcd76a086b6aa479a6f3cfdc19980af1e07c89703f71654a1cf60a36664d15",
    "packed/f2m.d65": "eb2fdc808159a9fd665562caa48fc6f2af2c21338cf055f726c33c98402b376a",
    "packed/kvoh.d20": "00f3148935ee7a2323916f68f296e0ce1ebfba3c8810377f495feed8ed038dad",
    "packed/kvoh.d37": "c39411c7f6f75ef269fc15cab7299779d44f02fc01dceb5e9105c7ed548e92a5",
    "packed/kvoh.d65": "b073df93bbb22490b7634dbaa154435d4f2efc137269f17019e51ffeb7387bb5",
    "packed/kvue.d20": "1a65213cf5625f278dfd274e9334fcc40b0835a334d7cf3f0ffc3103bccf7ff7",
    "packed/kvue.d37": "b21ccd003da3fa869e45e792ebe1cbfe51ab2d5d98f82bde685b502c401ea122",
    "packed/kvue.d65": "20e78ffb305e9d2153fddcc9c7339e47d2c677fb74294d4276f9f42c199811b4",
    "packed/privkv-improved.d20": "e40d0d4458a842e8683195d1f80ecd51c68e9678fcbe109cd53bd3b5e245ceda",
    "packed/privkv-improved.d37": "5005b37de6d64494171b20d4ef6147f8b339156e54db8bde9859a4317c0185cb",
    "packed/privkv-improved.d65": "3803c0383fea25813c0fcfcb5ffc9485757d928116892b9b8949ab939022670a",
    "packed/privkv.d20": "59ca84652e30c9b1009fc6f02356236315b6fc2d5f34738060ab833639a91160",
    "packed/privkv.d37": "45d15ada3c3f99f65f49cdb2d151bf66ef7efaebf9df1f048b0ebd8f390f69d6",
    "packed/privkv.d65": "7112b0ed6f2e63ee019fc4ba0d789204ca1818fc6eb278a1d3db228fd7e9e9b5",
    "regime.csv": "a070e8dbefa60fa30e43a7c6e1f18ab0a33c26ab940543e2fb5051c1f6c91273",
    "run.csv": "89ae92ee0542218e29b8072aa80ef5eff6670c56a334ab184a0f8d57594fd1ef",
    "run.perkey.csv": "dac90965b77b0d94f1fa777811033cacd03171639b11be53b4ee2a4dbbcc8bc8",
    "run.summary.csv": "0cee813de968458dcca3682e7630d4ba97cb9249889c76472ce28fe6e5d5f4e9",
    "study.csv": "991878fafe1854b34e4d94c373604a73b7957b783ed8676a64d71ce195b5a15c",
    "study.summary.csv": "e0d2e75e422463bf825843584723dd52ec1b7ff9c7126d2028231646966a9339",
    "traces/f2m.txt": "9209db5e2b5af9dde85d9e171c5320a4d2d6c24cb33ee68ddfc8d3fb3cc91fc5",
    "traces/kvoh.txt": "538a9427704bf3e6b782142c57605b44a7fcf0540bbb1a6388068ad4dc8df950",
    "traces/kvue.txt": "1dd2c3d7b19faf2566a6b6e210454053cc8fa0e4b097ab84d1c76feca0d1cdc3",
    "traces/privkv-improved.txt": "830a8dbe279e6e780809c2dc8a5f35df8d006de5cd952c961d6933b4fb9c4157",
    "traces/privkv.txt": "3181452839e2378935ebbf77418e2466439d4ff04024503c5365e243092fa8e4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code == 0, f"kvldp {' '.join(map(str, argv))} exited {code}"


def golden_outputs(workdir) -> dict:
    """Run the session in workdir; returns {output name: sha256}."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    _cli(["generate", "--dist", "gaussian", "--d", D, "--n", N, "--seed", 5, "--out", path("gaussian.csv")])
    _cli(["generate", "--dist", "regime", "--freq-regime", "high", "--mean-regime", "low",
          "--d", D, "--n", N, "--seed", 6, "--out", path("regime.csv")])
    _cli(["run", "--dataset", path("regime.csv"), "--epsilon", "0.5,2", "--reps", 2, "--seed", SEED,
          "--per-key", "--trace", path("traces"), "--out", path("run.csv")])
    _cli(["conditional", "--dims", "2,3", "--epsilon", "1,4", "--reps", 2, "--n", N, "--seed", SEED,
          "--out", path("conditional.csv"), "--agg-out", path("aggregate.txt")])
    _cli(["default-study", "--dataset", path("regime.csv"), "--vbar=-1,0,1", "--epsilon", "0.5,1",
          "--reps", 2, "--seed", SEED, "--out", path("study.csv")])
    _cli(["bounds", "--out", path("bounds.csv")])
    _cli(["cost", "--d", ",".join(map(str, PACK_DIMS)), "--out", path("cost.csv")])
    names = ["gaussian.csv", "regime.csv", "run.csv", "run.summary.csv", "run.perkey.csv",
             "conditional.csv", "aggregate.txt", "study.csv", "study.summary.csv", "bounds.csv", "cost.csv"]
    names += [f"traces/{name}.txt" for name in TRACES]
    hashes = {name: _sha256(_read(path(name))) for name in names}
    for name in TRACES:
        with open(path(f"traces/{name}.txt")) as handle:
            reports = [Report.from_line(line) for line in handle]
        for d in PACK_DIMS:
            hashes[f"packed/{name}.d{d}"] = _sha256(pack_reports(reports, d))
    return hashes


def test_outputs_match_golden_hashes(tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"golden hashes were made with numpy {GOLDEN_NUMPY}; this is numpy {np.__version__}")
    hashes = golden_outputs(str(tmp_path))
    assert sorted(hashes) == sorted(GOLDEN), "the session's outputs differ from the table's entries"
    differing = [name for name in sorted(GOLDEN) if hashes[name] != GOLDEN[name]]
    assert not differing, f"{len(differing)} output(s) changed bytes: {', '.join(differing)}"


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        hashes = golden_outputs(workdir)
    print(f'GOLDEN_NUMPY = "{np.__version__}"')
    print("GOLDEN = {")
    for name, digest in sorted(hashes.items()):
        print(f'    "{name}": "{digest}",')
    print("}")
    # The entries to regenerate: a name whose digest moved, is new, or is gone.
    moved = sorted(name for name in hashes.keys() | GOLDEN.keys() if hashes.get(name) != GOLDEN.get(name))
    print(f"{len(moved)} of {len(GOLDEN)} committed entries differ: {', '.join(moved) or 'none'}", file=sys.stderr)
