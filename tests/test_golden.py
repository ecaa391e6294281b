"""Golden output hashes: every file the CLI writes is byte-identical for a fixed seed.

The table below holds the sha256 of each output of a small end-to-end
session: two generated datasets, a sweep with its summary, per-key rows
and the five wire traces, the packed bytes of every trace at three key
domains, a conditional run with its saved aggregate, and a default-value
study with its summary.  A refactor must
leave every hash where it is.  A change that moves bytes on purpose
regenerates only the affected entries (run this file as a script to print
the current table) and says why.

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
    "aggregate.txt": "db37c281f2fffb22a109d53aae6b4e947a773fe34379014df0ea63373313a8e9",
    "conditional.csv": "bf7456cdded2075075215c25d1c7963f754a61d3d920ac96f083cf2bd5d0abd3",
    "gaussian.csv": "2aa8802dabef4bec10cd71a3007aa3e56992f939616623a726f3e5489e1c3d3b",
    "packed/f2m.d20": "8dd336c40af2792073381955dc35f6230e8beb5de9bf9192fef6e3b76084871a",
    "packed/f2m.d37": "b9adf69ed959f76416618099eabb517f9fe2a66bce35dbb1929efbbe8eb0192c",
    "packed/f2m.d65": "4761e178c09e5018806a7b6f6e08ee9bf088b073845e2941fdfe504cc72ad5fb",
    "packed/kvoh.d20": "b0c53f7ef5f821926d07e300e623dccedefdf4004a57992ea89ae92ec2115220",
    "packed/kvoh.d37": "495806b48a9d1999fc7f402687b719c74911cead2e763132afd77cd3dae80ffd",
    "packed/kvoh.d65": "d0f177106b7f0e2213692f4e22ee9203070b59b4aacb65d8159471acd0da7428",
    "packed/kvue.d20": "aafde64ed7470b51c86536d6cc962d0dd4113d8f005c405631848f7d10d8ed38",
    "packed/kvue.d37": "2d503384f0ea8e3ee59473b7dcfd8ca90beab2610f19f2a57d26e0d382cf569f",
    "packed/kvue.d65": "7384c2d7999b291e447a3fa8a1e76760abe7e7e530aefbe5575c02baecb66918",
    "packed/privkv-improved.d20": "40e99df4a76527bf256f1c6101fbb59304ebf1e5b6c8386f5391b381feb5d0e7",
    "packed/privkv-improved.d37": "40723f549013dd620ed4e37e3a21858d164044e9c6dd2c76ba8444626430c796",
    "packed/privkv-improved.d65": "421436bccd071ec191ccb1af644c42d32226e74aed240bf75e7a12d09e6267dd",
    "packed/privkv.d20": "0d6efa005dd5a4ca4c72ccb8f8b0fff185db4c0c34cb9e286ee3a196ff89cb35",
    "packed/privkv.d37": "659fc7f0cbcd69c9afceaadd45c96c8b0f583b63acdda22c8217af0f44219d50",
    "packed/privkv.d65": "f05b0638944dfabb525df0aed1193cfd9c72cc52dff905f7dfb02cabdb8ec49d",
    "regime.csv": "a070e8dbefa60fa30e43a7c6e1f18ab0a33c26ab940543e2fb5051c1f6c91273",
    "run.csv": "89ae92ee0542218e29b8072aa80ef5eff6670c56a334ab184a0f8d57594fd1ef",
    "run.perkey.csv": "7a93478d67c0120e5afd1f08d2262236f1b8070a19166cf81ce1f5f8ef276b44",
    "run.summary.csv": "0cee813de968458dcca3682e7630d4ba97cb9249889c76472ce28fe6e5d5f4e9",
    "study.csv": "991878fafe1854b34e4d94c373604a73b7957b783ed8676a64d71ce195b5a15c",
    "study.summary.csv": "e0d2e75e422463bf825843584723dd52ec1b7ff9c7126d2028231646966a9339",
    "traces/f2m.txt": "907e3e4b4afe7e0482aff1b51f796d087db2f91ba271dbe630d77992f71a4755",
    "traces/kvoh.txt": "237bee933aeab324bdbce612aa2e3d1f9aedd4319ace13ed3c097b5997be3480",
    "traces/kvue.txt": "01cd5750dd147abdbd8f12fa9b24947662b0e0337359e0529a1a881ce36244f7",
    "traces/privkv-improved.txt": "138762f9a84c1bf66046eabe29bdbcd469b93f7107aafd09adc7515553fc8112",
    "traces/privkv.txt": "f4a0d0f0746b8fc45ae4ddec62010a25ccb3c031437cf06bf946fc52d685e77f",
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
    names = ["gaussian.csv", "regime.csv", "run.csv", "run.summary.csv", "run.perkey.csv",
             "conditional.csv", "aggregate.txt", "study.csv", "study.summary.csv"] + [f"traces/{name}.txt" for name in TRACES]
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
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        print(f'GOLDEN_NUMPY = "{np.__version__}"')
        print("GOLDEN = {")
        for name, digest in sorted(golden_outputs(workdir).items()):
            print(f'    "{name}": "{digest}",')
        print("}")
