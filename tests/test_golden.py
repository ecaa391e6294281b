"""Golden output hashes: every file the CLI writes is byte-identical for a fixed seed.

The table below holds the sha256 of each output of a small end-to-end
session: two generated datasets, a sweep with its summary, per-key rows
and the five wire traces, the packed bytes of every trace at three key
domains, and a conditional run with its saved aggregate.  A refactor must
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
    "aggregate.txt": "b1d27f9d411d6b419f400430c3d082585cdf557f8959085813a04c54bafd49f1",
    "conditional.csv": "ad6873b793190aabeb1d0fc3d786f1e5377fde0073fe8f0fff432e63984bc661",
    "gaussian.csv": "2aa8802dabef4bec10cd71a3007aa3e56992f939616623a726f3e5489e1c3d3b",
    "packed/f2m.d20": "e50dbdd443214d2997fdd8e57f54589716cd18c643a20705fae2c87a5621847b",
    "packed/f2m.d37": "bdec6229dcb8b1d998522c532e4b53d7d90b40c32d96934f4f88f55fe3eb010b",
    "packed/f2m.d65": "7689d953186e5acf2991a783e65eb8c95589cb5bd323d39373cd22dd8e1124fb",
    "packed/kvoh.d20": "47542d34b4067457f96889708c69ac03c959d11bc5678201d22c233ac5ea8c93",
    "packed/kvoh.d37": "5dbf7e6542f74c2ea20bd21e98ec69b158729da127aadbcae95c355eeecdfe52",
    "packed/kvoh.d65": "84bce6c2861500a6f2b1b78012c5870ac5f4e59780aa823b2adaf5184fab443a",
    "packed/kvue.d20": "46c56aeeded8284cc2f797db3f681a712bbf3b3dd29dac71c995e91529286597",
    "packed/kvue.d37": "fa708b252fa73603be5398514788e69e8f45e78f7460fc4238e13f0d1923986b",
    "packed/kvue.d65": "c882dfcf3431f48ff94d4286d93c5b1f0060d7d0c500f6fb0e5c35984396133a",
    "packed/privkv-improved.d20": "ebf570f0bc167eeb2bbb68cecae0a37a8a7243f0d971cc0374d947338507ec00",
    "packed/privkv-improved.d37": "e0b0685103384fd2497913203a33364936ed4f58508b96012d10452033ebfcf1",
    "packed/privkv-improved.d65": "f08fd55fb7cc564e7f7127c7b0f2b3366607ff289e85ff08be65cf5d0e7bc6a3",
    "packed/privkv.d20": "c441a1b0e0394b83dc9a83d63c029aa602ca8f9e14f1965e893b7760b716d8c9",
    "packed/privkv.d37": "50168a96f27e49a5c594124f15907df3823142b9bbad7261c3627b415da178dc",
    "packed/privkv.d65": "e1059d6a70f2db27290c8bd28a603f4f16825188c0692915466ed1ac2a5e1c54",
    "regime.csv": "a070e8dbefa60fa30e43a7c6e1f18ab0a33c26ab940543e2fb5051c1f6c91273",
    "run.csv": "3ad7c485b626a309b9643204944ee4fb384eeafb74c92841e2126292d267c271",
    "run.perkey.csv": "a7f38c88dae6ae88c0b2d177181915d8419a20545dcd6f9b737fc68eb743609e",
    "run.summary.csv": "2ac4d3bdf5be3e8b3356287b678524900c549e9c33cc0968c75babebe3280453",
    "traces/f2m.txt": "9b8a9c4976304e1b3b5525e219740f28095aa954d47f38093404d5f3b59221e0",
    "traces/kvoh.txt": "70d4b7433428c5129e140ecda5b10058d123dbe530370fcda4ec0955b5d1aca1",
    "traces/kvue.txt": "ed89919ec2e4a5b0426f5b411080f81eb7932ba9f69297c958659437590fec41",
    "traces/privkv-improved.txt": "1fac5f10d3d118f6241cd51dbdbe6559bea9a7ba6155ebb9f9be242947e481ef",
    "traces/privkv.txt": "8d8a0aa29102fc6fa3426bcf0801a5dd158b59beeba84bf472e8daff5b3d33b6",
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
    names = ["gaussian.csv", "regime.csv", "run.csv", "run.summary.csv", "run.perkey.csv",
             "conditional.csv", "aggregate.txt"] + [f"traces/{name}.txt" for name in TRACES]
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
