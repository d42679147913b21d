"""Golden digests of CLI output: refactors must leave every report byte as is.

Each digest is sha256(stdout + b"\\0" + --out file bytes), the same scheme
as the benchmark's pinned digests.  The algebra digests were recorded
before the report builder, pairing table and permutation sum were folded
into one code path each; the two collapse digests before the ruin step was
cut to the two touched coordinates and trace recording became opt-in; the
lie and random-eta spacetime digests before the operator kernel moved to
integer coefficients over one denominator and interned variable ids; the
repr table digest before the normalized spin matrices moved from a
float-valued ``RepMatrix`` mode to plain complex entries; the three
four-, two- and three-outcome ruin digests (one with 105 unabsorbed runs,
one with a zero-weight outcome) before the ruin walk moved from one step
at a time to cumulative sums over blocks of steps.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation

from linqm import cli, fock
from linqm.scalar import ONE

SPACETIME_N4 = (["verify", "spacetime", "--random-eta", "3", "--n", "4"], 2,
                "105db1c3077ae26705fbd7df14ff206d5aa7247ad41831541cca6499d77e19e4")

GOLDEN = [
    (["verify", "spacetime", "--random-eta", "8", "--n", "3", "--reconstructed"], 0,
     "a68b90a44e720f80bacc6b38349140347fb1499d6f4393823394da1f6bfb4816"),
    (["verify", "translation-flow", "--set", "translations", "--n", "2"], 0,
     "f6b45cdc0a6798eb8fb28c30778abcfed5c5c8245774bb56f3171ff6f03e63e5"),
    (["verify", "hermiticity", "--set", "translations", "--n", "2"], 2,
     "64cbaa8ea2a69270b25ad1c2b9e32545b645595586d9fdb942b6cfabe7a0db50"),
    (["verify", "invariance", "--target", "laplacian", "--gens", "su2",
      "--finite-unitaries", "3", "--seed", "1"], 0,
     "eaf64845acff1e087fcb0819cae1006da319ce64b281745735aac75ecf15570e"),
    (["repr", "homomorphism", "--degree", "3", "--pairs", "4", "--seed", "2"], 0,
     "4899726aa1089270e38da5b4c0b48714ef71cd973589cfca7b5fb204e7605a0c"),
    (["verify", "lie", "--set", "poincare-reconstructed", "--n", "2"], 0,
     "25e7a14ffb95416e817fe8c6c239c75a33d0125f50b8307ccc11f6908d302368"),
    SPACETIME_N4,
    (["repr", "table", "--degree", "4", "--format", "json"], 0,
     "34ef39a340f9bd20107e1112e352bd6f7cae8aefe6dc72184384e91f411feaa3"),
    (["fock", "antisym", "ABCD"], 0,
     "900896490583727427f04a9b6c3d322d4efe6a16e4d131e5dcd6672718b631f9"),
    (["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0.2,0.3,0.5",
      "--runs", "300", "--seed", "3", "--dt", "0.02", "--steps", "6000"], 0,
     "14395015588af1614429c7d68509a512cd24b1fb39703cee72d0a0fce9326c28"),
    (["collapse", "run", "--scheme", "linear_noise", "--amps", "0.5,0.5",
      "--runs", "200", "--seed", "3", "--steps", "1000"], 0,
     "6b027c9d1e58a54cf8ff046a5012f0eab6dbb0107043613facbb2d5cafccb828"),
    (["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0.1,0.2,0.3,0.4",
      "--runs", "400", "--seed", "3", "--steps", "20000"], 0,
     "bb7a9d4eca1920ffd0964e0569eed9963b2ffda049a32519e494eed10c6787e6"),
    (["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0.15,0.85",
      "--runs", "500", "--seed", "2", "--dt", "0.05", "--steps", "2000"], 0,
     "1e3df5fc4dce3c8d2eb0f9b2f4d686215b3787eaecc30a45ec3ac2f3504d05a1"),
    (["collapse", "run", "--scheme", "nonlinear_ruin", "--amps", "0,0.4,0.6",
      "--runs", "300", "--seed", "5", "--dt", "0.0137", "--steps", "15000"], 0,
     "9c0dfb97f344c27075e04d23b947ef121382c7708b7910f89138751dcd9e6292"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_output_matches_golden_digest(argv, code, digest, tmp_path, capsys):
    out = tmp_path / "report.json"
    if argv[0] != "fock":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == code
    stdout = capsys.readouterr().out.encode("utf-8")
    report = out.read_bytes() if out.exists() else b""
    assert hashlib.sha256(stdout + b"\0" + report).hexdigest() == digest


# Interns every u/v variable of the spacetime golden command in the reverse
# of the order the command would meet them, then runs that command.
REVERSED_INTERN = """
import hashlib, io, os, sys, tempfile
from contextlib import redirect_stdout
from linqm import cli
from linqm.weyl import DiffOp, Var
for site in range(4, 0, -1):
    for slot in (2, 1):
        for fam in ("v", "u"):
            DiffOp.variable(Var(fam, slot, site, True))
            DiffOp.variable(Var(fam, slot, site))
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report.json")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(sys.argv[1:] + ["--out", out])
    with open(out, "rb") as fh:
        report = fh.read()
print(code, hashlib.sha256(buf.getvalue().encode("utf-8") + b"\\0" + report).hexdigest())
"""


def test_golden_digest_independent_of_intern_order():
    argv, code, digest = SPACETIME_N4
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", REVERSED_INTERN, *argv], env=env,
                            capture_output=True, text=True, timeout=300, check=True)
    assert result.stdout.split() == [str(code), digest]


@pytest.mark.parametrize("k", range(1, 6))
def test_permutation_sum_signs_match_sympy(k):
    """Distinct labels: each permuted ket appears once, with the permutation's
    signature (antisymmetrize) or +1 (symmetrize)."""
    labels = "ABCDE"[:k]
    product = fock.LabeledKet.of(*[(lbl, s + 1) for s, lbl in enumerate(labels)])
    anti = dict(fock.antisymmetrize(product).terms)
    sym = dict(fock.symmetrize(product).terms)
    assert len(anti) == len(sym) == math.factorial(k)
    for perm in itertools.permutations(range(k)):
        ket = product.permute_sets({s + 1: perm[s] + 1 for s in range(k)})
        assert anti[ket] == ONE * Permutation(list(perm)).signature()
        assert sym[ket] == ONE
