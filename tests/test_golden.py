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
at a time to cumulative sums over blocks of steps; the ``fock car`` digests
before the ladder operators moved from ``scipy.sparse`` matrices to signed
partial permutations; the one-site lie digests of the other eight sets, the
laplacian and oscillator hermiticity digests and the degree-3 text repr
table before the named operator sets moved into one registry; the
two-site scaling digest when ``verify scaling`` first reported the search;
the lemmas digest when ``verify lemmas`` first reported the variational
and phase-separation lemmas in exact arithmetic.
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
    (["verify", "hermiticity", "--set", "laplacian", "--n", "2"], 0,
     "6c135b9932700b2b8b6f591e6e17d0d752d5638e4116f0fdbff1b6ff04e47df3"),
    (["verify", "hermiticity", "--set", "oscillator", "--n", "2"], 0,
     "e9a4edae44281025592f2febcbbd7e1d3108ab4e76ad79f6f141bb477f094d74"),
    (["repr", "table", "--degree", "3"], 0,
     "983b35872d74ea4a2e1d9997dbc769e38ec9fe8b20a362435faacdd739e6f8fa"),
    (["verify", "scaling", "--set", "translations-reconstructed", "--n", "2"], 0,
     "5c605b5a905e20c7ca25385b39f153924b97bf9deacb307b3fe857ced471c4e9"),
    (["verify", "lemmas"], 0,
     "fc9b69c010a807bc11e11da8356113fb51ad7693fd12f075b469b3aec3235a60"),
]

# verify lie --set S --n 1: (set, exit code, digest).
LIE_ONE_SITE = [
    ("xyz", 0, "f90bd1e64443e34969b7a16e9113b8af2bf17c0470ebe255b390885a6f970a47"),
    ("su2", 0, "0ee34477158b9ee8a483d6ac14120f037173319793938e63ab0470d802fcf2fc"),
    ("lorentz", 0, "351c736c114378d91f60f297493912df173ccfea4ce7f3556af1d13eab38d5a0"),
    ("translations", 0,
     "7083910893c999eeab487208573c6fa3ccefd0843275356e5577c8c971cd85a3"),
    ("translations-reconstructed", 0,
     "5b70555114be3461704ab4e1039f34b64c51733d35b2b99dcc65ef163bbef440"),
    ("poincare", 2, "d2ed03ee1efc3f994067fca1e2c79f8cad85fdca5824099dca48f355a5b1224b"),
    ("poincare-mutated", 2,
     "b65e4293ba027074dbf8e067c35007ca612ad01fc845621e3af1cb900229aa3f"),
    ("sun", 0, "ad959b130fd6891b6de5a2c23ca6d01bfcf6c8c332979b7e258da41f95fb7057"),
]
GOLDEN += [(["verify", "lie", "--set", name, "--n", "1"], code, digest)
           for name, code, digest in LIE_ONE_SITE]

# fock car --modes M [--printed-variant] for M = 1..6:
# (modes, format, printed variant, exit code, digest).
FOCK_CAR = [
    (1, "text", False, 0,
     "408d30afbc36aad45176a21400945f816e4dd612a2fc6e76e26b4e1d967871b0"),
    (1, "text", True, 0,
     "25caf32a0b3f724ff295787bab3cfdaf796d40a222dda76e0602f41bc7083d5f"),
    (1, "json", False, 0,
     "f2676887952f62b856b9b7d564647760316d121fb4de74ada7dbd5798e052a0a"),
    (1, "json", True, 0,
     "9c96a6143e7b4c86a405ac69f7ec30d2280cba3258a28c7adc493ddabbbce736"),
    (2, "text", False, 0,
     "d7f3b607d2640b7334d56fc42a1efe5be737dfa1c9fda51c337b95da1fc06599"),
    (2, "text", True, 2,
     "4476de28fb8441bf268e59f3d9b3aaacf26e3556e0657a2d037f69927c5260a7"),
    (2, "json", False, 0,
     "27e48403e4e099d069931bfbbe8919b47346742380608791d41e4ff5fefe53a3"),
    (2, "json", True, 2,
     "4710558279310355debf2becb2201ffe819eb1dbe86b7a593b1a199f81f3f317"),
    (3, "text", False, 0,
     "18a04395acf15c36400e158bf0382f5f38ae5c5688ece7139983c66d3308cd5b"),
    (3, "text", True, 2,
     "50b943cf0c9893a51eb0ba2f74f37773d7fce4a4e5c3f634397174d76445315c"),
    (3, "json", False, 0,
     "874d51b21b4ef2a17dee9fce3643954031d4d8a441445beb0ad4771d8dda5e47"),
    (3, "json", True, 2,
     "695cbda4c957dafcd9c6f2b2e6c769bc24dd011d50f785f013d2c979b95117d2"),
    (4, "text", False, 0,
     "95956d3393d6629600c3accf693e7baaf14fbdf0cb182b2e0715ccfffe5205bf"),
    (4, "text", True, 2,
     "b3790180b12aa1a3e08fbdbbf97e273a9fc0fda29d28e5d5b3bcec44ea59936f"),
    (4, "json", False, 0,
     "d6668523b9c1371a362d129fc5436f9d6f55c9a49a23e92894993174bb4150f4"),
    (4, "json", True, 2,
     "4a917874e027f65b74dce3b152811cf8535dd9aff57f2796ad567d08a501a904"),
    (5, "text", False, 0,
     "2fbdeb8dfd4a4fec69e34aa70d40dbd27f17d16421892a07ebdad27131307bc0"),
    (5, "text", True, 2,
     "f8bedd4fd74dda9f32a128acaa30c9bcc3545b39271a471f2080054fbe88d460"),
    (5, "json", False, 0,
     "67467b0ae53bc5f3be1d79d825142d49d3cd07c737f9d9d601aab34360d7ca3a"),
    (5, "json", True, 2,
     "9d01f3f7852245035da3d3fa3c197a498ad04cc02e61e282f929c15d6bc664a5"),
    (6, "text", False, 0,
     "8936aec403f13563b8ba4c48d5855325e377abb21c518719f3038b7c11f391f0"),
    (6, "text", True, 2,
     "b655914b001aaa5ee03f503346aeeb2635a9f741602176aaa7065455e8190aef"),
    (6, "json", False, 0,
     "61b95ceebbffd5a5cedd3cb9feb5e5afb0d8bc22e261397b872757242bda29c7"),
    (6, "json", True, 2,
     "7d0a298a93b03208408ffb9f5eb623ca07104f560c5b41e9d098d9398d49a6ac"),
]
GOLDEN += [(["fock", "car", "--modes", str(m), "--format", fmt]
           + (["--printed-variant"] if variant else []), code, digest)
           for m, fmt, variant, code, digest in FOCK_CAR]


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
