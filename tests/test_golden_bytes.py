"""Golden bytes of `construct`, `certify` and `reduce`.

Each construct case records the sha256 of the written code file, of the
`--gram-csv` export and of stdout (with the output directory replaced by
`<out>`); reading a construct output and rewriting it reproduces its
bytes.  The concat case's `angles` is the angle set the construction
declares, not detected points.  The read-side cases pin `certify --suite all --report` and
`reduce --t 6` on a lines28 file, on a Gram-only LS(12) file and on the
reduced LS(12) code, the bytes `write_code_file` writes for that Gram-only
file, and `project` and `verify --report` on it.  The digests pin the output
across refactors: a change that moves a single byte of any of them fails
here.  They hold at any OpenBLAS thread count: the exact constructions write
the correctly rounded factor of their exact sweep and their exact Gram, and
the other outputs go through no BLAS call whose rounding depends on the
thread count at these sizes.  Subprocess tests compare the construct bytes,
and the certify report and reduce sidecar of a Gram-only LS(150) file, at
one and at two threads.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from equicode.cli import EXIT_OK, read_code_file, rewrite_code_file, run, write_code_file
from equicode.constructions import lemmens_seidel_gram

# case -> (construct arguments, sha256 of json, of csv, of stdout)
GOLDEN = {
    "ls3": (["lemmens-seidel", "--n", "3"],
        "af02ed659ab4b3a7bf13c089e0e93016fe1009330fefa25aaabe780d82753870",
        "18160f42632d6323e9a0229041bafc6a916df86bfd1b2e3815dac85a645c2007",
        "1bd7d35b80bd8bed9f4b24bc327080c852598178ef1fe7d38de52246b8394a3b"),
    "ls10": (["lemmens-seidel", "--n", "10"],
        "97d4037796800935f45d3bffe4fd52a6eeda3c4122f455279972a759ec05e6a5",
        "2f29dc8b46ae8a13792de98e2c3a4337c8f090eb4edb365ef088b09e424d55e9",
        "1a5b92e3b8a05dcc7926758e45c48576fac04b217bd4d4fd74ba806b86405e9c"),
    "ls40": (["lemmens-seidel", "--n", "40"],
        "076664d62eaf6fc5551b9f50e1fa40e336f839155a5a43b50970d7509de6a87e",
        "d2ff41fd5dc5e0e9e7a1ddd599fe886d801b9492f410455138eb3b4912d0b979",
        "38df7f6405e2fd07db1d2bb45d1bdf1d90287a0b42028ba29e8dfb7b6eb9b562"),
    # the benchmark's largest construct (order 318); its sweep restarts on
    # the primitive part
    "ls160": (["lemmens-seidel", "--n", "160"],
        "bfb37e002b37d0bebbcb893b142e0759944af0635101ff9da57c9b906f1071fc",
        "629e278d4be733ddee272f01e6988ad74ca6e5958aa5bf7ed341262321ca895f",
        "d0e5e8ac73f8d2083a604ded89e124d00d8a73f0492099e09d77b9f36e0a19a8"),
    "oddrec9-3": (["odd-reciprocal", "--n", "9", "--r", "3"],
        "3e63b0119296e8fe63995a379adc1d8210496c590af664723b0a24a7a453c0b4",
        "ed8ddc5bc0accc72c029d6ec795039eab405b9db1bf59eb70f3365bdb98ba769",
        "20cf24fa9b263262e2b5a1aa8996a64578d31efa6e27f4d1ca5baca9b31048ed"),
    "oddrec100-3": (["odd-reciprocal", "--n", "100", "--r", "3"],
        "4038a59f9fa5ce39efef75f768c8a1ec8e441121add791df783e8de2ae314408",
        "31f14eb350aca09646afca6589bc5680f86e28f7e79e380868519fbbdbf4093e",
        "9bf0ac776ec0994e1ab4a338e523d1cd2f33adabbb7e816f4191162b63b4b92d"),
    "simplex4": (["simplex", "--r", "4"],
        "7a36768947e8b610fa495d99760318e50f7dcd78684a735aa6b24f6c079c723e",
        "5510f0d011a9439f6b3c38528a6257b5681922b8b1295dce8e1dbe20f6d66143",
        "9f87e912f35e7f80329fac62b35d5db71739da871d27f1c6e39f006ec1e19d53"),
    "simplex100": (["simplex", "--r", "100"],
        "8d9e601bf82291964eceec7441c71cee80db25626d3af25c6d489796cc34898a",
        "e818f7fe03752a0b406382fd8a1e2fdc61668512f82709c677b894bc187cb680",
        "d41fd05f0d86f72e3898f1a010b924c23cf4792a83b1fcd1c531acf73e5f8c90"),
    "lines28": (["lines28"],
        "771afe7b9225e083a1cb6f6024663737523095566037ae54d24be75173b0d744",
        "5d60fb6e52038ad23088f90df18f90691e0fd8f442cac9f9047223c9ecb3f383",
        "ff6f4653e3e97d87acd5a9d3281bfd5f2a123876a6fa57ce24e87097e530ce96"),
    "kcode6-3": (["binary-kcode", "--n", "6", "--k", "3"],
        "038fb07cd54b7adbaf74c3166ec764b9dc82321ee8912a3df5019df5df733c7d",
        "14e93a8f7383d85de09e6bd76913c870505747b060adfe4a49ea4dcf294abf56",
        "40716de8a1bc414cb7e0414a04984f8890793eec3b26b363d41d7853e2a160c1"),
    "concat9": (["concat", "--n", "9", "--k", "2", "--r", "3", "--alpha1", "0.5",
                 "--seed", "7"],
        "195e613eab06e9fa1bd3e30899ef0f003edf6abe05a834082a4cd5f237e2202a",
        "a25cd695e054b99731d6486d6d4b9d8677283182efe2bdda4a6cdc9d0a10298d",
        "4d22ffdd7bcf0acd46ef5e11430e8021798a5db5dad1ee9d0f58f7e4c5ff261a"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def construct_digests(case, tmp_path, capsys):
    args = GOLDEN[case][0]
    out, csv = tmp_path / f"{case}.json", tmp_path / f"{case}.csv"
    capsys.readouterr()
    assert run(["construct", *args, "--out", str(out), "--gram-csv", str(csv)]) == EXIT_OK
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<out>")
    return _sha(out.read_bytes()), _sha(csv.read_bytes()), _sha(stdout.encode("utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_construct_golden_bytes(case, tmp_path, capsys):
    assert construct_digests(case, tmp_path, capsys) == GOLDEN[case][1:]


# the benchmark's concat size -> sha256 of its file and of stdout; its
# --gram-csv export, 924 x 924 values, is not written
CONCAT22 = (["concat", "--n", "22", "--k", "2", "--r", "3", "--alpha1", "0.5", "--seed", "5"],
            "8e8bb4d1dc65e75e6a4c1ebd6a3f6ca6dba8b3bfbbc3bae0f6a3348a21dc3d5e",
            "f78e8d1b9371ea4b6035762241ba4549a84c37f138e9e5866761400f5551b493")

# runs every construct case in one process and prints each output's digests;
# a case given with csv false writes no --gram-csv
_DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from equicode.cli import run
out_dir, cases = sys.argv[1], json.loads(sys.argv[2])
digests = {}
for case, (args, csv) in cases.items():
    out, stdout = f"{out_dir}/{case}.json", io.StringIO()
    files = [out, f"{out_dir}/{case}.csv"] if csv else [out]
    export = ["--gram-csv", files[1]] if csv else []
    with contextlib.redirect_stdout(stdout):
        assert run(["construct", *args, "--out", out, *export]) == 0
    digests[case] = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in files]
    text = stdout.getvalue().replace(out_dir, "<out>")
    digests[case].append(hashlib.sha256(text.encode()).hexdigest())
print(json.dumps(digests))
"""


def _run_at_threads(threads: str, *argv) -> str:
    """stdout of ``python argv`` with the package on the path and
    OPENBLAS_NUM_THREADS set."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_construct_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the exact constructions' files, --gram-csv and stdout go through no
    # BLAS call whose rounding depends on the thread count; concat rotates
    # its copies with BLAS matmul and LAPACK qr, and its files are pinned
    # here at two sizes
    cases = {case: (GOLDEN[case][0], True) for case in GOLDEN}
    cases["concat22"] = (CONCAT22[0], False)
    digests = [json.loads(_run_at_threads(threads, "-c", _DIGEST_SCRIPT, str(tmp_path),
                                          json.dumps(cases)))
               for threads in ("1", "2")]
    want = {case: list(GOLDEN[case][1:]) for case in GOLDEN}
    want["concat22"] = list(CONCAT22[1:])
    assert digests[0] == digests[1] == want


# writes a seed-permuted Gram-only LS(150) file, then certifies and reduces it
_GRAM_ONLY_SCRIPT = """
import sys
import numpy as np
from equicode.cli import run, write_code_file
from equicode.constructions import lemmens_seidel_gram
out = sys.argv[1]
perm = np.random.default_rng(3).permutation(298)
write_code_file(f"{out}/ls150.json", 150, metadata={},
                gram=lemmens_seidel_gram(150).as_array()[np.ix_(perm, perm)])
assert run(["certify", f"{out}/ls150.json", "--suite", "all",
            "--report", f"{out}/report.json"]) == 0
assert run(["reduce", f"{out}/ls150.json", "--t", "6", "--out", f"{out}/reduced.json"]) == 0
"""


def test_gram_only_certify_and_reduce_do_not_depend_on_the_blas_thread_count(tmp_path):
    # both read the file's own Gram, and certify takes one values-only
    # spectrum, read only through thresholds; the reduced vectors still come
    # from eigh, so their file is not compared
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        _run_at_threads(threads, "-c", _GRAM_ONLY_SCRIPT, str(tmp_path / threads))
    for name in ("report.json", "reduced.json.reduction.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_read_rewrite_reproduces_golden_bytes(case, tmp_path):
    out, again = tmp_path / f"{case}.json", tmp_path / "again.json"
    assert run(["construct", *GOLDEN[case][0], "--out", str(out)]) == EXIT_OK
    rewrite_code_file(str(again), read_code_file(str(out)))
    assert _sha(again.read_bytes()) == GOLDEN[case][1]


# input file -> (sha256 of the certify --suite all report, of its stdout);
# all three carry the negative-clique SKIP reason "code has an inner product >= 0"
GOLDEN_CERTIFY = {
    "lines28": (
        "d4964e8cb5f6e52b42484a52b31bcc1b1f2617c590d505369ac39cef44118f82",
        "40d568c2dac9a1017e2e83893cfcd3571100e68ef582c39a683cb70b6ebbd4fc"),
    "ls12-gram": (
        "cf0465219532a56cd71062394f152ae8412d56460b837d6b92d7869bc6646b32",
        "40d568c2dac9a1017e2e83893cfcd3571100e68ef582c39a683cb70b6ebbd4fc"),
    "ls12-reduced": (
        "56704c0c6351d8a7857aaac09aa5a255a627961e0e4006784cb27b2604ad5ba3",
        "339be8b45cdc5828de911f7815fb1de1827031f1fd35f169a06a5febde5ab777"),
}

# sha256 of the reduce --t 6 output, of its sidecar and of stdout, on ls12-gram
GOLDEN_REDUCE = (
    "d6e775ab7df39a691e1982b596eef7cc249cca4bdeb055fae1db3956a3dd90ec",
    "e5ad4932a4d6669448c51e69240377b79a896b4adbec82279ade0a93a2cb2058",
    "e16d7285ffd3685cf4ed57ae0e215947fce24767625d8fab0f5e319792007bdf")


def _run_bytes(argv, tmp_path, capsys) -> str:
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    return _sha(capsys.readouterr().out.replace(str(tmp_path), "<out>").encode("utf-8"))


@pytest.fixture
def inputs(tmp_path):
    """The lines28 code, the Gram-only LS(12) file and its reduce --t 6 output."""
    files = {name: tmp_path / f"{name}.json" for name in GOLDEN_CERTIFY}
    assert run(["construct", "lines28", "--out", str(files["lines28"])]) == EXIT_OK
    write_code_file(str(files["ls12-gram"]), 12,
                    gram=lemmens_seidel_gram(12).as_array(), metadata={})
    assert run(["reduce", str(files["ls12-gram"]), "--t", "6",
                "--out", str(files["ls12-reduced"])]) == EXIT_OK
    return files


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFY))
def test_certify_golden_bytes(name, inputs, tmp_path, capsys):
    report = tmp_path / "report.json"
    stdout = _run_bytes(["certify", str(inputs[name]), "--suite", "all",
                         "--report", str(report)], tmp_path, capsys)
    assert (_sha(report.read_bytes()), stdout) == GOLDEN_CERTIFY[name]


def test_reduce_golden_bytes(inputs, tmp_path, capsys):
    out = tmp_path / "reduced.json"
    stdout = _run_bytes(["reduce", str(inputs["ls12-gram"]), "--t", "6", "--out", str(out)],
                        tmp_path, capsys)
    sidecar = tmp_path / "reduced.json.reduction.json"
    assert (_sha(out.read_bytes()), _sha(sidecar.read_bytes()), stdout) == GOLDEN_REDUCE


# sha256 of the Gram-only LS(12) file as `write_code_file` writes it
GOLDEN_GRAM_FILE = "03b3bdf774175087a5c39b2cf14e7a9358d5040a7b3c1a1dea552741eab6c8d5"

# sha256 of the project output off the positive clique 0,2,...,10 of
# ls12-gram and of its stdout
GOLDEN_PROJECT = (
    "4dab3c4ae3afed3ba0dcffbcc317cbc9d6998a65a78d5fc94f24ca2a7a2d99c2",
    "f472fe97340979eb3c00f47ecbea948a2d7ae1ad5e0886f7fe4651fcdeca27d6")

# sha256 of the verify --report file on ls12-gram against +-1/3 and of stdout
GOLDEN_VERIFY = (
    "b695a777b81af0338468352b056da2c5f4f6aca650568b81793c60f07a7d06dd",
    "2977d98591e6abb762720c4e60c5230f7a21cc6dbda811708f338b758328636b")
LS_ANGLE_SET = "point:-0.33333333333333331+point:0.33333333333333331"


def test_gram_file_golden_bytes(inputs):
    assert _sha(inputs["ls12-gram"].read_bytes()) == GOLDEN_GRAM_FILE


def test_project_golden_bytes(inputs, tmp_path, capsys):
    out = tmp_path / "projected.json"
    stdout = _run_bytes(["project", str(inputs["ls12-gram"]), "--clique", "0,2,4,6,8,10",
                         "--out", str(out)], tmp_path, capsys)
    assert (_sha(out.read_bytes()), stdout) == GOLDEN_PROJECT


def test_verify_golden_bytes(inputs, tmp_path, capsys):
    report = tmp_path / "verify.json"
    stdout = _run_bytes(["verify", str(inputs["ls12-gram"]), "--L", LS_ANGLE_SET,
                         "--report", str(report)], tmp_path, capsys)
    assert (_sha(report.read_bytes()), stdout) == GOLDEN_VERIFY
