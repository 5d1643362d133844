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
here.  They are the digests of numpy on multithreaded OpenBLAS; with one
OpenBLAS thread, ``eigh`` and ``vectors @ vectors.T`` round differently, and
the oddrec100-3 and simplex100 construct digests do not hold.
"""

import hashlib

import pytest

from equicode.cli import EXIT_OK, read_code_file, rewrite_code_file, run, write_code_file
from equicode.constructions import lemmens_seidel_gram

# case -> (construct arguments, sha256 of json, of csv, of stdout)
GOLDEN = {
    "ls3": (["lemmens-seidel", "--n", "3"],
        "b638055851303a13b3be7876e6675b764ee8b555b790143445c86c434b86bc57",
        "b19aec470964cea96926a6c0dc3606f0d302f77f21f05ac05c3ffeea41c94781",
        "5b498e3b24b853847cfda5ab9c4ccb93be354093b6c11e28ebed6ec0a3949f73"),
    "ls10": (["lemmens-seidel", "--n", "10"],
        "b3a4e6d3c8a8ad0157d880ac43d875ed64a309ccb0e2a5a11f8eb188cf987698",
        "5fbfb578224f7a9b764f60ea98286e76c0ea52434aa3a6f6f156fa31154e8a79",
        "b83684ea974a3db78c1cc9159bec65f4aa22a0001f69f9cb3a4a93ed27f4583a"),
    "ls40": (["lemmens-seidel", "--n", "40"],
        "9206a8bd448fdcbc341bbb80cea6c7a904f52f430f0736591a2810b6b48b1d26",
        "a136ad6972f7ce2fd3d731f5f95aa8667c1fc4f4ded29cd6a7a17d9ca88bb83a",
        "2cc405ba8cd6881b13f9fe41b1c93834aa206fd467ea30ec44deeeaa4b751d15"),
    "oddrec9-3": (["odd-reciprocal", "--n", "9", "--r", "3"],
        "a82339f5f008c330e76f44f9ca3c122f1e61ba8e46736b908a8ee6fc506bde11",
        "d8ee37427fe5545b03505ac4970a83a51429be4f073ca41bd0b6fddb13de4629",
        "641002963df3d024d6edec9b648d9b5e6c0a66a3e7fab602b2e6cfca92c14272"),
    "oddrec100-3": (["odd-reciprocal", "--n", "100", "--r", "3"],
        "531224c9571c094f6044a9c396e560278e1ab63f9fec643a53bec3f52a97516b",
        "df5de4d53d0af5219a84b1bd720b319699d84d1ba4e481df6a9ecd9d56aed7cd",
        "65082bee1ca9c24dfcff08a098fe38f285aaf4887b350e931f664de2404e87ec"),
    "simplex4": (["simplex", "--r", "4"],
        "1d6fd1c67f37a53bc0fb6f4b426271f5028d6b4ae6cbcfc75a6f3762aaff95a9",
        "003018f5713fdd76e39cf1cd1348fdf83d9eaf06d3c13cc8decc7032375f93bc",
        "9f87e912f35e7f80329fac62b35d5db71739da871d27f1c6e39f006ec1e19d53"),
    "simplex100": (["simplex", "--r", "100"],
        "27f815ab40eda59e0445f5c7ada8a6dac9b4a550560b5ef0802322a3f6484fc5",
        "36ed93d34a8e543c02ad524d794f5bf89a029a3aff22600633646db2514a012f",
        "e61cb6e9a38258f8f38a53432b2414aeadb1de00883c306acaf15cf91155b0cc"),
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
        "5be2fe27b689e538620cbb1e28068172770cff5dcb98b022430af8ba68e0979c",
        "4758b18c4c9cd183f3c21e57cad064390af533739026064c616cde15840f7e69",
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
        "e5d3c1e282a603ff6d5840dd120aa64c3f4919fed9c1e7d3c426f382949e4e2b",
        "40d568c2dac9a1017e2e83893cfcd3571100e68ef582c39a683cb70b6ebbd4fc"),
    "ls12-reduced": (
        "bb740cf3b8a6e34757923b4fac3b77824a84f4416b73591e1545db39c4f49ae8",
        "339be8b45cdc5828de911f7815fb1de1827031f1fd35f169a06a5febde5ab777"),
}

# sha256 of the reduce --t 6 output, of its sidecar and of stdout, on ls12-gram
GOLDEN_REDUCE = (
    "4e822034bf63bb7fffe1ed846624e6b68b1aacd08f85df93ba42848c4af72207",
    "4ca49856d1123fe965c8dd1bf6269c7f80bfa3859da0be64bee298a0315f06aa",
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
    "bcac81e28c129077ad0b4ccf07ab525cc958e44669ec1df270c27a18f0cbfbe0",
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
