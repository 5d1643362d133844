"""Golden bytes of `construct` for every exact construction.

Each case records the sha256 of the written code file, of the `--gram-csv`
export and of stdout (with the output directory replaced by `<out>`).  The
digests pin the output of the exact layer across refactors: a change that
moves a single byte of any construction fails here.
"""

import hashlib

import pytest

from equicode.cli import EXIT_OK, run

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
