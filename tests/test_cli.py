import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from equicode.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    GRAM_CSV_HEADER,
    _format_floats,
    canonical_json,
    load_code,
    parse_angle_set,
    read_code_file,
    rewrite_code_file,
    run,
    tolerance_from_env,
    write_code_file,
)
from equicode import gram_of, lemmens_seidel_code, regular_simplex
from equicode.errors import InvalidParams


def test_canonical_json_floats_round_trip():
    values = [0.1, 1 / 3, -2 / 3, 1e-17, 123456.789, 4.0, -0.0]
    text = canonical_json(values)
    back = json.loads(text)
    assert back == values


def test_canonical_json_rejects_non_finite():
    with pytest.raises(Exception):
        canonical_json(float("inf"))


def test_float_array_writer_tokens_match_format():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    edges = np.array([-0.0, 0.0, 5e-324, 1e-300, 1.2345678901234568e+17])
    values = np.concatenate([edges, values])
    expected = [format(x, ".17g") for x in values.tolist()]
    assert _format_floats(values)[0] == "[" + ",".join(expected) + "]"
    rows = _format_floats(values[:99_000].reshape(990, 100))
    assert [tok for row in rows for tok in row[1:-1].split(",")] == expected[:99_000]
    # the array path and the per-float path of canonical_json agree
    assert canonical_json(values[:1000].reshape(10, 100)) == \
        canonical_json(values[:1000].reshape(10, 100).tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_array_writer_refuses_non_finite(bad, tmp_path):
    rows = np.eye(3)
    rows[1, 2] = bad
    out = str(tmp_path / "bad.json")
    with pytest.raises(InvalidParams):
        write_code_file(out, 3, vectors=rows)
    with pytest.raises(InvalidParams):
        write_code_file(out, 3, gram=rows)
    with pytest.raises(InvalidParams):
        write_code_file(out, 3, vectors=np.eye(3),
                        metadata={"angles": np.array([0.5, bad, -0.5])})


def test_write_code_file_refuses_ragged_rows(tmp_path):
    out = str(tmp_path / "ragged.json")
    with pytest.raises(InvalidParams):
        write_code_file(out, 2, vectors=[[1.0, 0.0], [1.0]])
    with pytest.raises(InvalidParams):
        write_code_file(out, 2, gram=[[1.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(InvalidParams):
        write_code_file(out, 2, vectors=[1.0, 0.0])


def test_empty_arrays_write_the_same_bytes(tmp_path):
    out = tmp_path / "empty.json"
    head = '{"format_version":"1","dim":2,"vectors":'
    for rows, body in (([], "[]"), (np.empty((0, 2)), "[]"),
                       ([[], []], "[[],[]]"), (np.empty((2, 0)), "[[],[]]")):
        write_code_file(str(out), 2, vectors=rows)
        assert out.read_text() == head + body + ',"metadata":{}}\n'
    assert canonical_json(np.empty(0)) == "[]"
    assert canonical_json({"angles": np.empty(0)}) == '{"angles":[]}'


def test_construct_write_read_write_identical_bytes(tmp_path):
    out = tmp_path / "ls.json"
    assert run(["construct", "lemmens-seidel", "--n", "6",
                "--out", str(out)]) == EXIT_OK
    first = out.read_bytes()
    doc = read_code_file(str(out))
    rewrite_code_file(str(out), doc)
    assert out.read_bytes() == first


def test_negative_zero_survives_write_read_rewrite(tmp_path):
    # the simplex embedding writes -0.0, which canonical JSON spells "-0"
    out = tmp_path / "simplex100.json"
    assert run(["construct", "simplex", "--r", "100", "--out", str(out)]) == EXIT_OK
    first = out.read_bytes()
    assert b",-0," in first
    doc = read_code_file(str(out))
    assert any(x == 0 and math.copysign(1.0, x) < 0 for row in doc["vectors"] for x in row)
    rewrite_code_file(str(out), doc)
    assert out.read_bytes() == first


def test_construct_lines28_metadata(tmp_path):
    out = tmp_path / "lines28.json"
    assert run(["construct", "lines28", "--out", str(out)]) == EXIT_OK
    doc = read_code_file(str(out))
    assert doc["dim"] == 8
    assert doc["metadata"]["size"] == 28
    assert doc["metadata"]["gram_rank"] == 7


def test_construct_invalid_params_exit_code(tmp_path):
    out = tmp_path / "x.json"
    assert run(["construct", "lemmens-seidel", "--out", str(out)]) == EXIT_USAGE
    assert run(["construct", "lemmens-seidel", "--n", "2",
                "--out", str(out)]) == EXIT_USAGE


def test_construct_table_builds_every_name(tmp_path):
    from equicode.cli import CONSTRUCTIONS

    args = {"lemmens-seidel": ["--n", "5"], "odd-reciprocal": ["--n", "7", "--r", "3"],
            "lines28": [], "simplex": ["--r", "3"], "binary-kcode": ["--n", "5", "--k", "2"],
            "concat": ["--n", "9", "--k", "2", "--r", "2", "--alpha1", "0.5", "--seed", "3"]}
    assert list(args) == list(CONSTRUCTIONS)
    for name, extra in args.items():
        out = tmp_path / f"{name}.json"
        assert run(["construct", name, *extra, "--out", str(out)]) == EXIT_OK, name
        meta = read_code_file(str(out))["metadata"]
        assert meta["construction"] == name
        assert list(meta["parameters"]) == list(CONSTRUCTIONS[name][0])


def test_construct_unknown_name_and_missing_field_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    with pytest.raises(SystemExit) as exc:
        run(["construct", "hexacode", "--out", out])
    assert exc.value.code == EXIT_USAGE
    assert run(["construct", "concat", "--n", "9", "--k", "2", "--r", "2",
                "--out", out]) == EXIT_USAGE
    assert "construction requires --alpha1" in capsys.readouterr().err


def test_randomized_failure_exits_3(tmp_path, capsys, monkeypatch):
    from equicode import cli
    from equicode.errors import RandomizedFailure

    def fail(params):
        raise RandomizedFailure("no seed reached beta_target", worst_cross=None)

    monkeypatch.setattr(cli, "concatenated_code", fail)
    assert run(["construct", "concat", "--n", "22", "--k", "2", "--r", "2",
                "--alpha1", "0.5", "--out", str(tmp_path / "c.json")]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(
        "RandomizedFailure: no seed reached beta_target")


def test_verify_zero_tol_is_refused(tmp_path, capsys):
    # --tol 0 is an invalid tolerance, not "no --tol given"
    out = tmp_path / "lines28.json"
    run(["construct", "lines28", "--out", str(out)])
    spec = "point:-0.3333333333333333+point:0.3333333333333333"
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["verify", str(out), "--L", spec, "--tol", "0",
                "--report", str(report)]) == EXIT_USAGE
    assert "InvalidParams" in capsys.readouterr().err
    assert not report.exists()
    assert run(["verify", str(out), "--L", spec, "--tol=-1e-9"]) == EXIT_USAGE


@pytest.mark.parametrize("env_tol, argv_tol", [
    ("0", None), ("nan", None), ("inf", None), ("angle_tol=-1", None),
    ("eig_zero=inf", None), (None, "inf"), (None, "nan"), (None, "2"),
    ("eig_zero=2", None),
], ids=["env-zero", "env-nan", "env-inf", "env-negative-field", "env-inf-field",
        "tol-inf", "tol-nan", "tol-two", "env-eig-zero-two"])
def test_bad_tolerance_is_a_usage_error(env_tol, argv_tol, tmp_path, monkeypatch, capsys):
    # an angle_tol of 1 or more matches every pair: simplex pairs are -1/3,
    # so "point:0.9" would PASS vacuously; an eig_zero of 1 or more counts
    # every eigenvalue as zero
    src = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--r", "3", "--out", str(src)]) == EXIT_OK
    if env_tol is not None:
        monkeypatch.setenv("EQUICODE_TOL", env_tol)
    argv = ["verify", str(src), "--L", "point:0.9"]
    if argv_tol is not None:
        argv += ["--tol", argv_tol]
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "InvalidParams: every tolerance must lie strictly between 0 and 1\n"


@pytest.mark.parametrize("parts, alpha, beta, term", [
    ("0-1;2-3", "nan", "0.3", "alpha"),
    ("0-1;2-3", "inf", "0.3", "alpha"),
    ("0;1;2;3", "0.5", "nan", "beta"),
    ("0;1;2;3", "0.5", "inf", "beta"),
    ("0;1;2;3", "0.5", "0", "beta"),
    ("0;1;2;3", "0.5", "-0.3", "beta"),
], ids=["alpha-nan", "alpha-inf", "beta-nan", "beta-inf", "beta-zero", "beta-negative"])
def test_multipartite_refuses_non_finite_parameters(parts, alpha, beta, term, tmp_path,
                                                    capsys):
    src = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--r", "3", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert run(["certify", str(src), "--suite", "multipartite", "--parts", parts,
                "--alpha", alpha, "--beta", beta]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"SKIP multipartite: InvalidParams: {term} must be")


def test_derived_codes_keep_the_load_tolerance(tmp_path, monkeypatch, capsys):
    # vectors 1e-7 off unit length load at angle_tol 1e-6; the clique,
    # the switched code and the projected part must not be re-checked at 1e-9
    src = tmp_path / "ls6.json"
    code = lemmens_seidel_code(6)
    write_code_file(str(src), code.dim, vectors=(code.vectors * (1 + 1e-7)).tolist(),
                    metadata={})
    argvs = [["project", str(src), "--clique", "0,2", "--out", str(tmp_path / "p.json")],
             ["reduce", str(src), "--t", "2", "--out", str(tmp_path / "r.json")]]
    capsys.readouterr()
    assert run(argvs[0]) == EXIT_USAGE  # refused at the default tolerance
    assert "vectors must be unit length" in capsys.readouterr().err
    monkeypatch.setenv("EQUICODE_TOL", "1e-6")
    assert run(["certify", str(src), "--suite", "all"]) == EXIT_OK
    for argv in argvs:
        capsys.readouterr()
        assert run(argv) == EXIT_OK, capsys.readouterr().err


def test_construct_below_float_rounding_is_refused(tmp_path, monkeypatch, capsys):
    # the built vectors are ~1e-16 off unit length, and construct checks
    # them at the run's tolerance, as reading the file back would
    monkeypatch.setenv("EQUICODE_TOL", "1e-20")
    out = tmp_path / "s4.json"
    assert run(["construct", "simplex", "--r", "4", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidParams: vectors must be unit length")
    assert not out.exists()


def test_verify_lines28(tmp_path, capsys):
    out = tmp_path / "lines28.json"
    run(["construct", "lines28", "--out", str(out)])
    code = run(["verify", str(out),
                "--L", "point:-0.3333333333333333+point:0.3333333333333333"])
    assert code == EXIT_OK


def test_verify_simplex_interval(tmp_path):
    out = tmp_path / "s4.json"
    run(["construct", "simplex", "--r", "4", "--out", str(out)])
    assert run(["verify", str(out), "--L", "interval:-1,-0.25"]) == EXIT_OK


def test_verify_failure_lists_violations(tmp_path, capsys):
    out = tmp_path / "basis.json"
    write_code_file(str(out), 3, vectors=np.eye(3).tolist(),
                    metadata={"construction": "basis"})
    code = run(["verify", str(out), "--L", "point:0.5"])
    captured = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert captured.count("violation (") == 3
    assert "FAIL (3 violations)" in captured


def test_verify_parse_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad), "--L", "point:0"]) == EXIT_USAGE
    good = tmp_path / "s.json"
    run(["construct", "simplex", "--r", "2", "--out", str(good)])
    assert run(["verify", str(good), "--L", "nonsense:1"]) == EXIT_USAGE


def test_certify_gerzon_suite(tmp_path):
    out = tmp_path / "lines28.json"
    run(["construct", "lines28", "--out", str(out)])
    report = tmp_path / "report.json"
    assert run(["certify", str(out), "--suite", "gerzon",
                "--report", str(report)]) == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["certificates"][0]["name"] == "gerzon"
    assert doc["certificates"][0]["passed"] is True
    assert doc["certificates"][0]["statement"]


def test_certify_negclique_with_equality_witness(tmp_path):
    out = tmp_path / "s4.json"
    run(["construct", "simplex", "--r", "4", "--out", str(out)])
    assert run(["certify", str(out), "--suite", "negclique"]) == EXIT_OK


def test_negclique_skip_names_the_largest_inner_product(tmp_path, capsys):
    # LS(6) has inner products -1/3 and +1/3: the skip is for the positive one
    ls6, simplex = tmp_path / "ls6.json", tmp_path / "s4.json"
    run(["construct", "lemmens-seidel", "--n", "6", "--out", str(ls6)])
    run(["construct", "simplex", "--r", "4", "--out", str(simplex)])
    capsys.readouterr()
    assert run(["certify", str(ls6), "--suite", "negclique"]) == EXIT_OK
    assert capsys.readouterr().out == "SKIP negative-clique: code has an inner product >= 0\n"
    # a given --alpha reaches the certificate unchanged, which refuses it
    assert run(["certify", str(simplex), "--suite", "negclique", "--alpha", "-0.5"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "SKIP negative-clique: InvalidParams: alpha must lie in (0, 1]\n"


def test_certify_all_skips_inapplicable(tmp_path, capsys):
    out = tmp_path / "kcode.json"
    run(["construct", "binary-kcode", "--n", "4", "--k", "2", "--out", str(out)])
    code = run(["certify", str(out), "--suite", "all"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "SKIP" in captured  # gerzon and lambda do not apply
    assert "PASS dgs" in captured


def test_certify_schnirelman_on_reduced_code(tmp_path):
    src = tmp_path / "ls12.json"
    reduced = tmp_path / "reduced.json"
    run(["construct", "lemmens-seidel", "--n", "12", "--out", str(src)])
    assert run(["reduce", str(src), "--t", "6", "--out", str(reduced)]) == EXIT_OK
    assert run(["certify", str(reduced), "--suite", "schnirelman"]) == EXIT_OK
    sidecar = str(reduced) + ".reduction.json"
    side = json.loads(Path(sidecar).read_text())
    assert side["accounting_identity"] is True
    acc = side["accounting"]
    assert acc["size"] == acc["s_y"] + acc["others"] + acc["clique"]


def test_reduce_full_clique_writes_sidecar_only(tmp_path, capsys):
    src = tmp_path / "ls10.json"
    run(["construct", "lemmens-seidel", "--n", "10", "--out", str(src)])
    out = tmp_path / "red.json"
    assert run(["reduce", str(src), "--t", "9", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "sidecar only" in captured
    assert not out.exists()
    side = json.loads(Path(str(out) + ".reduction.json").read_text())
    assert side["accounting_identity"] is True
    assert side["projected_size"] == 0


def test_project_identity_on_orthonormal_input(tmp_path):
    src = tmp_path / "basis.json"
    write_code_file(str(src), 3, vectors=np.eye(3).tolist(), metadata={})
    out = tmp_path / "projected.json"
    assert run(["project", str(src), "--clique", "0", "--out", str(out)]) == EXIT_OK
    doc = read_code_file(str(out))
    assert np.allclose(np.array(doc["vectors"]), np.eye(3)[1:], atol=1e-12)


def test_project_non_clique_exit_code(tmp_path):
    src = tmp_path / "mixed.json"
    v = np.array([[1.0, 0, 0], [0, 1, 0], [0.6, 0.8, 0.0]])
    write_code_file(str(src), 3, vectors=v.tolist(), metadata={})
    out = tmp_path / "out.json"
    assert run(["project", str(src), "--clique", "0,2",
                "--out", str(out)]) == EXIT_RUNTIME


def test_reduce_no_positive_clique(tmp_path):
    src = tmp_path / "simplex.json"
    run(["construct", "simplex", "--r", "4", "--out", str(src)])
    out = tmp_path / "red.json"
    assert run(["reduce", str(src), "--t", "2", "--out", str(out)]) == EXIT_RUNTIME


def test_reduce_unsatisfiable_ls20_ends_fast(tmp_path, capsys):
    # the largest positive clique of LS(20) has 19 vertices
    src = tmp_path / "ls20.json"
    run(["construct", "lemmens-seidel", "--n", "20", "--out", str(src)])
    capsys.readouterr()
    out = tmp_path / "red.json"
    start = time.perf_counter()
    assert run(["reduce", str(src), "--t", "20", "--out", str(out)]) == EXIT_RUNTIME
    assert time.perf_counter() - start < 5.0
    assert "NoClique" in capsys.readouterr().err
    assert not out.exists()


def test_gram_only_files_are_embedded(tmp_path):
    src = tmp_path / "gram.json"
    g = gram_of(regular_simplex(3)).as_array()
    write_code_file(str(src), 3, gram=g.tolist(), metadata={})
    code, _ = load_code(str(src))
    assert len(code) == 4 and code.dim == 3
    assert run(["verify", str(src), "--L", "interval:-1,-0.33333333"]) == EXIT_OK


def test_gram_csv_export(tmp_path):
    out = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    run(["construct", "simplex", "--r", "2", "--out", str(out),
         "--gram-csv", str(csv)])
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == GRAM_CSV_HEADER
    assert len(lines) == 4
    row = [float(x) for x in lines[1].split(",")]
    assert abs(row[0] - 1.0) <= 1e-15


def test_concat_seed_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["construct", "concat", "--n", "12", "--k", "2", "--r", "2",
            "--alpha1", "0.5", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    doc = read_code_file(str(a))
    assert doc["metadata"]["size"] == 3 * math.comb(12, 2)
    assert "achieved_beta" in doc["metadata"]


def test_construct_concat_desk_scale(tmp_path):
    out = tmp_path / "concat.json"
    assert run(["construct", "concat", "--n", "30", "--k", "2", "--r", "3",
                "--alpha1", "0.5", "--seed", "7", "--out", str(out)]) == EXIT_OK
    doc = read_code_file(str(out))
    assert doc["metadata"]["size"] == 1740
    assert doc["dim"] == 33
    assert doc["metadata"]["attempts"] >= 1


def test_gram_file_padding_to_declared_dim(tmp_path):
    src = tmp_path / "gram.json"
    write_code_file(str(src), 3, gram=np.eye(2).tolist(), metadata={})
    code, _ = load_code(str(src))
    assert code.dim == 3 and len(code) == 2


def test_certify_multipartite_from_concat_metadata(tmp_path, capsys):
    out = tmp_path / "concat.json"
    run(["construct", "concat", "--n", "100", "--k", "1", "--r", "2",
         "--alpha1", "0.5", "--seed", "1", "--out", str(out)])
    code = run(["certify", str(out), "--suite", "multipartite"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS multipartite" in captured


_BASIS = [[1.0, 0.0], [0.0, 1.0]]
_CONCAT_META = {"construction": "concat", "parameters": {"n": None, "k": 1, "r": 1}}


@pytest.mark.parametrize("doc, exit_code, expected", [
    ([1], EXIT_USAGE, "InvalidParams"),
    ({"format_version": "1", "dim": 2, "vectors": 5, "metadata": {}},
     EXIT_USAGE, "InvalidParams"),
    ({"format_version": "1", "dim": 2, "vectors": _BASIS, "metadata": []},
     EXIT_USAGE, "InvalidParams"),
    ({"format_version": "1", "dim": 2, "vectors": _BASIS, "metadata": _CONCAT_META},
     EXIT_OK, "SKIP multipartite: no --parts given and none derivable"),
    ({"format_version": "1", "dim": 2, "vectors": _BASIS,
      "metadata": {"construction": "concat", "achieved_beta": "x",
                   "parameters": {"n": 2, "k": 1, "r": 0, "alpha1": 0.5}}},
     EXIT_OK, "SKIP multipartite: needs --alpha and a positive --beta"),
    ({"format_version": "1", "dim": 2, "vectors": _BASIS,
      "metadata": {"construction": "concat", "achieved_beta": -0.1,
                   "parameters": {"n": 2, "k": 1, "r": 0, "alpha1": 0.5}}},
     EXIT_OK, "SKIP multipartite: InvalidParams: beta must be positive and finite"),
    ({"format_version": "1", "dim": None, "vectors": _BASIS, "metadata": {}},
     EXIT_USAGE, "InvalidParams: dim must be a positive integer"),
    ({"format_version": "1", "dim": [2], "vectors": _BASIS, "metadata": {}},
     EXIT_USAGE, "InvalidParams: dim must be a positive integer"),
    ({"format_version": "1", "dim": 2.5, "vectors": _BASIS, "metadata": {}},
     EXIT_USAGE, "InvalidParams: dim must be a positive integer"),
    ({"format_version": "1", "dim": 2, "vectors": [[{}, 0.0], [0.0, 1.0]], "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be JSON numbers"),
    ({"format_version": "1", "dim": 2, "vectors": [["0.6", 0.8], [0.0, 1.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be JSON numbers"),
    ({"format_version": "1", "dim": 2, "vectors": [[True, False], [0.0, 1.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be JSON numbers"),
    ({"format_version": "1", "dim": 2, "gram": [[1.0, None], [None, 1.0]], "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be JSON numbers"),
    ({"format_version": "1", "dim": 3, "gram": [[1.0, 1.0, 1.0]], "metadata": {}},
     EXIT_USAGE, "InvalidParams: gram must be a square matrix"),
    ({"format_version": "1", "dim": 3, "gram": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: gram must be a square matrix"),
], ids=["top-level-list", "vectors-not-rows", "metadata-list", "concat-n-null",
        "concat-beta-string", "concat-beta-negative", "dim-null", "dim-list",
        "dim-fraction", "entry-object", "entry-string", "entry-bool", "gram-null",
        "gram-one-row", "gram-not-square"])
def test_malformed_code_file_is_refused_or_skipped(doc, exit_code, expected,
                                                   tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", str(path), "--suite", "multipartite"]) == exit_code
    captured = capsys.readouterr()
    assert expected in captured.out + captured.err


@pytest.mark.parametrize("argv, env_tol, term", [
    (["verify", "{src}", "--L", "point:abc"], None, "point:abc"),
    (["verify", "{src}", "--L", "interval:1"], None, "interval:1"),
    (["project", "{src}", "--clique", "a", "--out", "{out}"], None, "a"),
    (["certify", "{src}", "--suite", "multipartite", "--parts", "0-x"], None, "0-x"),
    (["verify", "{src}", "--L", "point:0"], "angle_tol", "angle_tol"),
], ids=["point-not-a-number", "interval-one-bound", "clique-not-an-index",
        "parts-range-not-an-index", "env-tol-not-a-number"])
def test_malformed_argument_is_a_typed_refusal(argv, env_tol, term, tmp_path, monkeypatch,
                                               capsys):
    src = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--r", "3", "--out", str(src)]) == EXIT_OK
    if env_tol is not None:
        monkeypatch.setenv("EQUICODE_TOL", env_tol)
    capsys.readouterr()
    argv = [a.format(src=src, out=tmp_path / "out.json") for a in argv]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("InvalidParams: ") and repr(term) in err


def test_boolean_in_metadata_leaves_numeric_rows_accepted(tmp_path):
    # "true" in the text sends the reader to the exact per-entry lookup,
    # which must accept rows of 0 and 1 that are numbers
    path = tmp_path / "flagged.json"
    path.write_text(json.dumps({"format_version": "1", "dim": 2, "vectors": [[1, 0], [0, 1]],
                                "metadata": {"flag": True}}))
    doc = read_code_file(str(path))
    assert doc["vectors"].tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_writer_refuses_boolean_entries(tmp_path):
    with pytest.raises(InvalidParams, match="JSON numbers"):
        write_code_file(str(tmp_path / "b.json"), 2, vectors=[[True, 0.0], [0.0, 1.0]])


def test_parse_angle_set_grammar():
    aset = parse_angle_set("interval:-1,-0.25+point:0.5", 1e-9)
    assert aset.intervals == ((-1.0, -0.25),)
    assert aset.points == (0.5,)


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("EQUICODE_TOL", "1e-6")
    tol = tolerance_from_env()
    assert tol.angle_tol == 1e-6
    monkeypatch.setenv("EQUICODE_TOL", "psd_slack=1e-7,angle_tol=1e-5")
    tol = tolerance_from_env()
    assert tol.psd_slack == 1e-7 and tol.angle_tol == 1e-5
    monkeypatch.delenv("EQUICODE_TOL")
    assert tolerance_from_env().angle_tol == 1e-9


def test_certify_dgs_on_concat_n14_within_budget(tmp_path, capsys):
    # 364 vectors with 49,673 detected angle points; the report is pinned
    src, report = tmp_path / "concat14.json", tmp_path / "dgs.json"
    assert run(["construct", "concat", "--n", "14", "--k", "2", "--r", "3",
                "--alpha1", "0.5", "--seed", "7", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["certify", str(src), "--suite", "dgs", "--report", str(report)]) == EXIT_OK
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == "PASS dgs: |C| <= C(rank + |L|, |L|)\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "c39ef8fa123241d7ebb1a8be25b6964b0ea881732e07e70bff6254ce476b4dc2"
