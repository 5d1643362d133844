import hashlib
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equicode import cli
from equicode.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    GRAM_CSV_HEADER,
    _format_floats,
    _json_int,
    angle_set_spec,
    canonical_json,
    load_code,
    parse_angle_set,
    read_code_file,
    rewrite_code_file,
    run,
    tolerance_from_env,
    write_code_file,
)
from equicode import (
    DEFAULT_TOL,
    AngleSet,
    gram_of,
    lemmens_seidel_code,
    lemmens_seidel_gram,
    project_onto_complement,
    regular_simplex,
)
from equicode.errors import InternalError, InvalidParams


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


# (sep, open_, close) of each use of the writer: canonical JSON, the
# --gram-csv rows and the angles line of construct
_WRITER_FORMS = [(",", "[", "]"), (",", "", "\n"), (", ", "", "")]


def _rows_by_format(a, sep=",", open_="[", close="]"):
    """The writer's rows, built one format(x, ".17g") at a time."""
    rows = a.reshape(1, -1) if a.ndim == 1 else a
    return [open_ + sep.join(format(x, ".17g") for x in row) + close
            for row in rows.tolist()]


@st.composite
def _writer_arrays(draw):
    """Few-valued rows, 0.0 and -0.0 among the values, that may turn
    all-distinct at some row, as a 2-D or a 1-D array."""
    shape = draw(st.tuples(st.integers(0, 9), st.integers(0, 9)))
    pool = np.array(draw(st.lists(st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.choice(pool, size=shape)
    turn = draw(st.integers(0, shape[0]))
    a[turn:] = (rng.standard_normal((shape[0] - turn, shape[1]))
                * 10.0 ** rng.integers(-30, 30, (shape[0] - turn, shape[1])))
    return a.reshape(-1) if draw(st.booleans()) else a


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_writer_arrays(), st.sampled_from(_WRITER_FORMS))
def test_float_array_writer_rows_match_format(a, form):
    assert _format_floats(a, *form) == _rows_by_format(a, *form)


def _count_misses(monkeypatch) -> list:
    """The values the writer's token memo formats, in the order it does."""
    missed = []

    class Counting(cli._TokenMemo):
        def __missing__(self, key):
            value = super().__missing__(key)
            missed.append(key)
            return value

    monkeypatch.setattr(cli, "_TokenMemo", Counting)
    return missed


def test_float_array_writer_formats_each_distinct_value_once(monkeypatch):
    missed = _count_misses(monkeypatch)
    a = np.random.default_rng(5).choice([1.0, 1 / 3, -1 / 3], size=(600, 600))
    assert _format_floats(a) == _rows_by_format(a)
    assert sorted(missed) == [-1 / 3, 1 / 3, 1.0]


def test_float_array_writer_all_distinct_memoises_one_row(monkeypatch):
    missed = _count_misses(monkeypatch)
    a = np.random.default_rng(6).standard_normal((586, 300))
    assert _format_floats(a) == _rows_by_format(a)
    assert missed == a[0].tolist()  # then every other row by its template


@pytest.mark.parametrize("turn", [1, 5, 12])
def test_float_array_writer_falls_back_when_rows_turn_distinct(turn, monkeypatch):
    missed = _count_misses(monkeypatch)
    rng = np.random.default_rng(turn)
    a = rng.choice([0.0, 0.5, 1.0], size=(40, 10))
    a[turn:] = rng.standard_normal((40 - turn, 10))
    assert _format_floats(a) == _rows_by_format(a)
    # the memo stops after the first row that leaves it more than half full
    seen, distinct = 0, set()
    for k, row in enumerate(a.tolist()):
        seen += len(row)
        distinct.update(row)
        if 2 * len(distinct) > seen:
            break
    assert turn <= k < 40
    assert len(missed) == len(set(missed)) and set(missed) == distinct


@pytest.mark.parametrize("shape", [(5000,), (1, 5000), (3, 5000)])
def test_float_array_writer_stops_memoising_at_the_cap(shape, monkeypatch):
    missed = _count_misses(monkeypatch)
    a = np.random.default_rng(7).standard_normal(shape)
    assert _format_floats(a) == _rows_by_format(a)
    assert len(missed) == cli._TOKEN_MEMO_CAP


@pytest.mark.parametrize("form", _WRITER_FORMS)
def test_float_array_writer_keeps_negative_zero_apart(form, monkeypatch):
    # a dict takes -0.0 for 0.0, so the array is formatted by template alone
    missed = _count_misses(monkeypatch)
    a = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]] * 50)
    assert _format_floats(a, *form) == _rows_by_format(a, *form)
    assert _format_floats(a)[:2] == ["[0,-0,1]", "[-0,0,1]"]
    assert missed == []
    assert _format_floats(np.array([0.0, 1.0, 0.0]), *form) == \
        _rows_by_format(np.array([0.0, 1.0, 0.0]), *form)
    assert sorted(missed) == [0.0, 1.0]


def _golden_writer_array() -> np.ndarray:
    """An all-distinct 40 x 25 array: seeded normals at decimal exponents
    -30..30, then -0.0, +-1, values below 1e-4 (scientific notation), 1e16,
    1e17, integers with trailing zeros, a decimal tie (1 + 2**-17 has 18
    significant digits, the last a 5) and doubles just below a power of ten
    whose 17 digits round up to it (1e-14, 1e98)."""
    rng = np.random.default_rng(31)
    scale = np.array([float(f"1e{e}") for e in rng.integers(-30, 31, 1000)])
    a = rng.standard_normal(1000) * scale
    a[:16] = [-0.0, 1.0, -1.0, 1e16, 1e17, 3.5e-5, -1.2345e-7, 1e-4,
              math.nextafter(1e-4, 0.0), 487360.0, 10.0, -1e22, 1 + 2.0**-17, 5e-324,
              1e-14, -1e98]
    return a.reshape(40, 25)


def test_float_array_writer_golden_digest():
    # the bytes of every writer form on an array no memo can shorten
    a = _golden_writer_array()
    assert np.unique(a).size == a.size and np.signbit(a).any()
    text = "\n".join(row for form in _WRITER_FORMS
                     for row in _format_floats(a, *form) + _format_floats(a.ravel(), *form))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "68b8332d78d74c96da3d2cd93fba3b03f56aa7aa055c2895c03c4c439e0a814c"


def _nearest_tie(n: int, e: int) -> float:
    """The double nearest (n + 1/2) * 10**e, for a 17-digit n."""
    return float(f"{n}5e{e - 1}")


_HARD_FLOATS = st.one_of(
    st.builds(_nearest_tie, st.integers(10**16, 10**17 - 1), st.integers(-30, 30)),
    st.builds(lambda k, step: float(np.nextafter(float(f"1e{k}"), step * math.inf)
                                    if step else float(f"1e{k}")),
              st.integers(-300, 300), st.sampled_from([-1, 0, 1])),
    st.builds(lambda m, j: float(m * 10**j), st.integers(1, 10**6), st.integers(0, 22)),
    st.builds(lambda bits: float(np.uint64(bits).view(np.float64)),
              st.integers(1, 2**52 - 1)),  # subnormals
    st.floats(min_value=1e290, max_value=1.7e308),
    st.floats(min_value=5e-324, max_value=1e-290),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(_HARD_FLOATS, st.booleans()), min_size=1, max_size=60),
       st.integers(1, 6), st.sampled_from(_WRITER_FORMS))
def test_float_array_writer_hard_inputs_match_format(draws, width, form):
    # decimal ties and their neighbours, powers of ten and the doubles next
    # to them, integers ending in zeros, subnormals and the extreme exponents;
    # a -0.0 first sends the whole array past the token memo
    values = [-0.0] + [-x if neg else x for x, neg in draws]
    values += [0.5] * (-len(values) % width)
    a = np.array(values)
    assert _format_floats(a, *form) == _rows_by_format(a, *form)
    assert _format_floats(a.reshape(-1, width), *form) == \
        _rows_by_format(a.reshape(-1, width), *form)


def test_float_array_writer_bulk_matches_format_within_budget():
    # 10**6 tokens: random bit patterns (every exponent, subnormals, the
    # values the kernel hands back to "%.17g") and unit-vector coordinates
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, size=500_000, dtype=np.uint64, endpoint=False).view(np.float64)
    bits = bits[np.isfinite(bits)]
    units = rng.standard_normal(((1_000_000 - bits.size) // 50 + 1, 50))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    a = np.concatenate([bits, units.ravel()])[:1_000_000]
    start = time.perf_counter()
    text = _format_floats(a)[0]
    assert time.perf_counter() - start < 2.0
    pos = 0  # compared a slice at a time, so few Python floats and strings are held at once
    for lo in range(0, a.size, 50_000):
        expected = ("," if lo else "[") + ",".join(
            format(x, ".17g") for x in a[lo:lo + 50_000].tolist())
        assert text[pos:pos + len(expected)] == expected, f"values from {lo}"
        pos += len(expected)
    assert text[pos:] == "]"


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e16, 1e17, 1e-5,
                               0.0001, 1 / 3, 1 + 2.0**-17, 1.7976931348623157e308,
                               np.float64(-0.5), np.float32(0.1)])
def test_canonical_json_edge_scalars(x):
    assert canonical_json(x) == format(float(x), ".17g")
    assert canonical_json([x]) == "[" + format(float(x), ".17g") + "]"
    assert json.loads(canonical_json(x)) == float(x)


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
    for shape, rows in (((0,), ["[]"]), ((0, 4), []), ((1, 0), ["[]"]), ((2, 0), ["[]", "[]"])):
        assert _format_floats(np.empty(shape)) == rows


def test_construct_write_read_write_identical_bytes(tmp_path):
    out = tmp_path / "ls.json"
    assert run(["construct", "lemmens-seidel", "--n", "6",
                "--out", str(out)]) == EXIT_OK
    first = out.read_bytes()
    doc = read_code_file(str(out))
    rewrite_code_file(str(out), doc)
    assert out.read_bytes() == first


def test_negative_zero_survives_write_read_rewrite(tmp_path):
    # negating the simplex embedding turns its zeros into -0.0, which
    # canonical JSON spells "-0"
    out = tmp_path / "simplex100.json"
    write_code_file(str(out), 100, vectors=-regular_simplex(100).vectors, metadata={})
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

    def fail(params, tol):
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


@pytest.mark.parametrize("parts", ["0-8;9-17;18-26;27-35;40-39", "0-8;9-17;18-26;27-35;"],
                         ids=["reversed-range", "trailing-separator"])
def test_multipartite_refuses_an_empty_part(parts, tmp_path, capsys):
    src, report = tmp_path / "c9k1.json", tmp_path / "report.json"
    assert run(["construct", "concat", "--n", "9", "--k", "1", "--r", "3", "--alpha1", "0.5",
                "--seed", "7", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert run(["certify", str(src), "--suite", "multipartite", "--beta", "0.05",
                "--parts", parts, "--report", str(report)]) == EXIT_OK
    assert capsys.readouterr().out == \
        "SKIP multipartite: InvalidParams: parts must be non-empty\n"
    cert, = json.loads(report.read_text())["certificates"]
    assert cert["skipped"] and cert["witness"] is None


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
    out = tmp_path / "s5.json"
    assert run(["construct", "simplex", "--r", "5", "--out", str(out)]) == EXIT_USAGE
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


@pytest.mark.parametrize("spec, tol, want", [
    ("point:-0.5+point:0.5", "0.6", EXIT_USAGE),             # [-1.1, 0.1] + [-0.1, 1.1]
    ("interval:-1,0.2+point:0.7", "0.35", EXIT_USAGE),       # [-1.35, 0.55] + [0.35, 1.05]
    ("point:-0.5+point:0.5", "0.4", EXIT_OK),                # a gap around 0
    ("interval:-1,0.2+point:0.7", "0.29", EXIT_OK),          # a gap above 0.99
], ids=["two-points", "interval-and-point", "gap-in-the-middle", "gap-at-the-top"])
def test_verify_refuses_an_angle_set_that_covers_every_value(tmp_path, capsys, spec, tol,
                                                             want):
    out, report = tmp_path / "s4.json", tmp_path / "report.json"
    run(["construct", "simplex", "--r", "4", "--out", str(out)])
    capsys.readouterr()
    assert run(["verify", str(out), "--L", spec, "--tol", tol,
                "--report", str(report)]) == want
    captured = capsys.readouterr()
    if want == EXIT_USAGE:
        assert captured.out == "" and not report.exists()
        assert captured.err == (f"InvalidParams: the angle set widened by angle_tol {tol} "
                                "covers [-1, 1], so every code would pass\n")
    else:
        assert captured.out.endswith("PASS\n") and report.exists()


def test_memory_error_is_a_typed_refusal(monkeypatch, capsys):
    from equicode import cli

    def out_of_memory(args, tol):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_construct", out_of_memory)
    assert run(["construct", "simplex", "--r", "3", "--out", "unused.json"]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "TooLarge: the input needs more memory than is available\n"


def test_construct_simplex_300_within_budget(tmp_path, capsys):
    # the Bareiss minors of this Gram pass int64 after 5 of its 301 steps
    start = time.perf_counter()
    assert run(["construct", "simplex", "--r", "300", "--out", str(tmp_path / "s.json")]) \
        == EXIT_OK
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out.startswith("simplex: 301 vectors in R^300 -> ")


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


@pytest.mark.parametrize("sidecar", ["red.json", "./sub/../red.json"])
def test_reduce_refuses_a_sidecar_that_is_its_output(sidecar, tmp_path, capsys, monkeypatch):
    src = tmp_path / "ls10.json"
    run(["construct", "lemmens-seidel", "--n", "10", "--out", str(src)])
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run(["reduce", str(src), "--t", "6", "--out", "red.json",
                "--sidecar", sidecar]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("InvalidParams: --sidecar and --out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ls10.json", "sub"]


@pytest.mark.parametrize("argv, flag", [
    (["certify", "ls10.json", "--suite", "gerzon", "--report", "{same}"], "--report"),
    (["verify", "ls10.json", "--L", "point:-0.33333333333333331+point:0.33333333333333331",
      "--report", "{same}"], "--report"),
    (["reduce", "ls10.json", "--t", "1", "--out", "red.json", "--sidecar", "{same}"],
     "--sidecar"),
])
@pytest.mark.parametrize("same", ["ls10.json", "./sub/../ls10.json"])
def test_a_report_or_sidecar_that_is_the_input_is_refused(argv, flag, same, tmp_path,
                                                          capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    run(["construct", "lemmens-seidel", "--n", "10", "--out", "ls10.json"])
    before = (tmp_path / "ls10.json").read_bytes()
    capsys.readouterr()
    assert run([a.format(same=same) for a in argv]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"InvalidParams: {flag} and the input name")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ls10.json", "sub"]
    assert (tmp_path / "ls10.json").read_bytes() == before
    assert run(["certify", "ls10.json", "--suite", "gerzon"]) == EXIT_OK


def test_a_reversed_interval_is_named_as_such(tmp_path, capsys):
    src = tmp_path / "s.json"
    run(["construct", "simplex", "--r", "3", "--out", str(src)])
    capsys.readouterr()
    assert run(["certify", str(src), "--suite", "dgs", "--L", "interval:0.5,0.2"]) == EXIT_USAGE
    assert capsys.readouterr().err == ("InvalidParams: interval [0.5, 0.2] is reversed: "
                                       "its lower end exceeds its upper end\n")
    for bad in ("interval:0.5,1", "interval:-1.5,0.2", "interval:nan,0.2"):
        assert run(["certify", str(src), "--suite", "dgs", "--L", bad]) == EXIT_USAGE
        assert "must lie within [-1, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("gram_csv", ["x.json", "./sub/../x.json"])
def test_construct_refuses_a_gram_csv_that_is_its_output(gram_csv, tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "simplex", "--r", "3", "--out", "x.json",
                "--gram-csv", gram_csv]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("InvalidParams: --gram-csv and --out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("argv", [
    ["verify", "{src}", "--L", "point:0"],
    ["reduce", "{src}", "--t", "2", "--out", "{out}"],
    ["project", "{src}", "--clique", "0", "--out", "{out}"],
], ids=["verify", "reduce", "project"])
def test_non_finite_gram_file_is_a_usage_error_on_every_reader(argv, tmp_path, capsys):
    # certify is test_malformed_code_file_is_refused_or_skipped[gram-nan]
    src, out = tmp_path / "nan.json", tmp_path / "out.json"
    src.write_text(json.dumps({"format_version": "1", "dim": 2, "metadata": {},
                               "gram": [[1.0, math.nan], [math.nan, 1.0]]}))
    assert run([a.format(src=src, out=out) for a in argv]) == EXIT_USAGE
    assert capsys.readouterr().err == "InvalidParams: vectors/gram entries must be finite\n"
    assert not out.exists()


def test_reduce_past_t24_checks_each_attachment_bucket(tmp_path):
    # each of the 25 vertices outside the clique and S_Y meets its own 24 of
    # the 25 clique vertices, so each garbage check bounds a bucket of one
    src, out = tmp_path / "ls30.json", tmp_path / "red.json"
    assert run(["construct", "lemmens-seidel", "--n", "30", "--out", str(src)]) == EXIT_OK
    assert run(["reduce", str(src), "--t", "25", "--out", str(out)]) == EXIT_OK
    side = json.loads(Path(str(out) + ".reduction.json").read_text())
    checks = side["garbage_checks"]
    assert len(checks) == 25
    assert all(g["attachment_size"] == 24 and g["bucket_size"] == 1 and g["ok"] is True
               for g in checks)
    clique = side["clique"]
    subsets = [[int(v) for v in label.split(",")] for label in side["buckets"]]
    assert sorted(map(len, subsets)) == [24] * 25 + [25]
    assert all(set(T) <= set(clique) for T in subsets)


def test_project_identity_on_orthonormal_input(tmp_path):
    # the output is embedded from its Gram, so it is compared by Gram
    src = tmp_path / "basis.json"
    write_code_file(str(src), 3, vectors=np.eye(3).tolist(), metadata={})
    out = tmp_path / "projected.json"
    assert run(["project", str(src), "--clique", "0", "--out", str(out)]) == EXIT_OK
    doc = read_code_file(str(out))
    x = np.array(doc["vectors"])
    assert doc["dim"] == 3 and np.abs(x @ x.T - np.eye(2)).max() <= 1e-12


# the squared residual below which the Gram route cannot resolve a member to
# the default angle_tol, off a clique at angle 1/3 (lambda_min = 2/3)
RESOLVABLE = np.finfo(float).eps / ((2 / 3) * DEFAULT_TOL.angle_tol)


def _near_span_code(path, d):
    """A vectors file of the clique 0, 1 at angle 1/3 in the plane of e1 and
    e2, then two members at squared distance d from that plane, which meet
    at 1/2 once projected off it; the file's code, read back."""
    s, c = math.sqrt(d), math.sqrt(1 - d)
    rows = [[1.0, 0.0, 0.0, 0.0], [1 / 3, math.sqrt(8) / 3, 0.0, 0.0],
            [c, 0.0, s, 0.0], [0.0, c, s / 2, s * math.sqrt(3) / 2]]
    write_code_file(str(path), 4, vectors=rows, metadata={})
    return load_code(str(path))[0]


@pytest.mark.parametrize("d", [0.0, 0.5 * RESOLVABLE], ids=["in-span", "below-bound"])
def test_project_refuses_a_member_the_gram_cannot_resolve(d, tmp_path, capsys):
    src, out = tmp_path / "near.json", tmp_path / "p.json"
    _near_span_code(src, d)
    capsys.readouterr()
    assert run(["project", str(src), "--clique", "0,1", "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(
        "ZeroProjection: vector 2 lies in the span of the clique: its squared residual ")
    assert not out.exists()


def test_project_resolves_a_member_just_above_the_bound(tmp_path):
    src, out = tmp_path / "near.json", tmp_path / "p.json"
    code = _near_span_code(src, 1.5 * RESOLVABLE)
    assert run(["project", str(src), "--clique", "0,1", "--out", str(out)]) == EXIT_OK
    x = read_code_file(str(out))["vectors"]
    oracle = project_onto_complement(code.subset([2, 3]), code.subset([0, 1])).vectors
    assert np.abs(x @ x.T - oracle @ oracle.T).max() <= DEFAULT_TOL.angle_tol
    assert abs(x[0] @ x[1] - 0.5) <= DEFAULT_TOL.angle_tol


@pytest.mark.xfail(strict=True, reason="angle_set_of clamps the cluster of duplicate pairs "
                   "at 1 to the point 1 - 2 angle_tol, which those pairs miss by 2 angle_tol")
def test_a_projection_with_duplicates_validates_against_its_own_angles(tmp_path, capsys):
    # off a positive clique of LS(12) every block partner v of a clique
    # vector y projects to the same unit vector, since v + y is one vector w
    src, out = tmp_path / "ls12.json", tmp_path / "p.json"
    write_code_file(str(src), 12, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    assert run(["project", str(src), "--clique", "0,2,4,6,8,10", "--out", str(out)]) == EXIT_OK
    angles = read_code_file(str(out))["metadata"]["angles"]
    L = "+".join(f"point:{p!r}" for p in angles)
    assert run(["verify", str(out), "--L", L]) == EXIT_OK, capsys.readouterr().out


def test_project_non_clique_exit_code(tmp_path):
    src = tmp_path / "mixed.json"
    v = np.array([[1.0, 0, 0], [0, 1, 0], [0.6, 0.8, 0.0]])
    write_code_file(str(src), 3, vectors=v.tolist(), metadata={})
    out = tmp_path / "out.json"
    assert run(["project", str(src), "--clique", "0,2",
                "--out", str(out)]) == EXIT_RUNTIME


def test_project_out_of_range_clique_index_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--r", "3", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    for clique, index in (["--clique", "0,99"], 99), (["--clique=-1"], -1):
        assert run(["project", str(src), *clique, "--out", str(tmp_path / "p.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"InvalidIndex: index {index} out of range for code of size 4\n")
    assert not (tmp_path / "p.json").exists()


def test_project_empty_clique_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "ls6.json"
    assert run(["construct", "lemmens-seidel", "--n", "6", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "p.json"
    assert run(["project", str(src), "--clique", "", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "InvalidParams: the clique '' is empty: name at least one index\n")
    assert not out.exists()


@pytest.mark.parametrize("clique, index", [("0,0", 0), ("1,3,1", 1)])
def test_project_refuses_a_repeated_clique_index(clique, index, tmp_path, capsys):
    # the vectors are distinct: the argument, not the code, is at fault
    src = tmp_path / "ls6.json"
    assert run(["construct", "lemmens-seidel", "--n", "6", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "p.json"
    assert run(["project", str(src), "--clique", clique, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"InvalidParams: the clique repeats index {index}\n"
    assert not out.exists()


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m equicode` runs the same `run` as the console script
    simplex = tmp_path / "s.json"
    done = subprocess.run([sys.executable, "-m", "equicode", "construct", "simplex", "--r", "3",
                           "--out", str(simplex)], env=_src_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("simplex: 4 vectors in R^3 -> ")
    out = tmp_path / "p.json"
    done = subprocess.run([sys.executable, "-m", "equicode", "project", str(simplex),
                           "--clique", "0,0", "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_USAGE
    assert done.stderr == "InvalidParams: the clique repeats index 0\n"
    assert not out.exists()


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


CONCAT = ["construct", "concat", "--k", "2", "--r", "3", "--alpha1", "0.5", "--seed", "7"]


@pytest.mark.parametrize("n", [9, 22, 30])
def test_concat_verifies_against_its_declared_angle_set(n, tmp_path, capsys):
    # the detected set of n = 30 left 68 pairs unmatched
    out = tmp_path / "concat.json"
    assert run([*CONCAT, "--n", str(n), "--out", str(out)]) == EXIT_OK
    angles = read_code_file(str(out))["metadata"]["angles"]
    assert capsys.readouterr().out.splitlines()[1] == "angles: " + angles
    if n == 9:
        assert angles == "point:0.5+point:0.75+interval:-1,0.29354373389500082"
    assert run(["verify", str(out), "--L", angles]) == EXIT_OK
    assert capsys.readouterr().out.endswith("PASS\n")


def test_construct_concat_n30_within_budget(tmp_path):
    out = tmp_path / "concat.json"
    start = time.perf_counter()
    assert run([*CONCAT, "--n", "30", "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert out.stat().st_size < 2_000_000


def test_concat_checks_its_ladder_at_the_run_tolerance(tmp_path, monkeypatch, capsys):
    # one k-subset row scaled by 1 + 1e-7 moves the ladder and the norms by
    # about 5e-8: past the default angle_tol, inside EQUICODE_TOL=1e-6
    from equicode import constructions

    exact = constructions.binary_kcode

    def scaled(n, k):
        vectors = exact(n, k).vectors.copy()
        vectors[0] *= 1 + 1e-7
        return types.SimpleNamespace(vectors=vectors)

    monkeypatch.setattr(constructions, "binary_kcode", scaled)
    out = tmp_path / "concat.json"
    args = [*CONCAT, "--n", "9", "--out", str(out)]
    assert run(args) == EXIT_USAGE
    assert "vectors must be unit length" in capsys.readouterr().err
    monkeypatch.setenv("EQUICODE_TOL", "1e-6")
    assert run(args) == EXIT_OK
    angles = read_code_file(str(out))["metadata"]["angles"]
    assert run(["verify", str(out), "--L", angles]) == EXIT_OK


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
    code = load_code(str(src))[0]
    assert (code.dim, len(code), code.rank) == (3, 2, 2)


def test_a_gram_only_file_is_its_codes_gram(tmp_path):
    # the file's values, bit for bit, and no vectors; the returned document
    # no longer holds them
    src = tmp_path / "ls12.json"
    write_code_file(str(src), 12, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    code, doc = load_code(str(src))
    assert code.gram.as_array().tobytes() == read_code_file(str(src))["gram"].tobytes()
    assert "gram" not in doc and doc["dim"] == 12
    with pytest.raises(InternalError):
        code.vectors


LS_ANGLE_SET = "point:-0.33333333333333331+point:0.33333333333333331"


def test_certify_and_verify_take_no_eigh_on_a_gram_only_file(tmp_path, capsys, monkeypatch):
    src, report = tmp_path / "ls12.json", tmp_path / "report.json"
    write_code_file(str(src), 12, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    jobs = (["certify", str(src), "--suite", "all"], ["verify", str(src), "--L", LS_ANGLE_SET])

    def outputs():
        got = []
        for argv in jobs:
            capsys.readouterr()
            assert run([*argv, "--report", str(report)]) == EXIT_OK
            got.append((capsys.readouterr().out, report.read_bytes()))
        return got

    want = outputs()

    def refused(*args, **kwargs):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    assert outputs() == want


# Gram-only file -> (dim, gram, the error every command refuses it with, exit code)
REFUSED_GRAMS = {
    "non-unit diagonal": (2, [[1.0, 0.0], [0.0, 2.0]], "NotUnitDiagonal", EXIT_RUNTIME),
    "asymmetric": (2, [[1.0, 0.5], [-0.5, 1.0]], "InvalidMatrix", EXIT_USAGE),
    "not PSD": (3, [[1.0, -0.9, -0.9], [-0.9, 1.0, -0.9], [-0.9, -0.9, 1.0]],
                "NotRealizable", EXIT_RUNTIME),
    "rank above dim": (2, np.eye(3).tolist(), "InvalidParams", EXIT_USAGE),
}
REFUSING_COMMANDS = {
    "verify": ["--L", "point:0"],
    "certify": ["--suite", "all"],
    "reduce": ["--t", "1", "--out", "{out}"],
    "project": ["--clique", "0", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(REFUSING_COMMANDS))
@pytest.mark.parametrize("case", sorted(REFUSED_GRAMS))
def test_gram_only_load_refusals(case, command, tmp_path, capsys):
    # commands that read no vectors refuse a file as those that embed it do
    dim, gram, error, status = REFUSED_GRAMS[case]
    src, out = tmp_path / "gram.json", tmp_path / "out.json"
    write_code_file(str(src), dim, gram=gram, metadata={})
    argv = [command, str(src), *(arg.format(out=out) for arg in REFUSING_COMMANDS[command])]
    assert run(argv) == status
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(REFUSING_COMMANDS))
def test_a_gram_of_rank_above_the_files_dim_is_refused_on_load(command, tmp_path, capsys):
    # LS(12) has rank 12; the file declares dim 5
    src, out = tmp_path / "ls12d5.json", tmp_path / "out.json"
    write_code_file(str(src), 5, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    args = [arg.format(out=out) for arg in REFUSING_COMMANDS[command]]
    if "--out" not in args:
        args += ["--report", str(out)]
    assert run([command, str(src), *args]) == EXIT_USAGE
    assert capsys.readouterr().err == "InvalidParams: embedding needs 12 > 5 dimensions\n"
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("argv, seed", [
    (["concat", "--n", "9", "--k", "2", "--r", "3", "--alpha1", "0.5"], 0),
    (["lemmens-seidel", "--n", "6"], None),
    (["concat", "--n", "9", "--k", "2", "--r", "3", "--alpha1", "0.5", "--seed", "5"], 5),
    (["lemmens-seidel", "--n", "6", "--seed", "5"], None),
    (["binary-kcode", "--n", "4", "--k", "2", "--seed", "5"], None),
])
def test_construct_writes_the_seed_it_ran_with(argv, seed, tmp_path):
    # concat runs at seed 0 without --seed; a deterministic construction
    # uses no seed, so a given --seed is not recorded for it
    out = tmp_path / "c.json"
    assert run(["construct", *argv, "--out", str(out)]) == EXIT_OK
    assert read_code_file(str(out))["metadata"]["seed"] == seed
    assert f'"seed":{canonical_json(seed)},' in out.read_text()


def test_certify_multipartite_from_concat_metadata(tmp_path, capsys):
    out = tmp_path / "concat.json"
    run(["construct", "concat", "--n", "100", "--k", "1", "--r", "2",
         "--alpha1", "0.5", "--seed", "1", "--out", str(out)])
    code = run(["certify", str(out), "--suite", "multipartite"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS multipartite" in captured


@pytest.mark.parametrize("key, flags", [("achieved_beta", []), ("alpha1", ["--beta", "0.05"])],
                         ids=["achieved_beta", "alpha1"])
def test_multipartite_refuses_a_bool_parameter(key, flags, tmp_path, capsys):
    # a JSON true in the concat file is not the number 1
    src = tmp_path / "c9k1.json"
    assert run(["construct", "concat", "--n", "9", "--k", "1", "--r", "3", "--alpha1", "0.5",
                "--seed", "7", "--out", str(src)]) == EXIT_OK
    doc = json.loads(src.read_text())
    meta = doc["metadata"]
    (meta if key == "achieved_beta" else meta["parameters"])[key] = True
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["certify", str(src), "--suite", "multipartite", *flags]) == EXIT_OK
    assert capsys.readouterr().out == \
        "SKIP multipartite: needs --alpha and a positive --beta\n"


@pytest.mark.parametrize("concat_nk, parts",
                         [(None, "0-3000000"), ((200, 3), None), ((300000, 150000), None)],
                         ids=["parts-flag-range", "concat-metadata", "concat-metadata-huge-n"])
def test_multipartite_parts_are_bounded_by_the_code(concat_nk, parts, tmp_path, capsys):
    # parts of millions of indices on a 4-vector code are refused by their
    # ends, not listed: C(200, 3) = 1,313,400 indices per concat copy, and
    # C(300000, 150000), a 90,307-digit number, is never computed
    src = tmp_path / "simplex.json"
    assert run(["construct", "simplex", "--r", "3", "--out", str(src)]) == EXIT_OK
    argv = ["certify", str(src), "--suite", "multipartite", "--alpha", "0.5", "--beta", "0.1"]
    if concat_nk is not None:
        doc = json.loads(src.read_text())
        n, k = concat_nk
        doc["metadata"] = {"construction": "concat", "parameters": {"n": n, "k": k, "r": 1}}
        src.write_text(json.dumps(doc))
    else:
        argv += ["--parts", parts]
    capsys.readouterr()
    start = time.perf_counter()
    assert run(argv) == EXIT_OK
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr().out == \
        "SKIP multipartite: InvalidIndex: index 4 out of range for code of size 4\n"


_BASIS = [[1.0, 0.0], [0.0, 1.0]]
_CONCAT_META = {"construction": "concat", "parameters": {"n": None, "k": 1, "r": 1}}
# 4,800 distinct float tokens, more than the reader's float memo keeps
_DISTINCT_ROWS = [[8 * i + j + 0.5 for j in range(8)] for i in range(600)]
_DISTINCT_TEXT = json.dumps({"format_version": "1", "dim": 8, "vectors": _DISTINCT_ROWS,
                             "metadata": {}})


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
     EXIT_USAGE, "InvalidMatrix: expected a square matrix of order >= 1"),
    ({"format_version": "1", "dim": 3, "gram": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidMatrix: expected a square matrix of order >= 1"),
    ({"format_version": "1", "dim": 2, "gram": [[1.0, 0.5], [-0.5, 1.0]], "metadata": {}},
     EXIT_USAGE, "InvalidMatrix: matrix entries must be exactly symmetric"),
    (_DISTINCT_TEXT[:_DISTINCT_TEXT.rindex("]]")],
     EXIT_USAGE, "JSONDecodeError: Expecting ',' delimiter: line 1 column 38534 (char 38533)"),
    ({"format_version": "1", "dim": 8, "vectors": _DISTINCT_ROWS + [[0.5] * 7 + ["0.5"]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be JSON numbers"),
    ({"format_version": "1", "dim": 2, "gram": [[1.0, math.nan], [math.nan, 1.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be finite"),
    ({"format_version": "1", "dim": 2, "gram": [[1.0, math.inf], [math.inf, 1.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be finite"),
    ({"format_version": "1", "dim": 2, "vectors": [[math.nan, 0.0], [0.0, 1.0]],
      "metadata": {}},
     EXIT_USAGE, "InvalidParams: vectors/gram entries must be finite"),
    ({"format_version": "1", "dim": 2, "vectors": _BASIS,
      "metadata": {"construction": "concat", "parameters": {"n": math.inf, "k": 1, "r": 1}}},
     EXIT_OK, "SKIP multipartite: no --parts given and none derivable"),
], ids=["top-level-list", "vectors-not-rows", "metadata-list", "concat-n-null",
        "concat-beta-string", "concat-beta-negative", "dim-null", "dim-list",
        "dim-fraction", "entry-object", "entry-string", "entry-bool", "gram-null",
        "gram-one-row", "gram-not-square", "gram-not-symmetric",
        "truncated-after-distinct-floats", "entry-string-after-distinct-floats",
        "gram-nan", "gram-infinity", "vectors-nan", "concat-n-infinity"])
def test_malformed_code_file_is_refused_or_skipped(doc, exit_code, expected,
                                                   tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1 / 3, -1 / 3, 1.0, -1.0]


@st.composite
def _mixed_rows(draw):
    """Rows drawn from a few values and their neighbours one ulp nearer zero,
    so tokens repeat, and some differ in the last digit only."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=6))
    pool += [math.nextafter(x, 0.0) for x in pool]
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array([pool[i] for i in picks]).reshape(shape)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_mixed_rows(), st.sampled_from(["vectors", "gram"]))
def test_code_file_round_trips_bit_for_bit(tmp_path_factory, rows, key):
    # tobytes() tells -0.0 from 0.0 and one ulp from the next
    path = str(tmp_path_factory.mktemp("rt") / "rows.json")
    write_code_file(path, rows.shape[1], **{key: rows})
    back = read_code_file(path)[key]
    assert back.shape == rows.shape and back.tobytes() == rows.tobytes()


@pytest.mark.parametrize("repeats", [0, 50_000], ids=["distinct-first", "distinct-after-repeats"])
def test_reader_past_the_float_memo_parses_again(repeats, tmp_path, monkeypatch):
    distinct = np.random.default_rng(1).standard_normal((5000, 1))
    rows = np.concatenate([np.full((repeats, 1), 1 / 3), distinct])
    rows[:repeats:2] *= -1
    path = tmp_path / "distinct.json"
    write_code_file(str(path), 1, vectors=rows)
    expected = np.asarray(json.loads(path.read_text())["vectors"], dtype=float)
    calls, loads = [], json.loads
    monkeypatch.setattr(cli.json, "loads", lambda *a, **k: calls.append(k) or loads(*a, **k))
    assert read_code_file(str(path))["vectors"].tobytes() == expected.tobytes()
    assert len(calls) == 2  # the memoised parse gave up; the plain one finished

    write_code_file(str(path), 60, gram=lemmens_seidel_gram(60).as_array())
    calls.clear()
    gram = read_code_file(str(path))["gram"]
    assert len(calls) == 1
    assert gram.tobytes() == lemmens_seidel_gram(60).as_array().tobytes()


def test_reader_memoises_integer_tokens(tmp_path, monkeypatch, capsys):
    # each distinct integer token is parsed once; "-0" still reads as -0.0,
    # "0" as 0.0, and true/false are still refused
    path = tmp_path / "ints.json"
    path.write_text('{"format_version":"1","dim":3,"vectors":['
                    + ",".join(["[1,0,-0],[0,1,-0],[-0,0,1]"] * 500) + '],"metadata":{}}')
    parsed = []
    monkeypatch.setattr(cli, "_json_int", lambda t: parsed.append(t) or _json_int(t))
    vectors = read_code_file(str(path))["vectors"]
    assert sorted(parsed) == ["-0", "0", "1", "3"]  # "3" is the dim
    assert vectors.tobytes() == np.array([[1.0, 0.0, -0.0], [0.0, 1.0, -0.0],
                                          [-0.0, 0.0, 1.0]] * 500).tobytes()
    for bad in ("true", "false"):
        path.write_text('{"format_version":"1","dim":2,"vectors":[[1,0],[%s,1]],'
                        '"metadata":{}}' % bad)
        assert run(["certify", str(path), "--suite", "gerzon"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "InvalidParams: vectors/gram entries must be JSON numbers")


def test_reader_past_the_integer_memo_parses_again(tmp_path, monkeypatch):
    rows = [[i] for i in range(5000)]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"format_version": "1", "dim": 1, "vectors": rows,
                                "metadata": {}}))
    calls, loads = [], json.loads
    monkeypatch.setattr(cli.json, "loads", lambda *a, **k: calls.append(k) or loads(*a, **k))
    assert read_code_file(str(path))["vectors"].tolist() == rows
    assert len(calls) == 2  # the memoised parse gave up; the plain one finished


def test_writer_refuses_boolean_entries(tmp_path):
    with pytest.raises(InvalidParams, match="JSON numbers"):
        write_code_file(str(tmp_path / "b.json"), 2, vectors=[[True, 0.0], [0.0, 1.0]])


def test_parse_angle_set_grammar():
    aset = parse_angle_set("interval:-1,-0.25+point:0.5", 1e-9)
    assert aset.intervals == ((-1.0, -0.25),)
    assert aset.points == (0.5,)


_UNIT = st.floats(-1.0, 1.0, exclude_max=True)


@st.composite
def _angle_sets(draw):
    intervals = draw(st.lists(st.tuples(_UNIT, _UNIT).map(sorted), max_size=3))
    points = draw(st.lists(_UNIT, min_size=0 if intervals else 1, max_size=5))
    return AngleSet(intervals=intervals, points=points, tol=1e-9)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_angle_sets())
def test_angle_set_spec_round_trips_bit_for_bit(aset):
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(parse_angle_set(angle_set_spec(aset), aset.tol)) == repr(aset)


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
