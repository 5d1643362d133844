"""Error and precondition paths across the package."""

import numpy as np
import pytest

from equicode import (
    AngleParams,
    AngleSet,
    Code,
    ConcatParams,
    LabelledGraph,
    SymMatrix,
    ball_subgraph_lambda,
    beta_energy_check,
    binary_kcode,
    bound_table,
    concatenated_code,
    dgs_bound_check,
    negative_clique_certificate,
    odd_reciprocal_code,
    ramsey_pair,
    reduction_pipeline,
    regular_simplex,
)
from equicode.errors import (
    InvalidIndex,
    InvalidMatrix,
    InvalidParams,
    NotAnLCode,
    NotEquiangular,
    RandomizedFailure,
)


def test_symmatrix_rejects_bad_shapes():
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert SymMatrix([[1, 2], [2, 4]]).backend == "rational"
    with pytest.raises(InvalidMatrix):
        SymMatrix([[1, 2], [3, 4]])
    with pytest.raises(InvalidMatrix):
        SymMatrix(SymMatrix(np.eye(2)))
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.eye(2)).rows()


def test_code_rejects_bad_vectors():
    with pytest.raises(InvalidParams):
        Code(np.zeros((0, 3)))
    with pytest.raises(InvalidParams):
        Code(np.array([[1.0, np.inf]]))
    with pytest.raises(InvalidParams):
        Code(np.array([[0.5, 0.5]]))


def test_angle_set_domain_checks():
    with pytest.raises(InvalidParams):
        AngleSet(points=(1.0,))
    with pytest.raises(InvalidParams):
        AngleSet(intervals=((-2.0, -0.5),))
    with pytest.raises(InvalidParams):
        AngleSet(intervals=((-0.2, -0.5),))
    with pytest.raises(InvalidParams):
        AngleSet()


def test_angle_params_domain_checks():
    with pytest.raises(InvalidParams):
        AngleParams(0.0, 3)
    with pytest.raises(InvalidParams):
        AngleParams(0.5, 0)


def test_construction_parameter_errors():
    with pytest.raises(InvalidParams):
        odd_reciprocal_code(5, 1)
    with pytest.raises(InvalidParams):
        odd_reciprocal_code(2, 3)
    with pytest.raises(InvalidParams):
        binary_kcode(4, 0)
    with pytest.raises(InvalidParams):
        binary_kcode(4, 5)


def test_concat_failure_without_attempts(monkeypatch):
    from equicode import constructions

    # every cross-copy product reads 1.0, so no seed reaches beta_target
    monkeypatch.setattr(constructions, "_blockwise_max", lambda a, b: 1.0)
    params = ConcatParams(16, 2, 2, 0.5, seed=0)
    with pytest.raises(RandomizedFailure, match=r"no seed in \[0, 32\) reached") as exc:
        concatenated_code(params)
    assert exc.value.worst_cross == 1.0


def test_labelled_graph_shape_checks():
    with pytest.raises(InvalidParams):
        LabelledGraph(np.zeros((2, 3), dtype=int), 1)
    with pytest.raises(InvalidParams):
        LabelledGraph(np.array([[-1, 0], [1, -1]]), 2)
    with pytest.raises(InvalidParams):
        LabelledGraph(np.zeros((0, 0), dtype=int), 1)


def test_ramsey_requires_classified_edges():
    classes = np.full((10, 10), 5)
    np.fill_diagonal(classes, -1)
    g = LabelledGraph(classes, 2)
    with pytest.raises(InvalidParams):
        ramsey_pair(g, k=2, t=1, m=1)


def test_ball_subgraph_vertex_range():
    with pytest.raises(InvalidIndex):
        ball_subgraph_lambda(np.zeros((3, 3), dtype=bool), 7, 2)


def test_reduction_parameter_errors():
    code = binary_kcode(4, 2)
    with pytest.raises(NotEquiangular):
        reduction_pipeline(code, t=2)
    from equicode import lemmens_seidel_code

    with pytest.raises(InvalidParams):
        reduction_pipeline(lemmens_seidel_code(4), t=0)
    with pytest.raises(InvalidParams):
        reduction_pipeline(lemmens_seidel_code(4), t=6)


def test_bounds_parameter_errors():
    with pytest.raises(InvalidParams):
        negative_clique_certificate(regular_simplex(2), 0.0)
    with pytest.raises(NotAnLCode):
        dgs_bound_check(regular_simplex(2), AngleSet(points=(0.25,)))
    with pytest.raises(InvalidIndex):
        beta_energy_check(regular_simplex(3), 9,
                          AngleSet(intervals=((-1.0, -1 / 3),), points=(0.5,)))
    with pytest.raises(InvalidParams):
        beta_energy_check(regular_simplex(3), 0, AngleSet(points=(0.5,)))
    with pytest.raises(InvalidParams):
        bound_table(5, 1, 0.5, 0.0)
