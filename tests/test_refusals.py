"""Each input refusal of the Python API raises its named ``GWeaveError``, before any work."""

import inspect

import numpy as np
import pytest

import gweave
from gweave import linalg, suite
from gweave.errors import EnvelopeViolation, LengthMismatch, NonFinite, ShapeMismatch
from gweave.gframe import compose_right, is_dual_pair, new_gframe
from gweave.induced import induced_vectors, make_subspace_spec, make_vector_family, onb_families
from gweave.suite import SuiteConfig, run_suite
from gweave.weaving import (
    WeavingSelection,
    check_unitary_weaving_invariance,
    is_woven,
    universal_bounds_exhaustive,
    weave,
)

TWO = new_gframe(2, [[1.0, 0.0], [0.0, 1.0]])  # two one-row blocks on R^2
THREE = new_gframe(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # three blocks
WIDE = new_gframe(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # two blocks on R^3
TALL = new_gframe(2, [np.eye(2), [1.0, 1.0]])  # two blocks of 2 and 1 rows
NONE = WeavingSelection(2, 0)

CASES = {
    "new_gframe-3d-block": (lambda: new_gframe(2, [np.zeros((1, 1, 2))]), ShapeMismatch, "ndim 3"),
    "new_gframe-nan": (lambda: new_gframe(2, [[1.0, np.nan]]), NonFinite, "block 1 contains NaN"),
    "new_gframe-labels": (
        lambda: new_gframe(1, [[1.0]] * 3, labels=["a", "b"]), LengthMismatch, "2 labels for 3"
    ),
    "is_dual_pair-blocks": (lambda: is_dual_pair(TWO, THREE), LengthMismatch, "2 blocks versus 3"),
    "is_dual_pair-domain": (lambda: is_dual_pair(TWO, WIDE), ShapeMismatch, "differ: 2 versus 3"),
    "is_dual_pair-rows": (lambda: is_dual_pair(TWO, TALL), ShapeMismatch, "row counts differ"),
    "weave-blocks": (lambda: weave(TWO, THREE, NONE), LengthMismatch, "2 blocks versus 3"),
    "weave-domain": (lambda: weave(TWO, WIDE, NONE), ShapeMismatch, "differ: 2 versus 3"),
    "selection-of-no-blocks": (lambda: WeavingSelection(0, 0), LengthMismatch, "at least one"),
    "is_woven-strategy": (lambda: is_woven(TWO, TWO, strategy="x"), ShapeMismatch, "strategy 'x'"),
    "compose_right-size": (lambda: compose_right(TWO, np.eye(3)), ShapeMismatch, "operator is 3x3"),
    "unitary-invariance-size": (
        lambda: check_unitary_weaving_invariance(TWO, TWO, np.eye(3)), ShapeMismatch, "need 2x2"
    ),
    "make_vector_family-length": (
        lambda: make_vector_family(2, [[[1.0, 0.0, 0.0]]]), ShapeMismatch, "vector of length 3"
    ),
    "make_subspace_spec-lengths": (
        lambda: make_subspace_spec([[[1.0], [1.0, 0.0]]]), ShapeMismatch, "vector lengths [1, 2]"
    ),
    "make_subspace_spec-envelope": (
        lambda: make_subspace_spec([[[1.0]]], envelope=(0.0, 1.0)),
        EnvelopeViolation,
        "lower bound must be positive",
    ),
    "induced_vectors-rows": (
        lambda: induced_vectors(TWO, onb_families([2, 1])), ShapeMismatch, "length 2 does not match"
    ),
    "as_matrix-3d": (lambda: linalg.as_matrix(np.zeros((1, 1, 1))), ShapeMismatch, "ndim 3"),
    "projection-family": (lambda: suite.build_projection_family(0), ShapeMismatch, "d >= 1"),
    "shifted-pair": (lambda: suite.build_shifted_projection_pair(2), ShapeMismatch, "3 blocks"),
    "window-pair": (lambda: suite.build_window_pair(2), ShapeMismatch, "3 blocks"),
    "scaled-split-pair": (lambda: suite.build_scaled_split_pair(8), ShapeMismatch, "9 blocks"),
    "duplicate-vs-split": (lambda: suite.build_duplicate_vs_split_pair(3), ShapeMismatch, "even k"),
    "overlapping-pair": (
        lambda: suite.build_overlapping_coordinate_pair(3), ShapeMismatch, "4 blocks"
    ),
    "nonunitary-operators": (lambda: suite.build_nonunitary_operators(1), ShapeMismatch, "d >= 2"),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_raises_its_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as raised:
        call()
    assert message in str(raised.value)


@pytest.mark.parametrize(
    "build", [new_gframe, lambda d, rows: make_vector_family(d, [rows])], ids=["block", "vector"]
)
@pytest.mark.parametrize(
    "dim, message",
    [(0, "must be positive, got 0"), (2.7, "integer, got 2.7"), (True, "integer, got True"),
     ("x", "integer, got 'x'")],
)
def test_domain_dimension_that_is_no_positive_integer_is_refused(build, dim, message):
    with pytest.raises(ShapeMismatch, match="^domain dimension must be") as raised:
        build(dim, [[1.0, 0.0]])
    assert message in str(raised.value)


def test_numpy_integer_domain_is_kept():
    frame = new_gframe(np.int64(2), [[1.0, 0.0]])
    assert frame.domain_dim == 2 and type(frame.domain_dim) is int
    assert make_vector_family(np.int32(2), [[[1.0, 0.0]]]).domain_dim == 2


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, "x", True])
def test_suite_tolerance_is_refused_before_any_family_is_built(monkeypatch, tol):
    built = []
    monkeypatch.setattr(suite, "build_projection_family", lambda *a: built.append(a))
    with pytest.raises(ShapeMismatch, match="^tol must be a finite non-negative number"):
        run_suite(SuiteConfig(tol=tol))
    assert built == []


@pytest.mark.parametrize("scale", ["x", None, True])
def test_suite_scale_that_is_no_number_is_refused(scale):
    with pytest.raises(ShapeMismatch, match="^dim_scale must be a finite positive number"):
        run_suite(SuiteConfig(dim_scale=scale))


# Every function of the package's public names that takes ``tol``, found from
# its signature, so that a new one cannot go unchecked.
TOL_TAKERS = sorted(
    name
    for name in gweave.__all__
    if inspect.isfunction(getattr(gweave, name))
    and "tol" in inspect.signature(getattr(gweave, name)).parameters
)
VECTORS = make_vector_family(2, [[[1.0, 0.0]], [[0.0, 1.0]]])
SPEC = onb_families(TWO.block_rows)
# Each one's arguments other than ``tol``.
TOL_ARGS = {
    "canonical_dual": lambda: (TWO,),
    "check_dual_weaving": lambda: (TWO,),
    "check_operator_identity": lambda: (TWO,),
    "check_parseval_transform_weaving": lambda: (TWO, TWO, universal_bounds_exhaustive(TWO, TWO)),
    "check_unitary_weaving_invariance": lambda: (TWO, TWO, np.eye(2)),
    "check_weaving_transfer": lambda: (TWO, TWO, SPEC, SPEC),
    "classify": lambda: (TWO,),
    "frame_bounds_vectors": lambda: (VECTORS,),
    "is_dual_pair": lambda: (TWO, TWO),
    "is_g_exact": lambda: (TWO,),
    "is_g_orthonormal_basis": lambda: (TWO,),
    "is_g_riesz_basis": lambda: (TWO,),
    "is_onb_vectors": lambda: (VECTORS,),
    "is_riesz_basis_vectors": lambda: (VECTORS,),
    "is_weaving_g_onb": lambda: (TWO, TWO),
    "is_weaving_g_riesz": lambda: (TWO, TWO),
    "is_woven": lambda: (TWO, TWO),
    "optimal_bounds": lambda: (TWO,),
    "parseval_transform": lambda: (TWO,),
    "universal_bounds_exhaustive": lambda: (TWO, TWO),
    "universal_bounds_search": lambda: (TWO, TWO, 1),
    "universal_bounds_vectors": lambda: (VECTORS, VECTORS),
    "weaving_bounds": lambda: (TWO, TWO, NONE),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, "x", True])
@pytest.mark.parametrize("name", TOL_TAKERS)
def test_public_tolerance_is_refused(name, tol):
    assert name in TOL_ARGS, f"{name} takes tol: add its other arguments to TOL_ARGS"
    function, args = getattr(gweave, name), TOL_ARGS[name]()
    function(*args)  # the arguments are good, so the refusal below is tol's
    with pytest.raises(ShapeMismatch, match="^tol must be a finite non-negative number"):
        function(*args, tol=tol)


def test_every_tolerance_taker_is_covered():
    assert sorted(TOL_ARGS) == TOL_TAKERS
