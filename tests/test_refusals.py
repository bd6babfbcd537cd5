"""Each input refusal of the Python API raises its named ``GWeaveError``, before any work."""

import inspect
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gweave
from gweave import suite
from gweave.errors import (
    EnvelopeViolation,
    GWeaveError,
    LengthMismatch,
    NonFinite,
    ShapeMismatch,
)
from gweave.gframe import GFrame, apply, compose_right, is_dual_pair, new_gframe
from gweave.induced import (
    SubspaceFrameSpec,
    VectorFamily,
    induced_vectors,
    make_subspace_spec,
    make_vector_family,
    onb_families,
)
from gweave.suite import SuiteConfig, run_suite
from gweave.weaving import (
    UniversalReport,
    WeavingSelection,
    check_additive_upper_bound,
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
    "compose_right-3d": (lambda: compose_right(TWO, np.zeros((1, 1, 1))), ShapeMismatch, "ndim 3"),
    "new_gframe-strings": (lambda: new_gframe(2, [["a", "b"]]), ShapeMismatch, "block 1 holds"),
    "new_gframe-ragged": (
        lambda: new_gframe(2, [[[1.0, 2.0], [3.0]]]), ShapeMismatch, "block 1 mixes vector lengths"
    ),
    "new_gframe-beyond-float64": (
        lambda: new_gframe(1, [[10**400]]), NonFinite, "block 1 holds a number beyond float64"
    ),
    "new_gframe-none": (lambda: new_gframe(1, None), ShapeMismatch, "blocks must be a sequence"),
    "gframe-strings": (lambda: GFrame(2, ([[1.0, "a"]],)), ShapeMismatch, "block 1 holds"),
    "gframe-columns": (lambda: GFrame(2, (np.ones((1, 3)),)), ShapeMismatch, "block 1 has 3 columns"),
    "new_gframe-labels-no-sequence": (
        lambda: new_gframe(1, [[1.0]], labels=5), ShapeMismatch, "labels must be a sequence"
    ),
    "apply-strings": (lambda: apply(TWO, ["a", "b"]), ShapeMismatch, "the vector holds"),
    "compose_right-strings": (
        lambda: compose_right(TWO, [["a", "b"], ["c", "d"]]), ShapeMismatch, "the operator holds"
    ),
    "unitary-invariance-strings": (
        lambda: check_unitary_weaving_invariance(TWO, TWO, [["1", "0"], ["0", "1"]]),
        ShapeMismatch,
        "the operator holds",
    ),
    "make_vector_family-strings": (
        lambda: make_vector_family(2, [[["a", "b"]]]), ShapeMismatch, "group 1 holds"
    ),
    "make_vector_family-none": (
        lambda: make_vector_family(1, None), ShapeMismatch, "groups must be a sequence"
    ),
    "make_vector_family-scalar-group": (
        lambda: make_vector_family(1, [5]), ShapeMismatch, "group 1 has ndim 0"
    ),
    "make_subspace_spec-strings": (
        lambda: make_subspace_spec([[["a"]]]), ShapeMismatch, "group 1 holds"
    ),
    "make_subspace_spec-none": (
        lambda: make_subspace_spec(None), ShapeMismatch, "groups must be a sequence"
    ),
    "make_subspace_spec-envelope-strings": (
        lambda: make_subspace_spec([[[1.0]]], envelope=("a", "b")),
        EnvelopeViolation,
        "must be two finite numbers",
    ),
    "make_subspace_spec-envelope-one-number": (
        lambda: make_subspace_spec([[[1.0]]], envelope=(1.0,)),
        EnvelopeViolation,
        "must be two finite numbers",
    ),
    "onb_families-negative": (
        lambda: onb_families([-1]), ShapeMismatch, "dimension must be non-negative, got -1"
    ),
    "onb_families-fraction": (
        lambda: onb_families([1.5]), ShapeMismatch, "dimension must be an integer, got 1.5"
    ),
    "onb_families-scale": (
        lambda: onb_families([1], scale="x"), ShapeMismatch, "scale must be a finite real number"
    ),
    "projection-family": (lambda: suite.build_projection_family(0), ShapeMismatch, "d >= 1"),
    "shifted-pair": (lambda: suite.build_shifted_projection_pair(2), ShapeMismatch, "3 blocks"),
    "window-pair": (lambda: suite.build_window_pair(2), ShapeMismatch, "3 blocks"),
    "scaled-split-pair": (lambda: suite.build_scaled_split_pair(8), ShapeMismatch, "9 blocks"),
    "duplicate-vs-split": (lambda: suite.build_duplicate_vs_split_pair(3), ShapeMismatch, "even k"),
    "overlapping-pair": (
        lambda: suite.build_overlapping_coordinate_pair(3), ShapeMismatch, "4 blocks"
    ),
    "nonunitary-operators": (lambda: suite.build_nonunitary_operators(1), ShapeMismatch, "d >= 2"),
    "weave-int-selection": (
        lambda: weave(TWO, TWO, 1), ShapeMismatch, "selection must be a WeavingSelection, got int"
    ),
    "is_woven-int-family": (
        lambda: is_woven(TWO, 5), ShapeMismatch, "second family must be a GFrame, got int"
    ),
    "universal_bounds_exhaustive-str-family": (
        lambda: universal_bounds_exhaustive(TWO, "x"), ShapeMismatch, "must be a GFrame, got str"
    ),
    "optimal_bounds-none": (
        lambda: gweave.optimal_bounds(None), ShapeMismatch, "frame must be a GFrame, got NoneType"
    ),
    "induced_vectors-none-spec": (
        lambda: induced_vectors(TWO, None), ShapeMismatch, "spec must be a SubspaceFrameSpec"
    ),
    "run_suite-int-config": (
        lambda: run_suite(5), ShapeMismatch, "config must be a SuiteConfig, got int"
    ),
    "from_indices-none": (
        lambda: WeavingSelection.from_indices(2, None), ShapeMismatch, "indices must be a sequence"
    ),
    "from_indices-str-index": (
        lambda: WeavingSelection.from_indices(2, ["a"]), ShapeMismatch, "index must be an integer"
    ),
    "selection-str-mask": (
        lambda: WeavingSelection(2, "1"), ShapeMismatch, "mask must be an integer, got '1'"
    ),
    "vector-family-strings": (
        lambda: VectorFamily(2, ([[1.0, "a"]],)), ShapeMismatch, "group 1 holds"
    ),
    "vector-family-length": (
        lambda: VectorFamily(2, (np.ones((1, 3)),)), ShapeMismatch, "vector of length 3"
    ),
    "subspace-spec-envelope": (
        lambda: SubspaceFrameSpec(([[1.0]],), (0.0, 1.0)),
        EnvelopeViolation,
        "lower bound must be positive",
    ),
    "subspace-spec-bounds-escape-the-envelope": (
        lambda: SubspaceFrameSpec((3 * np.eye(2),), (1.0, 1.0)),
        EnvelopeViolation,
        "group 1 bounds (9, 9) escape the envelope (1, 1)",
    ),
    "report-without-argmin": (
        lambda: check_additive_upper_bound(
            TWO, TWO, UniversalReport(1.0, 2.0, None, None, True, "x", 0, 0.0)
        ),
        ShapeMismatch,
        "the report's argmin must be a WeavingSelection, got NoneType",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_raises_its_error(case):
    call, error, message = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            call()
    assert message in str(raised.value)


# Every constructor that turns an input array into a matrix, given one nested list.
ARRAY_TAKERS = {
    "new_gframe": lambda x: new_gframe(2, [x]),
    "make_vector_family": lambda x: make_vector_family(2, [x]),
    "make_subspace_spec": lambda x: make_subspace_spec([x]),
    "compose_right": lambda x: compose_right(TWO, x),
    "apply": lambda x: apply(TWO, x),
    "check_unitary_weaving_invariance": lambda x: check_unitary_weaving_invariance(TWO, TWO, x),
}
ENTRIES = st.one_of(
    st.floats(), st.integers(), st.complex_numbers(), st.text(max_size=3), st.none()
)
NESTED = st.recursive(ENTRIES, lambda inner: st.lists(inner, max_size=3), max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(value=NESTED)
@pytest.mark.parametrize("taker", sorted(ARRAY_TAKERS))
def test_any_nested_list_is_taken_or_refused_as_a_package_error(taker, value):
    """No input array ends in another exception or in a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ARRAY_TAKERS[taker](value)
        except GWeaveError:
            pass


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


# Parameters that take one of the package's objects: a family, a selection, a
# spec, a report or a suite config.
OBJECT_PARAMS = {
    "frame", "first", "second", "family", "selection", "spec", "spec_first", "spec_second",
    "report", "config",
}
# Each taker, parameter and wrong value, but no None where None is the default.
OBJECT_CASES = [
    (name, param, wrong)
    for name in gweave.__all__
    if inspect.isfunction(getattr(gweave, name))
    for param, spec in inspect.signature(getattr(gweave, name)).parameters.items()
    if param in OBJECT_PARAMS
    for wrong in (5, None, "x")
    if not (wrong is None and spec.default is None)
]
# Good arguments of each object taker that TOL_ARGS does not hold.
OBJECT_ARGS = {
    **TOL_ARGS,
    "apply": lambda: (TWO, [1.0, 0.0]),
    "check_additive_upper_bound": lambda: (TWO, TWO, universal_bounds_exhaustive(TWO, TWO)),
    "check_strict_sum_gap": lambda: (TWO, TWO, universal_bounds_exhaustive(TWO, TWO)),
    "check_universal_envelope": lambda: (TWO, TWO, universal_bounds_exhaustive(TWO, TWO)),
    "coefficient_energy": lambda: (TWO, [1.0, 0.0]),
    "compose_right": lambda: (TWO, np.eye(2)),
    "frame_operator": lambda: (TWO,),
    "induced_vectors": lambda: (TWO, SPEC),
    "run_suite": lambda: (),
    "save_gframe": lambda: (TWO, os.devnull),
    "vector_frame_operator": lambda: (VECTORS,),
    "weave": lambda: (TWO, TWO, NONE),
}


@pytest.mark.parametrize("name, param, wrong", OBJECT_CASES)
def test_object_of_another_type_is_refused(name, param, wrong):
    """A number, ``None`` or a string where a package object belongs is ``ShapeMismatch``."""
    assert name in OBJECT_ARGS, f"{name} takes {param}: add its arguments to OBJECT_ARGS"
    function = getattr(gweave, name)
    args = inspect.signature(function).bind(*OBJECT_ARGS[name]())
    function(*args.args, **args.kwargs)  # the arguments are good, so the refusal below is param's
    args.arguments[param] = wrong
    with pytest.raises(ShapeMismatch, match="must be a"):
        function(*args.args, **args.kwargs)
