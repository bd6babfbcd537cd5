"""Spectral primitive contracts, checked against charpoly and sampling oracles.

Also the refusal of values beyond float64, which ``linalg`` owns.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import gweave
from gweave import gframe, induced, linalg, weaving
from gweave.errors import NonFinite

from conftest import random_gframe
from oracles import charpoly_eigenvalues, rayleigh_sample_range


def random_family(rng, d, complex_mode=False):
    """A family of random blocks on a d-dimensional domain with at least d rows, so a frame."""
    return random_gframe(rng, d=d, n=4, complex_mode=complex_mode, min_rows_total=d)


class TestHermitianEig:
    """The one eigendecomposition of the frame operator ``S``, that of ``frame_operator``."""

    def test_identity(self):
        fo = gframe.frame_operator(gframe.new_gframe(3, [np.eye(3)[:2], np.eye(3)[2]]))
        assert (fo.lower, fo.upper) == (1.0, 1.0)

    def test_diagonal_sorted_ascending(self):
        frame = gframe.new_gframe(2, [[np.sqrt(2.0), 0.0], [0.0, np.sqrt(0.5)]])
        fo = gframe.frame_operator(frame)
        np.testing.assert_allclose([fo.lower, fo.upper], [0.5, 2.0])
        np.testing.assert_allclose(np.abs(fo.witness_low), [0.0, 1.0])
        np.testing.assert_allclose(np.abs(fo.witness_high), [1.0, 0.0])

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_charpoly_oracle(self, complex_mode, seed):
        fo = gframe.frame_operator(random_family(np.random.default_rng(seed), 4, complex_mode))
        w = charpoly_eigenvalues(fo.s)
        np.testing.assert_allclose([fo.lower, fo.upper], w[[0, -1]], atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_reconstruction_and_unitarity(self, complex_mode):
        """Each witness is a unit eigenvector of ``S`` for its extreme eigenvalue."""
        fo = gframe.frame_operator(random_family(np.random.default_rng(7), 6, complex_mode))
        size = max(1.0, linalg.frobenius(fo.s))
        for value, w in ((fo.lower, fo.witness_low), (fo.upper, fo.witness_high)):
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12 * 6
            assert linalg.frobenius(fo.s @ w - value * w) <= 1e-10 * size
        assert abs(np.vdot(fo.witness_low, fo.witness_high)) <= 1e-10

    def test_deterministic_gauge(self):
        frame = random_family(np.random.default_rng(3), 5, complex_mode=True)
        a = gframe.frame_operator(frame)
        b = gframe.frame_operator(gframe.new_gframe(5, [block.copy() for block in frame.blocks]))
        for col, again in ((a.witness_low, b.witness_low), (a.witness_high, b.witness_high)):
            np.testing.assert_array_equal(col, again)
            # first significant component of each witness is real positive
            i = int(np.argmax(np.abs(col) > 1e-12 * np.abs(col).max()))
            assert abs(col[i].imag) <= 1e-12
            assert col[i].real > 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_extremes_bracket_rayleigh_quotients(self, seed):
        fo = gframe.frame_operator(random_family(np.random.default_rng(seed), 5))
        lo, hi, _ = rayleigh_sample_range(fo.s, 1000, seed + 100)
        assert fo.lower - 1e-9 <= lo
        assert hi <= fo.upper + 1e-9


# Products of finite inputs with entries near 1e200 pass float64.
H = 1e200
WIDE = gframe.new_gframe(2, [[H, H], [1.0, 0.0]])
ONE = gframe.new_gframe(2, [[1.0, 0.0], [0.0, 1.0]])
# Every entry of the frame operator of [[x, x, x]] is 7.2e307, finite, but
# its largest eigenvalue 3 x^2 = 2.2e308 is beyond float64.
F = gframe.new_gframe(3, [[8.5e153] * 3])

BEYOND_FLOAT64 = {
    "apply": lambda: gframe.apply(WIDE, [H, H]),
    "coefficient_energy": lambda: gframe.coefficient_energy(ONE, [H, 1.0]),
    "compose_right": lambda: gframe.compose_right(WIDE, np.diag([H, 1.0])),
    "induced_vectors": lambda: induced.induced_vectors(WIDE, induced.onb_families([1, 1], 1e150)),
    "check_weaving_transfer": lambda: induced.check_weaving_transfer(
        WIDE, ONE, induced.onb_families([1, 1], 1e150), induced.onb_families([1, 1])
    ),
    "vector_frame_operator": lambda: induced.vector_frame_operator(
        induced.make_vector_family(2, [[[H, H]]])
    ),
    "unitary_invariance": lambda: weaving.check_unitary_weaving_invariance(
        ONE, ONE, np.diag([H, 1.0])
    ),
    "F-frame_operator": lambda: gframe.frame_operator(F),
    "F-optimal_bounds": lambda: gframe.optimal_bounds(F),
    "F-is_g_exact": lambda: gframe.is_g_exact(F),
    "F-canonical_dual": lambda: gframe.canonical_dual(F),
    "F-inverse_root": lambda: gframe.inverse_root(F),
    "F-parseval_transform": lambda: gframe.parseval_transform(F),
    "F-check_dual_weaving": lambda: weaving.check_dual_weaving(F),
    "F-exhaustive": lambda: weaving.universal_bounds_exhaustive(F, F),
    "F-search": lambda: weaving.universal_bounds_search(F, F, 1),
    "F-is_weaving_g_onb": lambda: weaving.is_weaving_g_onb(F, F),
    "F-is_weaving_g_riesz-tol-0": lambda: weaving.is_weaving_g_riesz(F, F, 0.0),
    "F-is_g_riesz_basis": lambda: gframe.is_g_riesz_basis(F),
    "F-is_g_orthonormal_basis": lambda: gframe.is_g_orthonormal_basis(F),
    "F-basis_tests": lambda: gframe.basis_tests(F),
    "F-classify": lambda: gframe.classify(F),
    "F-check_operator_identity": lambda: induced.check_operator_identity(F),
    "F-group_spectrum": lambda: induced.make_subspace_spec([[np.full(3, 8.5e153)]]),
    "nan_vector": lambda: induced.make_vector_family(1, [[[1.0]], [[np.nan]]]),
    "inf_vector": lambda: induced.make_vector_family(2, [[[1.0, np.inf]]]),
    "onb_scale": lambda: induced.onb_families([1], scale=1e200),
}


@pytest.mark.parametrize("name", sorted(BEYOND_FLOAT64))
def test_values_beyond_float64_are_refused_without_a_warning(name):
    """Finite inputs whose products, spectra or bounds pass float64, and non-finite vectors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            BEYOND_FLOAT64[name]()


def _raises_nonfinite(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "NonFinite"


def test_only_linalg_refuses_values_beyond_float64():
    """No function outside ``linalg.py`` raises ``NonFinite``.

    Input arrays are refused by ``linalg._matrix`` and every other value by
    ``linalg._finite``, so the rule has one owner.
    """
    found = set()
    for path in sorted(Path(gweave.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_raises_nonfinite(node) for node in ast.walk(fn)):
                    found.add(f"{path.stem}.{fn.name}")
    assert found == set()


# numpy functions that take an SVD inside, and the orders of norm that do
SVD_CALLS = {"pinv", "lstsq", "matrix_rank", "cond"}
SVD_ORDS = (2, -2, "nuc")


def _takes_an_svd(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", ""))
    if name.startswith("svd") or name in SVD_CALLS:
        return True
    if name not in ("norm", "matrix_norm"):
        return False
    for order in node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]:
        try:
            if ast.literal_eval(order) in SVD_ORDS:
                return True
        except ValueError:  # an order that is not a literal may be one of them
            return True
    return False


def test_one_spectral_method():
    """No module of gweave takes an SVD: every spectrum is an eigensolve of a Hermitian matrix."""
    found = []
    for path in sorted(Path(gweave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _takes_an_svd(node)]
    assert found == []


def _small_floats_and_eps_names(path: Path) -> list:
    """Float literals of magnitude below 1e-3, and names ending in ``_EPS`` assigned, in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if path.name == "gframe.py" and names == ["DEFAULT_TOL"]:
                allowed.add(id(node.value))
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.endswith("_EPS")]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-3
            and id(node) not in allowed
        ):
            found.append(f"{path.name}:{node.lineno} {node.value!r}")
    return found


def test_one_tolerance_policy():
    """Every rounding allowance is owned by ``linalg``: no module outside it states a tolerance.

    Outside ``linalg.py`` no float literal below 1e-3 appears, except the
    classification default ``gframe.DEFAULT_TOL``, and no module defines an
    ``*_EPS`` constant; comparisons that allow for rounding call
    ``linalg._at_most`` with one of ``linalg``'s relative tolerances.
    """
    found = []
    for path in sorted(Path(gweave.__file__).parent.glob("*.py")):
        names = _small_floats_and_eps_names(path)
        found += [f for f in names if path.name != "linalg.py" or f.endswith("_EPS")]
    assert found == []


# The attributes of the kernel's split operator; no other object in gweave has one of these names.
OPERATOR_ATTRIBUTES = {
    "pieces", "extremes", "step", "margin", "norms", "diag_base", "diag_deltas", "block_deltas",
    "live", "widen", "full_mask",
}


def _names_kernels(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_kernels") or (
        isinstance(node, ast.Attribute) and node.attr == "_kernels"
    )


def _kernel_reads(path: Path) -> list:
    """Private kernel names and split-operator attributes that ``path`` reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "_kernels":
            names = [a.name for a in node.names if a.name.startswith("_")]
            found += [f"{path.name}:{node.lineno} {name}" for name in names]
        elif isinstance(node, ast.Attribute) and (
            (node.attr.startswith("_") and _names_kernels(node.value))
            or (node.attr in OPERATOR_ATTRIBUTES and isinstance(node.ctx, ast.Load))
        ):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
    return found


def test_one_kernel_owner():
    """Only ``_kernels`` builds, batches or reads a split operator.

    Outside ``_kernels.py`` no module uses a private kernel name, as
    ``_kernels._name`` or through ``from ._kernels import _name``, and none
    reads an attribute of the split operator: every kernel entry takes
    ``base``, ``deltas`` and, where it needs them, the two families' row
    counts, and returns arrays or yields masks.
    """
    found = []
    for path in sorted(Path(gweave.__file__).parent.glob("*.py")):
        if path.name != "_kernels.py":
            found += _kernel_reads(path)
    assert found == []


class TestAtMost:
    def test_slack_is_relative_to_the_largest_size(self):
        assert linalg._at_most(1.0 + 1e-10, 1.0, 1.0)
        assert not linalg._at_most(1.0 + 1e-8, 1.0, 1.0)
        assert linalg._at_most(2.0**40 * (1.0 + 1e-10), 2.0**40, 2.0**40)
        assert not linalg._at_most(2.0**-40 * (1.0 + 1e-8), 2.0**-40, 2.0**-40)
        assert linalg._at_most(1.5, 1.0, 1.0, -1e9)  # the magnitude of a size counts

    def test_rtol_and_strict_form(self):
        assert linalg._at_most(0.1, 0.0, 1.0, rtol=0.1)
        assert not linalg._at_most(0.1, 0.0, 1.0, rtol=0.05)
        assert not linalg._at_most(1.0, 0.0, 0.0)  # a size of zero allows nothing
        # a strict test is the negated reverse: 1 < 1 + 1e-6 clears the slack, 1 < 1 + 1e-12 does not
        assert not linalg._at_most(1.0 + 1e-6, 1.0, 1.0)
        assert linalg._at_most(1.0 + 1e-12, 1.0, 1.0)
