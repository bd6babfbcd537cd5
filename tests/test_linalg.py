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
from gweave.errors import NonFinite, NonHermitian, ShapeMismatch

from oracles import charpoly_eigenvalues, rayleigh_sample_range


def random_hermitian(rng, n, complex_mode=False):
    a = rng.standard_normal((n, n))
    if complex_mode:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        eig = linalg.hermitian_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        eig = linalg.hermitian_eig(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(eig.eigenvalues, [0.5, 2.0])

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_charpoly_oracle(self, complex_mode, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 4, complex_mode)
        eig = linalg.hermitian_eig(m)
        np.testing.assert_allclose(
            eig.eigenvalues, charpoly_eigenvalues(m), atol=1e-9, rtol=1e-9
        )

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_reconstruction_and_unitarity(self, complex_mode):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 6, complex_mode)
        eig = linalg.hermitian_eig(m)
        v, w = eig.eigenvectors, eig.eigenvalues
        rebuilt = (v * w) @ v.conj().T
        assert linalg.frobenius(rebuilt - m) <= 1e-10 * max(1.0, linalg.frobenius(m))
        assert linalg.frobenius(v.conj().T @ v - np.eye(6)) <= 1e-10 * 6

    def test_deterministic_gauge(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 5, complex_mode=True)
        a = linalg.hermitian_eig(m)
        b = linalg.hermitian_eig(m.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        # first significant component of each column is real positive
        for j in range(5):
            col = a.eigenvectors[:, j]
            i = int(np.argmax(np.abs(col) > 1e-12 * np.abs(col).max()))
            assert abs(col[i].imag) <= 1e-12
            assert col[i].real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            linalg.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            linalg.hermitian_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_extremes_bracket_rayleigh_quotients(self, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 5)
        eig = linalg.hermitian_eig(m)
        lo, hi, _ = rayleigh_sample_range(m, 1000, seed + 100)
        assert eig.eigenvalues[0] - 1e-9 <= lo
        assert hi <= eig.eigenvalues[-1] + 1e-9


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
    "rayleigh": lambda: linalg.rayleigh(np.diag([H, 1.0]), [H, 1.0]),
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
    """No function outside ``linalg.py`` raises ``NonFinite``, except two input checks.

    Every other refusal goes through ``linalg._finite``, so the rule has one owner.
    """
    found = set()
    for path in sorted(Path(gweave.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_raises_nonfinite(node) for node in ast.walk(fn)):
                    found.add(f"{path.stem}.{fn.name}")
    assert found == {"gframe.new_gframe", "induced.make_vector_family"}
