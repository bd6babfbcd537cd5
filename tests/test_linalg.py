"""Spectral primitive contracts, checked against charpoly and sampling oracles."""

import numpy as np
import pytest

from gweave import linalg
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
