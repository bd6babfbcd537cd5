import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from gweave.gframe import new_gframe, optimal_bounds
from gweave.weaving import universal_bounds_exhaustive


def random_gframe(rng, d=None, n=None, complex_mode=False, min_rows_total=None):
    """Random dense family; with enough total rows it is a frame almost surely."""
    d = int(rng.integers(2, 6)) if d is None else d
    n = int(rng.integers(2, 5)) if n is None else n
    rows = [int(rng.integers(1, 4)) for _ in range(n)]
    if min_rows_total is not None:
        while sum(rows) < min_rows_total:
            rows[int(rng.integers(0, n))] += 1
    blocks = []
    for r in rows:
        b = rng.standard_normal((r, d))
        if complex_mode:
            b = b + 1j * rng.standard_normal((r, d))
        blocks.append(b)
    return new_gframe(d, blocks)


def random_frame(rng, d=None, n=None, complex_mode=False):
    """Random family resampled until it is a genuine frame."""
    d = int(rng.integers(2, 6)) if d is None else d
    n = int(rng.integers(2, 5)) if n is None else n
    while True:
        frame = random_gframe(rng, d, n, complex_mode, min_rows_total=d + 1)
        bounds = optimal_bounds(frame)
        if bounds.is_frame and bounds.lower > 1e-3 * bounds.upper:
            return frame


def perturbed_woven_pair(rng, d=None, n=None, complex_mode=False, eps=0.15):
    """A frame and a small perturbation of it, re-verified to be woven."""
    first = random_frame(rng, d, n, complex_mode)
    scale = max(float(np.abs(b).max()) for b in first.blocks)
    while True:
        blocks = []
        for b in first.blocks:
            noise = rng.standard_normal(b.shape)
            if complex_mode:
                noise = noise + 1j * rng.standard_normal(b.shape)
            blocks.append(b + eps * scale * noise)
        second = new_gframe(first.domain_dim, blocks)
        rep = universal_bounds_exhaustive(first, second)
        if rep.woven:
            return first, second, rep
        eps *= 0.5


def _unitary(rng, d, complex_mode):
    a = rng.standard_normal((d, d))
    if complex_mode:
        a = a + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(a)[0]


def basis_pair(rng, rows, complex_mode=False, noise=0.0, fail_late=None):
    """A pair whose every weaving is an orthonormal basis, or a Riesz basis when ``noise`` > 0.

    The first family splits the rows of a random unitary into blocks with the
    given row counts; the second turns each block inside its own span and
    adds ``noise`` times Gaussian entries.  ``fail_late`` breaks only the
    weavings that take the last block from the first family: "scale"
    multiplies it by 1.1, "duplicate" replaces it with the block before it
    (which needs the last two row counts equal).
    """
    d = sum(rows)
    q = _unitary(rng, d, complex_mode)
    first = np.split(q, np.cumsum(rows)[:-1])
    second = [_unitary(rng, b.shape[0], complex_mode) @ b for b in first]
    second = [b + noise * rng.standard_normal(b.shape) for b in second]
    if fail_late == "scale":
        first[-1] = 1.1 * first[-1]
    elif fail_late == "duplicate":
        first[-1] = first[-2].copy()
    return new_gframe(d, first), new_gframe(d, second)
