import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from gweave import _kernels
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


@st.composite
def dense_pairs(draw, max_blocks=14):
    """Dense real or complex pairs, some built to be singular or to tie.

    - ``random``: Gaussian blocks of 1-3 rows;
    - ``low_rank``: every row in one subspace of dimension below ``d``, so
      every operator is singular and its smallest eigenvalue is rounding
      noise around 0;
    - ``few_rows``: each family has fewer than ``d`` rows in all, one row or
      none per block, so again every operator is singular;
    - ``duplicated``: blocks that repeat an earlier block in both families,
      so masks that swap them tie up to rounding;
    - ``scaled``: second-family blocks that are the first family's times
      0.5, 1 (a null block), 2 or 3;
    - ``integer``: blocks drawn from a pool of three small integer blocks, so
      every sum is exact and masks with the same counts tie bitwise.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sizes come from the seed, uniformly: drawn by Hypothesis they would
    # cluster at the small end, where a scan has one chunk
    n = int(rng.integers(1, max_blocks + 1))
    d = int(rng.integers(1, 7))
    complex_mode = draw(st.booleans())
    kind = draw(
        st.sampled_from(["random", "low_rank", "few_rows", "duplicated", "scaled", "integer"])
    )

    def gaussian(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_mode else g

    basis = gaussian((int(rng.integers(0, d)), d))
    pool = [rng.integers(-2, 3, size=(int(r), d)) for r in rng.integers(1, 3, size=3)]
    if complex_mode:
        pool = [b + 1j * rng.integers(-2, 3, size=b.shape) for b in pool]

    def block(rows):
        if kind == "low_rank":
            return gaussian((rows, len(basis))) @ basis
        if kind == "integer":
            return pool[int(rng.integers(len(pool)))].astype(complex if complex_mode else float)
        return gaussian((rows, d))

    def family():
        if kind == "few_rows":
            rows = np.zeros(n, dtype=int)
            rows[rng.permutation(n)[: int(rng.integers(0, d))]] = 1
        else:
            rows = rng.integers(1, 4, size=n)
        return [block(int(r)) for r in rows]

    first, second = family(), family()
    for i in range(1, n):
        if kind == "duplicated" and rng.integers(2):
            j = int(rng.integers(i))
            first[i], second[i] = first[j], second[j]
        if kind == "scaled" and rng.integers(2):
            second[i] = rng.choice([0.5, 1.0, 2.0, 3.0]) * first[i]
    return new_gframe(d, first), new_gframe(d, second)


def linalg_calls(monkeypatch, *names):
    """Record every call of these ``numpy.linalg`` functions, those numpy makes itself included.

    ``np.linalg.norm(v, 2)``, say, takes an SVD through numpy's own module.
    """
    calls = []
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 or numpy 1
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(impl, name, counted)
    return calls


@st.composite
def zero_row_basis_pairs(draw, max_blocks=8):
    """Pairs near a basis, with zero-row blocks and row counts that may differ between the families.

    The second family splits the rows of a random unitary by its row counts,
    0 to 2 per block, and ``d`` is their sum.  The first family takes the
    same row counts and turns each block inside its own span (``same``),
    splits a second unitary by a permutation of them (``permuted``), or
    draws row counts of its own, Gaussian past ``d`` rows (``drawn``).  Its
    blocks get ``noise`` times Gaussian entries, and a block may be copied
    from the second family, which makes it null.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, max_blocks + 1))
    kind = draw(st.sampled_from(["same", "permuted", "drawn"]))
    noise = draw(st.sampled_from([0.0, 1e-9, 0.02, 0.3]))
    rows2 = rng.integers(0, 3, size=n)
    d = max(1, int(rows2.sum()))
    rows1 = {"same": rows2, "permuted": rng.permutation(rows2), "drawn": rng.integers(0, 3, size=n)}

    def split(rows, q):
        """The rows of ``q`` in blocks of ``rows``, Gaussian once they run out."""
        ends = np.cumsum(rows)
        return [q[e - r : e] if e <= d else rng.standard_normal((r, d)) for r, e in zip(rows, ends)]

    second = split(rows2, _unitary(rng, d, False))
    if kind == "same":
        first = [_unitary(rng, len(b), False) @ b if len(b) else b for b in second]
    else:
        first = split(rows1[kind], _unitary(rng, d, False))
    first = [b + noise * rng.standard_normal(b.shape) for b in first]
    if draw(st.booleans()):
        i = int(rng.integers(n))
        first[i] = second[i].copy()
    return new_gframe(d, first), new_gframe(d, second)


def basis_walks(monkeypatch) -> list:
    """The number of masks of each batch that ``_kernels.basis_search`` walks, as it computes it.

    While the basis search runs, a walk is the only caller of
    ``_kernels._batches`` that sets the size of a first batch.  The scan
    that a passing Riesz classifier runs after the search does not count.
    """
    walked, active = [], []
    search, batches = _kernels.basis_search, _kernels._batches

    def searched(*args, **kwargs):
        active.append(True)
        try:
            yield from search(*args, **kwargs)
        finally:
            active.pop()

    def counted(total, step, first=0):
        for part in batches(total, step, first):
            if active and first:
                walked.append(min(part.stop, total) - part.start)
            yield part

    monkeypatch.setattr(_kernels, "basis_search", searched)
    monkeypatch.setattr(_kernels, "_batches", counted)
    return walked
