"""The subset-enumeration kernel: one batched numpy scan.

A weaving of two block families is encoded by a bitmask: bit ``i`` set means
block position ``i`` (0-based) is drawn from the first family.  Given

    base   = sum of the second family's d x d Gram contributions,
    deltas = per-block difference of Gram contributions (first minus second),

the mixed frame operator for mask ``s`` is ``base + sum(deltas[i] for i in s)``
and the kernel reports extreme eigenvalues across masks.

Each chunk of masks becomes a stack of operators through a real matmul of
the mask bits with the flattened deltas (:func:`_stack`, the only place a
stack is built), and one stacked ``eigvalsh`` gives its extreme eigenvalues.
The matmul runs in tiles of a fixed number of rows, so a mask's operator, and
with it its eigenvalues, is bitwise the same whatever batch it comes in.
:func:`operator_stacks` hands the stacks of all masks, in ascending order, to
callers that reduce them some other way.

Before enumerating, :func:`weaving_scan` removes work that cannot change the
answer:

- a block whose delta is exactly zero gives the same operator with its bit
  set or clear, so only the masks of the remaining blocks are enumerated;
- coordinates split into the connected components of the nonzero pattern of
  ``base`` and every delta, so each operator is block diagonal after a
  permutation and its extreme eigenvalues are the extremes over components.
  A 1 x 1 component is its real diagonal entry and needs no eigensolve.

While enumerating, it solves only the masks that could be a witness.  It
keeps the extremes ``lower`` and ``upper`` of the chunks already scanned.
For the next chunk a batched Cholesky factors ``S - (lower + m) I`` and
``(upper - m) I - S`` of every operator ``S``; where both succeed, every
eigenvalue ``eigvalsh`` could return for ``S`` lies strictly between
``lower`` and ``upper``, so the mask can neither be nor tie a witness and
gets no eigensolve.  The margin ``m`` (:func:`_margin`) bounds the rounding
of the shift, of Cholesky and of ``eigvalsh``.  Every other mask is solved
as in a full scan, with the same bits, so the result is bitwise that of
solving every mask.

Ties: the argmin resolves to the smallest mask attaining the minimum and the
argmax to the largest mask attaining the maximum.  Null bits are clear in the
argmin and set in the argmax, which keeps both rules, because inserting fixed
bits preserves the order of masks.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import TooManyBlocks

_CHUNK = 2048
# Rows per matmul in _stack.  BLAS rounds a row of a product differently
# depending on how many rows the product has and, in larger products, on
# where the row sits; every tile of 8 rows goes through one code path.
_TILE = 8
_MAX_BLOCKS = 62  # masks are int64
# float64 entries in one stack from operator_stacks (128 KiB), so that its
# memory depends on the operator size and not on the number of masks
_STACK_FLOATS = 1 << 14
# float64 entries in the stacks of one weaving_scan chunk (512 KiB)
_SCAN_FLOATS = 1 << 16


def backend() -> str:
    """Name of the scan implementation, for tools that record the machine."""
    return "numpy"


def _mask_bits(masks: np.ndarray, n_blocks: int) -> np.ndarray:
    bits = (masks[:, np.newaxis] >> np.arange(n_blocks, dtype=np.int64)) & 1
    return bits.astype(np.float64)


def _flat(deltas: np.ndarray) -> np.ndarray:
    """Deltas as a real ``(k, entries)`` matrix, complex ones through their float64 view."""
    deltas = np.ascontiguousarray(deltas)
    if np.iscomplexobj(deltas):
        deltas = deltas.view(np.float64)
    return deltas.reshape(deltas.shape[0], int(np.prod(deltas.shape[1:])))


def _check_blocks(n: int) -> None:
    if n > _MAX_BLOCKS:
        raise TooManyBlocks(f"{n} blocks: masks beyond {_MAX_BLOCKS} blocks do not fit in int64")


def _stack(base: np.ndarray, flat: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The operators ``base + sum_i bits[:, i] deltas[i]``, one per row of bits.

    The product runs on ``_TILE``-row tiles, the last one zero-padded, so each
    row's operator does not depend on the other rows.
    """
    m, k = bits.shape
    tiles = -(-m // _TILE)
    if tiles * _TILE != m:
        bits = np.concatenate([bits, np.zeros((tiles * _TILE - m, k))])
    stack = (bits.reshape(tiles, _TILE, k) @ flat).reshape(tiles * _TILE, flat.shape[1])[:m]
    if np.iscomplexobj(base):
        stack = stack.view(np.complex128)
    stack = stack.reshape(m, *base.shape)
    stack += base
    return stack


def _extremes(base: np.ndarray, flat: np.ndarray, bits: np.ndarray):
    """Smallest and largest eigenvalue of the operator of each row of bits."""
    w = np.linalg.eigvalsh(_stack(base, flat, bits))
    return w[:, 0], w[:, -1]


def operator_stacks(base: np.ndarray, deltas: np.ndarray):
    """Yield ``(masks, bits, stack)`` for all ``2**n`` masks in ascending order.

    ``bits`` holds the masks' bits as float64 rows and ``stack`` their mixed
    operators; the caller may overwrite both.  A stack holds at most
    ``_STACK_FLOATS`` float64 entries (and at least one operator).
    """
    n = deltas.shape[0]
    _check_blocks(n)
    flat = _flat(deltas)
    step = max(1, _STACK_FLOATS // flat.shape[1])
    total = 1 << n
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.int64)
        bits = _mask_bits(masks, n)
        yield masks, bits, _stack(base, flat, bits)


def _components(pattern: np.ndarray) -> list:
    """Connected components of a symmetric boolean adjacency, each as ascending indices."""
    reach = pattern | np.eye(len(pattern), dtype=bool)
    while True:
        grown = (reach.astype(np.float64) @ reach) > 0
        if (grown == reach).all():
            break
        reach = grown
    roots = reach.argmax(axis=1)  # smallest index each coordinate reaches
    # np.unique would import numpy.ma on first use, about 1 MB of resident memory
    return [np.flatnonzero(roots == r) for r in np.flatnonzero(roots == np.arange(len(roots)))]


class _SplitOperator:
    """``base + sum_i bits[:, i] deltas[i]`` evaluated component by component."""

    def __init__(self, base: np.ndarray, deltas: np.ndarray):
        pattern = (base != 0) | (deltas != 0).any(axis=0)
        comps = _components(pattern | pattern.T)
        self.blocks = []
        singles = []
        for c in comps:
            if len(c) == 1:
                singles.append(c[0])
            else:
                sub = np.ix_(c, c)
                self.blocks.append((base[sub], _flat(deltas[(slice(None), *sub)])))
        self.diag_base = base.real[singles, singles]
        self.diag_deltas = np.ascontiguousarray(deltas.real[:, singles, singles])
        # float64 entries of one operator, diagonal and components together
        self.floats = len(singles) + sum(flat.shape[1] for _, flat in self.blocks)

    def extremes(self, bits: np.ndarray, floor: float = np.inf, ceiling: float = -np.inf):
        """Smallest and largest eigenvalue of the operator of each row of bits.

        When ``floor`` and ``ceiling`` are finite, a row whose operator is
        proved to have every eigenvalue strictly between them (each component
        passes :func:`_inside`) is not solved; it reads ``+inf`` and ``-inf``.
        """
        diag = _stack(self.diag_base, self.diag_deltas, bits)
        stacks = [_stack(base, flat, bits) for base, flat in self.blocks]
        solve = np.ones(len(bits), dtype=bool)
        if np.isfinite(floor):
            solve = (diag.min(axis=1, initial=np.inf) <= floor) | (
                diag.max(axis=1, initial=-np.inf) >= ceiling
            )
            for stack in stacks:
                undecided = ~solve
                solve[undecided] = ~_inside(stack[undecided], floor, ceiling)
        rows = np.flatnonzero(solve)
        lo = np.full(len(bits), np.inf)
        hi = np.full(len(bits), -np.inf)
        lo[rows], hi[rows] = _solve(diag[rows], [stack[rows] for stack in stacks])
        return lo, hi


def _solve(diag: np.ndarray, stacks: list):
    """Extreme eigenvalues per row from its diagonal part and its component stacks."""
    lo = np.full(len(diag), np.inf)
    hi = np.full(len(diag), -np.inf)
    if diag.shape[1]:
        lo = diag.min(axis=1)
        hi = diag.max(axis=1)
    for stack in stacks:
        if len(stack):
            w = np.linalg.eigvalsh(stack)
            np.minimum(lo, w[:, 0], out=lo)
            np.maximum(hi, w[:, -1], out=hi)
    return lo, hi


def _definite(stack: np.ndarray) -> np.ndarray:
    """Whether Cholesky factors each matrix of a stack, reading its lower triangle as Hermitian.

    This is the LAPACK gufunc behind ``np.linalg.cholesky``; where that
    raises for the whole stack, the gufunc returns NaN for the matrices that
    failed and factors the others.
    """
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(stack)
    return ~np.isnan(factor[:, -1, -1])


def _inside(stack: np.ndarray, floor: float, ceiling: float) -> np.ndarray:
    """Whether Cholesky factors both ``S - floor I`` and ``ceiling I - S`` for each operator ``S``."""
    m, c = len(stack), stack.shape[-1]
    shifted = stack.copy()
    shifted.reshape(m, c * c)[:, :: c + 1] -= floor
    inside = _definite(shifted)
    shifted = -stack[inside]
    shifted.reshape(len(shifted), c * c)[:, :: c + 1] += ceiling
    inside[inside] = _definite(shifted)
    return inside


def _margin(base: np.ndarray, deltas: np.ndarray) -> float:
    """How far inside the incumbents a Cholesky test must pass to rule a mask out.

    Write ``N = |base|_F + sum_i |deltas[i]|_F`` and ``u`` for the unit
    roundoff.  Every operator ``S`` of the scan has ``|S|_F <= N``, so its
    entries and eigenvalues are at most ``N`` in size, and so are the
    incumbents, which are eigenvalues of such operators; the computed
    operators keep this up to a relative ``O(n u)``.  A shift ``t`` is an
    incumbent moved by the margin, so ``|t| <= 2N``.  For a component of
    order ``c <= d``:

    - forming ``A = S - t I`` (or ``t I - S``) rounds each diagonal entry by
      at most ``u |S_ii - t| <= 3 u N``;
    - if Cholesky runs to completion on ``A``, its factor ``R`` has
      ``R* R = A + E`` with ``|E| <= gamma_{c+1} |R*| |R|`` elementwise
      (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3).
      So ``|E|_2 <= gamma_{c+1} |R|_F^2 <= gamma_{c+1} tr(A) / (1 - gamma_{c+1})``
      with ``tr A <= c (N + |t|) <= 3 c N``, and ``lambda_min(A) >= -|E|_2``,
      which is about ``-3 c (c + 1) u N``;
    - ``eigvalsh`` returns the eigenvalues of ``S`` to within ``c u N``, the
      usual size factor of a Hermitian solver's backward error.

    These add up to at most ``3 (d + 1)^2 u N``.  The margin
    ``8 (d + 2)^2 u N`` is more than twice that, which covers complex
    arithmetic and the solvers' constant factors.  So when the test at
    ``lower + margin`` passes, the smallest eigenvalue ``eigvalsh`` would
    return is strictly above ``lower``; likewise at ``upper - margin``.
    """
    norm = np.linalg.norm(base) + np.linalg.norm(deltas, axis=(1, 2)).sum()
    return 4 * (base.shape[0] + 2) ** 2 * np.finfo(np.float64).eps * float(norm)


def _spread(mask: int, live: np.ndarray) -> int:
    """Place bit ``j`` of ``mask`` at block position ``live[j]``."""
    return sum(1 << int(pos) for j, pos in enumerate(live) if (mask >> j) & 1)


def weaving_scan(base: np.ndarray, deltas: np.ndarray):
    """Extreme eigenvalues over all ``2**n`` masks, with their witness masks.

    Returns ``(lower, argmin_mask, upper, argmax_mask)``.

    Masks run in ascending chunks of at most about ``_SCAN_FLOATS`` stacked
    entries.  When the masks fill more than one chunk, the first chunk is one
    tile and each next one doubles; every mask of the first chunk is solved,
    as there is nothing yet to test it against.  From the second chunk on, a mask is solved only when Cholesky fails to
    prove ``lambda_min > lower`` and ``lambda_max < upper`` against the
    extremes ``lower``/``upper`` of the earlier chunks, with the rounding
    :func:`_margin` between each test and its incumbent.  A mask that is not
    solved can neither be nor tie a witness, and each solved mask's values
    are those of a full solve, so the result is that of solving every mask.
    """
    n = deltas.shape[0]
    _check_blocks(n)
    live = np.flatnonzero([delta.any() for delta in deltas])
    deltas = deltas[live]
    operator = _SplitOperator(base, deltas)
    margin = _margin(base, deltas)
    k = len(live)
    total = 1 << k
    step = max(1, _SCAN_FLOATS // operator.floats)
    lower = np.inf
    upper = -np.inf
    argmin_mask = 0
    argmax_mask = 0
    # A scan that fits in one chunk is solved in one.  A longer one starts with
    # one tile and doubles, so that few masks are solved with no incumbents.
    start, size = 0, min(step, _TILE) if total > step else step
    while start < total:
        masks = np.arange(start, min(start + size, total), dtype=np.int64)
        start, size = start + size, min(2 * size, step)
        lo, hi = operator.extremes(_mask_bits(masks, k), lower + margin, upper - margin)
        i = int(np.argmin(lo))
        if lo[i] < lower:
            lower = float(lo[i])
            argmin_mask = int(masks[i])
        j = len(hi) - 1 - int(np.argmax(hi[::-1]))
        if hi[j] >= upper:
            upper = float(hi[j])
            argmax_mask = int(masks[j])
    null_bits = ((1 << n) - 1) ^ _spread(total - 1, live)
    return lower, _spread(argmin_mask, live), upper, _spread(argmax_mask, live) | null_bits


def mask_spectra(base: np.ndarray, deltas: np.ndarray, masks):
    """Extreme eigenvalues of the mixed operator for each given mask."""
    n = deltas.shape[0]
    flat = _flat(deltas)
    masks = np.asarray(masks, dtype=np.int64)
    lo = np.empty(len(masks))
    hi = np.empty(len(masks))
    for start in range(0, len(masks), _CHUNK):
        part = slice(start, start + _CHUNK)
        lo[part], hi[part] = _extremes(base, flat, _mask_bits(masks[part], n))
    return lo, hi
