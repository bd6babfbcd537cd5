"""The subset-enumeration kernel: one batched numpy scan.

A weaving of two block families is encoded by a bitmask: bit ``i`` set means
block position ``i`` (0-based) is drawn from the first family.  Given

    base   = sum of the second family's d x d Gram contributions,
    deltas = per-block difference of Gram contributions (first minus second),

the mixed frame operator for mask ``s`` is ``base + sum(deltas[i] for i in s)``
and the kernel reports extreme eigenvalues across masks.

Each chunk of masks becomes a stack of operators through one real matmul of
the mask bits with the flattened deltas, and one stacked ``eigvalsh`` gives
its extreme eigenvalues.  Before enumerating, :func:`weaving_scan` removes
work that cannot change the answer:

- a block whose delta is exactly zero gives the same operator with its bit
  set or clear, so only the masks of the remaining blocks are enumerated;
- coordinates split into the connected components of the nonzero pattern of
  ``base`` and every delta, so each operator is block diagonal after a
  permutation and its extreme eigenvalues are the extremes over components.
  A 1 x 1 component is its real diagonal entry and needs no eigensolve.

Ties: the argmin resolves to the smallest mask attaining the minimum and the
argmax to the largest mask attaining the maximum.  Null bits are clear in the
argmin and set in the argmax, which keeps both rules, because inserting fixed
bits preserves the order of masks.
"""

from __future__ import annotations

import numpy as np

from .errors import TooManyBlocks

_CHUNK = 2048
_MAX_BLOCKS = 62  # masks are int64


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


def _extremes(base: np.ndarray, flat: np.ndarray, bits: np.ndarray):
    """Smallest and largest eigenvalue of ``base + sum_i bits[:, i] deltas[i]`` per row of bits."""
    stack = bits @ flat
    if np.iscomplexobj(base):
        stack = stack.view(np.complex128)
    stack = stack.reshape(len(bits), *base.shape)
    stack += base
    w = np.linalg.eigvalsh(stack)
    return w[:, 0], w[:, -1]


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

    def extremes(self, bits: np.ndarray):
        lo = np.full(len(bits), np.inf)
        hi = np.full(len(bits), -np.inf)
        if self.diag_base.size:
            diag = bits @ self.diag_deltas
            diag += self.diag_base
            lo = diag.min(axis=1)
            hi = diag.max(axis=1)
        for base, flat in self.blocks:
            block_lo, block_hi = _extremes(base, flat, bits)
            np.minimum(lo, block_lo, out=lo)
            np.maximum(hi, block_hi, out=hi)
        return lo, hi


def _spread(mask: int, live: np.ndarray) -> int:
    """Place bit ``j`` of ``mask`` at block position ``live[j]``."""
    return sum(1 << int(pos) for j, pos in enumerate(live) if (mask >> j) & 1)


def weaving_scan(base: np.ndarray, deltas: np.ndarray):
    """Extreme eigenvalues over all ``2**n`` masks, with their witness masks.

    Returns ``(lower, argmin_mask, upper, argmax_mask)``.
    """
    n = deltas.shape[0]
    if n > _MAX_BLOCKS:
        raise TooManyBlocks(f"{n} blocks: masks beyond {_MAX_BLOCKS} blocks do not fit in int64")
    live = np.flatnonzero([delta.any() for delta in deltas])
    deltas = deltas[live]
    operator = _SplitOperator(base, deltas)
    k = len(live)
    total = 1 << k
    lower = np.inf
    upper = -np.inf
    argmin_mask = 0
    argmax_mask = 0
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        lo, hi = operator.extremes(_mask_bits(masks, k))
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
