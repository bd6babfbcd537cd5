"""The subset-enumeration kernel: a batched numpy scan and a branch-and-bound over subcubes.

A weaving of two block families is encoded by a bitmask: bit ``i`` set means
block position ``i`` (0-based) is drawn from the first family.  Given

    base   = sum of the second family's d x d Gram contributions,
    deltas = per-block difference of Gram contributions (first minus second),

the mixed frame operator for mask ``s`` is ``base + sum(deltas[i] for i in s)``
and the kernel reports extreme eigenvalues across masks.

Each batch of masks becomes a stack of operators through a real matmul of
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

Then it picks one of three ways through the masks, by the size of the input:

- **Solve every mask**, in ascending batches of at most ``_SCAN_FLOATS``
  stacked entries, when every component is 1 x 1 (a diagonal costs no more
  to solve than to test), or when the masks fit in one batch and the tree
  below does not apply.
- **Certified scan**, when the masks fill more than one batch but there are
  too few blocks for the tree.  Batches run in ascending order, the first
  one tile and each next one doubling.  A batched Cholesky factors
  ``S - (lower + m) I`` and ``(upper - m) I - S`` of every operator ``S``
  of a batch, against the extremes ``lower``/``upper`` of the batches
  before it; where both succeed, every eigenvalue ``eigvalsh`` could return
  for ``S`` lies strictly between them, so the mask can neither be nor tie a
  witness and gets no eigensolve.
- **Branch-and-bound**, when some component is not 1 x 1, the masks fill a
  batch and there are at least ``_TREE_BLOCKS`` non-null blocks (more for
  large components).  Each extreme comes from an exact best-first search
  over subcubes of masks (:func:`_branch_and_bound`, after Land and Doig):

  - a node fixes the bits of the blocks with the largest ``|delta_i|_F``
    first and leaves the others free.  With ``P`` the operator of its fixed
    bits, every completion ``S`` has ``P + sum_free neg(delta_i) <= S`` in
    the Loewner order, where ``neg`` is the negative part, so by Weyl
    monotonicity (Horn and Johnson, *Matrix Analysis*, 4.3) the smallest
    eigenvalue of that envelope bounds the subcube from below;
  - open nodes are expanded smallest bound first, and the operator of each
    new node's own mask (its free bits clear) is solved for the incumbent;
  - a node with at most ``_LEAF_FREE`` free blocks is a leaf subcube: the
    Cholesky test of ``S - (incumbent + m) I`` alone rules out its
    completions that cannot reach the incumbent, and the rest are solved;
  - a node is pruned only when its bound exceeds ``incumbent + m``.

  The largest eigenvalue is the same search on ``-S``, whose envelopes use
  the positive parts.

The sampled search of ``weaving.universal_bounds_search`` looks up one-bit
neighbours through :func:`mask_spectra`.  The search gives each neighbour a
floor and a ceiling: it must be solved if its smallest eigenvalue could reach
the floor or its largest the ceiling.  Floors come from the descents'
values, tightened by the Rayleigh quotients of :func:`neighbour_quotients`.
A side that the Weyl bound from the current mask already clears gets no
test, and a neighbour with both sides cleared is not sent to the kernel;
otherwise :func:`mask_spectra` runs the Cholesky test of :func:`_inside` on
the mask's stack row and solves only the masks that fail it.

The margin ``m`` (:func:`_margin`) bounds the rounding of the shifts, of
Cholesky, of ``eigvalsh``, of the envelopes and of the Weyl and Rayleigh
bounds, so no mask that could be or tie a witness or a descent's step is
ruled out or pruned.  Every solved mask gets the same bits as in a full scan, so every
way gives bitwise the result of solving every mask.

Ties: the argmin resolves to the smallest mask attaining the minimum and the
argmax to the largest mask attaining the maximum.  Null bits are clear in the
argmin and set in the argmax, which keeps both rules, because inserting fixed
bits preserves the order of masks.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import TooManyBlocks

# Rows per matmul in _stack.  BLAS rounds a row of a product differently
# depending on how many rows the product has and, in larger products, on
# where the row sits; every tile of 8 rows goes through one code path.
_TILE = 8
_MAX_BLOCKS = 62  # masks are int64
# float64 entries in one stack from operator_stacks or mask_spectra (128 KiB),
# so that its memory depends on the operator size and not on the number of masks
_STACK_FLOATS = 1 << 14
# float64 entries in the stacks of any one batch of weaving_scan (512 KiB)
_SCAN_FLOATS = 1 << 16
# Non-null blocks from which weaving_scan runs the branch-and-bound, plus one
# for every 4 coordinates by which the largest component exceeds 8.  The tree
# pays an eigensolve per node, the certified scan a stack row and a Cholesky
# test per mask; on random pairs the tree is the faster one from there on.
_TREE_BLOCKS = 12
# open nodes one branch-and-bound round expands, and the free blocks of a leaf
_ROUND = 16
_LEAF_FREE = 4


def backend() -> str:
    """Name of the scan implementation, for tools that record the machine."""
    return "numpy"


def _mask_bits(masks: np.ndarray, n_blocks: int) -> np.ndarray:
    """Bit ``i`` of each mask in column ``i``, as float64 rows, unpacked from its little-endian bytes."""
    octets = masks.astype("<i8").view(np.uint8).reshape(len(masks), 8)
    bits = np.unpackbits(octets, axis=1, count=n_blocks, bitorder="little")
    return bits.astype(np.float64)


def _flat(stack: np.ndarray) -> np.ndarray:
    """A stack as a real matrix with one row per item, complex entries through their float64 view.

    Flat deltas are a real matrix already and stay as they are, so a caller
    may flatten its deltas once and pass the result in their place.
    """
    stack = np.ascontiguousarray(stack)
    if np.iscomplexobj(stack):
        stack = stack.view(np.float64)
    return stack.reshape(stack.shape[0], math.prod(stack.shape[1:]))


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
        singles = [c[0] for c in comps if len(c) == 1]
        # index grids of the components of order >= 2
        self.grids = [np.ix_(c, c) for c in comps if len(c) > 1]
        self.blocks = [(base[sub], _flat(deltas[(slice(None), *sub)])) for sub in self.grids]
        self.diag_base = base.real[singles, singles]
        self.diag_deltas = np.ascontiguousarray(deltas.real[:, singles, singles])
        # float64 entries of one operator, diagonal and components together
        self.floats = len(singles) + sum(flat.shape[1] for _, flat in self.blocks)

    def pieces(self, bits: np.ndarray):
        """The diagonal entries and the component stacks of the operator of each row of bits."""
        diag = _stack(self.diag_base, self.diag_deltas, bits)
        return diag, [_stack(base, flat, bits) for base, flat in self.blocks]

    def extremes(self, bits: np.ndarray, floor: float = np.inf, ceiling: float = -np.inf):
        """Smallest and largest eigenvalue of the operator of each row of bits.

        A row whose operator is proved to have every eigenvalue strictly
        between ``floor`` and ``ceiling`` (the diagonal directly, each
        component by :func:`_inside`) is not solved; it reads ``+inf`` and
        ``-inf``.  A floor of ``-inf`` or a ceiling of ``+inf`` needs no test;
        with the defaults every row is solved.
        """
        diag, stacks = self.pieces(bits)
        if floor == np.inf or ceiling == -np.inf:
            return _solve(diag, stacks)
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


def _inside(stack: np.ndarray, floor, ceiling) -> np.ndarray:
    """Whether Cholesky factors ``S - floor I`` and ``ceiling I - S`` for each operator ``S``.

    ``floor`` and ``ceiling`` are scalars or hold one value per operator.  A
    floor of ``-inf`` or a ceiling of ``+inf`` is not tested.
    """
    c = stack.shape[-1]
    inside = np.ones(len(stack), dtype=bool)
    for sign, shift in ((1, floor), (-1, -ceiling)):
        if np.ndim(shift):
            test = inside & (shift != -np.inf)
            shift = shift[test, np.newaxis]
        elif shift != -np.inf:
            test = inside
        else:
            continue
        shifted = stack[test]
        shifted *= sign
        shifted.reshape(len(shifted), c * c)[:, :: c + 1] -= shift
        inside[test] = _definite(shifted)
    return inside


def _margin(base: np.ndarray, deltas: np.ndarray) -> float:
    """How far past the incumbent a test must pass to rule a mask or a subcube out.

    Write ``N = |base|_F + sum_i |deltas[i]|_F``, ``u`` for the unit
    roundoff, ``d`` for the order of ``base`` and ``k`` for the number of
    deltas.  Every operator ``S`` of the scan has ``|S|_F <= N``, so its
    entries and eigenvalues are at most ``N`` in size, and so are the
    incumbents, which are eigenvalues of such operators.  A shift ``t`` is an
    incumbent moved by the margin, so ``|t| <= 2N``.  Below, ``S^`` is the
    computed stack row of ``S`` and ``c <= d`` the order of a component;
    ``eigvalsh`` returns the eigenvalues of a matrix ``X`` to within
    ``c u |X|_F``, the usual size factor of a Hermitian solver's backward
    error.

    Cholesky test of a mask (its value is ``eigvalsh`` of the same ``S^``):

    - forming ``A = S^ - t I`` (or ``-S^ - t I``) rounds each diagonal entry
      by at most ``u |S_ii - t| <= 3 u N``;
    - if Cholesky runs to completion on ``A``, its factor ``R`` has
      ``R* R = A + E`` with ``|E| <= gamma_{c+1} |R*| |R|`` elementwise
      (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3).
      So ``|E|_2 <= gamma_{c+1} |R|_F^2 <= gamma_{c+1} tr(A) / (1 - gamma_{c+1})``
      with ``tr A <= c (N + |t|) <= 3 c N``, and ``lambda_min(A) >= -|E|_2``,
      which is about ``-3 c (c + 1) u N``;
    - ``eigvalsh`` adds ``c u N``.

    These add up to at most ``3 (d + 1)^2 u N``.

    Envelope bound of a subcube (its masks' values are ``eigvalsh`` of their
    ``S^``; the exact envelope ``L`` lies below every exact ``S``):

    - a stack row sums ``k`` terms and ``base``, so ``|S^ - S|_F <= (k + 1) u N``
      for the mask and likewise for the fixed part ``P`` of the envelope;
    - ``eigh`` gives each delta's parts exactly for a matrix within
      ``c u |delta|_F`` of it, and ``x -> min(x, 0)`` moves them by no more in
      Frobenius norm (its Lipschitz constant is 1, Bhatia, *Matrix
      Analysis*, VII.4); the computed eigenvectors are unitary to ``c u``,
      which adds ``2 c u |delta|_F``, and the product that rebuilds a part
      rounds by ``gamma_c |V| |D| |V*|``, at most ``c^2 u |delta|_F``.
      Summed over the deltas, ``(d^2 + 3 d) u N``;
    - the suffix sums of at most ``k`` parts round by ``(k - 1) u N`` and
      the envelope sum ``P^ + suffix`` by ``2 u N``;
    - ``eigvalsh`` adds ``2 d u N`` on the envelope (``|L|_F <= 2N``) and
      ``d u N`` on the mask.

    These add up to at most ``(d^2 + 6 d + 3 k + 3) u N``.

    Weyl bound of a one-bit neighbour (the sampled search of
    ``weaving.universal_bounds_search``: ``S_x = S_c +- delta_i`` for a
    solved mask ``c``, bounded by ``lo(c) + lambda_min(+-delta_i)`` with both
    terms from ``eigvalsh``; the exact ``S_x`` has
    ``lambda_min(S_x) >= lambda_min(S_c) + lambda_min(+-delta_i)`` by Weyl's
    inequality, Horn and Johnson 4.3.1, and likewise for ``lambda_max``):

    - the stack rows of ``c`` and of ``x`` each round by ``(k + 1) u N``;
    - ``eigvalsh`` adds ``d u N`` on ``S^_c``, ``d u N`` on ``S^_x`` and
      ``d u |delta_i|_F <= d u N`` on the delta;
    - the sum ``lo(c) + lambda`` rounds by ``2 u N``.

    These add up to at most ``(2 k + 3 d + 4) u N``.

    Rayleigh bound of a one-bit neighbour (:func:`neighbour_quotients`: for
    any nonzero vector ``u``, ``lambda_min(S_x) <= u* S_x u / u* u``, and
    ``S_x = S_c +- delta_i``, so ``u* S_c u +- u* delta_i u`` bounds the
    value of ``x`` from above, and of ``lambda_max`` from below, once
    ``u* u`` is close to 1):

    - ``u* S^_c u`` is a dot product of the at most ``2 d^2`` real entries
      of ``u u*`` and ``S^_c``, so it rounds by ``(2 d^2 + 1) u N``, and
      ``S^_c`` is ``(k + 1) u N`` from ``S_c``; ``u* delta_i u`` rounds by
      ``(2 d^2 + 1) u N`` likewise, and the sum by ``2 u N``;
    - ``u`` is the normalised solution of one inverse-iteration step, kept
      only when its computed squared norm, a sum of at most ``2 d``
      squares that rounds by ``2 d u``, is within ``(2 d + 4) u`` (that is
      ``(d + 2) eps``) of 1; so ``|u* u - 1| <= (4 d + 4) u``, which moves
      the quotient by ``(4 d + 4) u N``.  A row that fails takes the
      eigenvector of ``eigh``, unit to within ``d u``;
    - the neighbour's value is ``eigvalsh`` of ``S^_x``: ``(k + 1 + d) u N``.

    These add up to at most ``(4 d^2 + 5 d + 2 k + 10) u N``.  The margin
    ``8 ((d + 2)^2 + k) u N`` is more than twice each of the four sums, and
    more than the Rayleigh sum plus any other, which covers complex
    arithmetic and the solvers' constant factors.  So when a Cholesky test,
    an envelope bound or a Weyl bound clears ``incumbent + margin``, every
    value ``eigvalsh`` would return for the masks it covers is strictly
    beyond the incumbent.  When the incumbent is a Rayleigh bound, those
    values are also beyond the value ``eigvalsh`` returns for the neighbour
    whose quotient it is, so that neighbour is never certified against it.
    """
    norm = np.linalg.norm(base) + np.linalg.norm(deltas, axis=(1, 2)).sum()
    size = (base.shape[0] + 2) ** 2 + len(deltas)
    return 4 * size * np.finfo(np.float64).eps * float(norm)


def _spread(mask: int, live: np.ndarray) -> int:
    """Place bit ``j`` of ``mask`` at block position ``live[j]``."""
    return sum(1 << int(pos) for j, pos in enumerate(live) if (mask >> j) & 1)


def _least(values: np.ndarray, masks: np.ndarray, sign: int, best: tuple) -> tuple:
    """The least of ``best`` and a batch's ``(value, mask)``, ties to the least ``sign * mask``."""
    value = values.min()
    tied = masks[values == value]
    mask = int(tied.min() if sign > 0 else tied.max())
    return (float(value), mask) if (value, sign * mask) < (best[0], sign * best[1]) else best


def _batches(total: int, step: int):
    return (slice(start, start + step) for start in range(0, total, step))


def _branch_and_bound(
    operator: _SplitOperator, deltas: np.ndarray, sign: int, margin: float, step: int
):
    """The least ``sign * lambda`` over all masks of ``operator``, with its mask.

    ``lambda`` is the smallest eigenvalue for ``sign = 1`` and the largest for
    ``sign = -1``; ties go to the smallest and the largest mask.  Returns
    ``(value, mask)``.  Each batch of masks holds at most ``step`` of them.
    """
    k = len(deltas)
    order = np.argsort(-np.linalg.norm(deltas, axis=(1, 2)), kind="stable")
    position = np.left_shift(1, order)  # the bit fixed at each depth
    # The parts with sign * part <= sign * delta, diagonal first, then their
    # sums over the blocks from each depth on
    clip = np.minimum if sign > 0 else np.maximum
    parts = [clip(operator.diag_deltas, 0.0)]
    for sub in operator.grids:
        w, v = np.linalg.eigh(deltas[(slice(None), *sub)])
        parts.append((v * clip(w, 0.0)[:, np.newaxis, :]) @ v.conj().transpose(0, 2, 1))
    suffixes = []
    for part in parts:
        suffix = np.zeros((k + 1, *part.shape[1:]), dtype=part.dtype)
        suffix[:k] = np.cumsum(part[order][::-1], axis=0)[::-1]
        suffixes.append(suffix)

    def bounds(masks, depths):
        out = np.empty(len(masks))
        for part in _batches(len(masks), step):
            diag, stacks = operator.pieces(_mask_bits(masks[part], k))
            for piece, suffix in zip([diag, *stacks], suffixes):
                piece += suffix[depths[part]]
            lo, hi = _solve(diag, stacks)
            out[part] = lo if sign > 0 else -hi
        return out

    def offer(masks, best, test):
        for part in _batches(len(masks), step):
            shift = best[0] + margin if test else np.inf
            floor, ceiling = (shift, np.inf) if sign > 0 else (-np.inf, -shift)
            lo, hi = operator.extremes(_mask_bits(masks[part], k), floor, ceiling)
            best = _least(lo if sign > 0 else -hi, masks[part], sign, best)
        return best

    # the completions of a leaf at each depth: every subset of its free bits
    subsets = {
        depth: ((np.arange(1 << (k - depth))[:, np.newaxis] >> np.arange(k - depth)) & 1)
        @ position[depth:]
        for depth in range(max(0, k - _LEAF_FREE), k + 1)
    }
    root = np.zeros(1, dtype=np.int64)
    best = offer(root, (np.inf, 0), False)
    # the open nodes: the bound, depth and mask of each
    bound, depth, mask = bounds(root, root), root, root
    while True:
        live = bound <= best[0] + margin
        bound, depth, mask = bound[live], depth[live], mask[live]
        if not len(bound):
            break
        pick = np.zeros(len(bound), dtype=bool)
        pick[np.argpartition(bound, min(_ROUND, len(bound)) - 1)[:_ROUND]] = True
        level, fixed = depth[pick], mask[pick]
        bound, depth, mask = bound[~pick], depth[~pick], mask[~pick]
        leaf = level >= k - _LEAF_FREE
        inner = ~leaf
        if inner.any():
            taken = fixed[inner] | position[level[inner]]
            best = offer(taken, best, False)
            masks = np.concatenate([fixed[inner], taken])
            depths = np.concatenate([level[inner], level[inner]]) + 1
            bound = np.concatenate([bound, bounds(masks, depths)])
            depth = np.concatenate([depth, depths])
            mask = np.concatenate([mask, masks])
        if leaf.any():
            leaves = zip(level[leaf].tolist(), fixed[leaf].tolist())
            best = offer(np.concatenate([m | subsets[d] for d, m in leaves]), best, True)
    return best


def weaving_scan(base: np.ndarray, deltas: np.ndarray):
    """Extreme eigenvalues over all ``2**n`` masks, with their witness masks.

    Returns ``(lower, argmin_mask, upper, argmax_mask)``.

    Masks of the non-null blocks are solved in ascending batches of about
    ``_SCAN_FLOATS`` stacked entries when they fit in one batch, or when
    every coordinate component is 1 x 1.  Otherwise, with at least
    ``_TREE_BLOCKS`` non-null blocks plus one for every 4 coordinates by which
    the largest component exceeds 8, each extreme comes from
    :func:`_branch_and_bound`; with fewer, batches after the first are
    certified against the extremes of the earlier ones.  Either way a mask
    is left unsolved only when a test clears its incumbent by the rounding
    :func:`_margin`, so it can neither be nor tie a witness, and each solved
    mask's values are those of a full solve: the result is that of solving
    every mask.
    """
    n = deltas.shape[0]
    _check_blocks(n)
    live = np.flatnonzero([delta.any() for delta in deltas])
    deltas = deltas[live]
    operator = _SplitOperator(base, deltas)
    k = len(live)
    total = 1 << k
    step = max(1, _SCAN_FLOATS // operator.floats)
    largest = max((len(block) for block, _ in operator.blocks), default=1)
    margin = _margin(base, deltas)
    if operator.blocks and total >= step and k >= _TREE_BLOCKS + max(0, largest - 8) // 4:
        low = _branch_and_bound(operator, deltas, 1, margin, step)
        high = _branch_and_bound(operator, deltas, -1, margin, step)
    else:
        low = high = (np.inf, 0)
        # More than one batch with a component to solve: start with one tile
        # and double, so that few masks are solved with no incumbents.  Other
        # scans solve every mask; a diagonal costs no more to solve than to test.
        certify = bool(operator.blocks) and total > step
        start, size = 0, min(step, _TILE) if certify else step
        while start < total:
            masks = np.arange(start, min(start + size, total), dtype=np.int64)
            start, size = start + size, min(2 * size, step)
            bounds = (low[0] + margin, -high[0] - margin) if certify else ()
            lo, hi = operator.extremes(_mask_bits(masks, k), *bounds)
            low = _least(lo, masks, 1, low)
            high = _least(-hi, masks, -1, high)
    null_bits = ((1 << n) - 1) ^ _spread(total - 1, live)
    return low[0], _spread(low[1], live), -high[0], _spread(high[1], live) | null_bits


def mask_spectra(base: np.ndarray, deltas: np.ndarray, masks, floor=None, ceiling=None):
    """Extreme eigenvalues of the mixed operator for each given mask.

    Returns ``(lo, hi)``.  ``deltas`` may also be given as its :func:`_flat`
    matrix, which saves flattening it on every call.  Masks run in batches of
    at most ``_STACK_FLOATS`` stacked entries, and each mask's values are
    those of solving it alone.  With ``floor`` and ``ceiling``, one value of
    each per mask, a mask whose operator passes the Cholesky test of
    :func:`_inside` against its own floor and ceiling is not solved; it reads
    ``+inf`` and ``-inf``.
    """
    n = deltas.shape[0]
    flat = _flat(deltas)
    masks = np.asarray(masks, dtype=np.int64)
    lo = np.full(len(masks), np.inf)
    hi = np.full(len(masks), -np.inf)
    for part in _batches(len(masks), max(1, _STACK_FLOATS // flat.shape[1])):
        stack = _stack(base, flat, _mask_bits(masks[part], n))
        rows = np.arange(len(masks))[part]
        if floor is not None:
            solve = ~_inside(stack, floor[part], ceiling[part])
            stack, rows = stack[solve], rows[solve]
        if len(rows):
            w = np.linalg.eigvalsh(stack)
            lo[rows], hi[rows] = w[:, 0], w[:, -1]
    return lo, hi


def neighbour_quotients(base: np.ndarray, deltas: np.ndarray, masks, lowest, shift):
    """Rayleigh quotients of the one-bit neighbours of each mask at an approximate eigenvector.

    For each mask with operator ``S``, ``u`` is one step of shifted inverse
    iteration (Parlett, *The Symmetric Eigenvalue Problem*, ch. 4): the
    solution ``x`` of ``(S - shift I) x = 1``, normalised.  The caller puts
    the mask's ``shift`` just below the smallest eigenvalue of ``S`` where
    ``lowest`` holds and just above the largest elsewhere, so ``x`` leans
    towards an eigenvector of that eigenvalue.  A row whose ``u`` comes out
    non-finite, zero, or with a computed squared norm not within
    ``(d + 2) eps`` of 1 (from an exactly singular ``S - shift I``, say)
    takes the eigenvector of ``eigh`` instead.

    Any unit ``u`` serves: entry ``[r, i]`` is ``u* (S +- delta_i) u``, with
    ``+`` when bit ``i`` of the mask is clear, and up to the rounding that
    :func:`_margin` bounds it lies between the smallest and the largest
    eigenvalue of that neighbour's operator.  ``deltas`` may also be given as
    its :func:`_flat` matrix.  Masks run in batches of at most
    ``_STACK_FLOATS`` stacked entries.
    """
    n = deltas.shape[0]
    flat = _flat(deltas)
    d = base.shape[0]
    masks = np.asarray(masks, dtype=np.int64)
    lowest = np.asarray(lowest)
    shift = np.asarray(shift, dtype=np.float64)
    ones = np.ones(d, dtype=base.dtype)
    unit = (d + 2) * np.finfo(np.float64).eps
    out = np.empty((len(masks), n))
    for part in _batches(len(masks), max(1, _STACK_FLOATS // flat.shape[1])):
        bits = _mask_bits(masks[part], n)
        stack = _stack(base, flat, bits)
        shifted = stack.copy()
        shifted.reshape(len(stack), d * d)[:, :: d + 1] -= shift[part, np.newaxis]
        # the LAPACK gufunc behind np.linalg.solve, which returns NaN for a
        # singular matrix where np.linalg.solve raises for the whole stack
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = _umath_linalg.solve1(shifted, ones)
            u = x / np.sqrt(np.square(_flat(x)).sum(axis=1))[:, np.newaxis]
            fallback = ~(np.abs(np.square(_flat(u)).sum(axis=1) - 1) <= unit)
        if fallback.any():
            vectors = np.linalg.eigh(stack[fallback])[1]
            u[fallback] = np.where(
                lowest[part][fallback, np.newaxis], vectors[:, :, 0], vectors[:, :, -1]
            )
        # u* X u is the real dot product of u u* with X, entry by entry
        outer = _flat(u[:, :, np.newaxis] * u.conj()[:, np.newaxis, :])
        own = (outer * _flat(stack)).sum(axis=1)
        step = outer @ flat.T  # [r, i] = u_r* delta_i u_r
        out[part] = own[:, np.newaxis] + (1 - 2 * bits) * step
    return out
