"""The subset-enumeration kernel: a two-sided branch-and-bound over subcubes of masks.

A weaving of two block families is encoded by a bitmask: bit ``i`` set means
block position ``i`` (0-based) is drawn from the first family.  Given

    base   = sum of the second family's d x d Gram contributions,
    deltas = per-block difference of Gram contributions (first minus second),

the mixed frame operator for mask ``s`` is ``base + sum(deltas[i] for i in s)``
and the kernel reports extreme eigenvalues across masks.

Every spectrum goes through one representation, :class:`_SplitOperator`:
coordinates split into the connected components of the nonzero pattern of
``base`` and every delta, so each operator is block diagonal after a
permutation and its extreme eigenvalues are the extremes over components.
A 1 x 1 component is its real diagonal entry and needs no eigensolve.  Each
batch of masks becomes one stack per component through a real matmul of the
mask bits with that component's flattened deltas (:func:`_stack`), and one
stacked ``eigvalsh`` per component gives its extreme eigenvalues.  Each
operator fixes its batch size once, ``step`` masks whose stacks hold at most
``_BATCH_FLOATS`` entries, and every kernel entry reads it.  The matmul runs
in tiles of a fixed number of rows, so a mask's operator, and with it its
eigenvalues, is bitwise the same whatever batch it comes in, and the scan,
the sampled search and the basis classifiers of ``weaving`` read the same
values for the same mask.

Before enumerating, :func:`weaving_scan` also drops every block whose delta
is exactly zero: it gives the same operator with its bit set or clear, so
only the masks of the remaining blocks are enumerated.

Then one search over subcubes of masks (:func:`_subcube_search`, a
best-first branch-and-bound after Land and Doig) gives both extremes:

- a node fixes the bits of the blocks with the largest ``|delta_i|_F`` first
  and leaves the others free.  With ``P`` the operator of its fixed bits,
  every completion ``S`` has ``P + sum_free neg(delta_i) <= S`` in the
  Loewner order, where ``neg`` is the negative part, so by Weyl monotonicity
  (Horn and Johnson, *Matrix Analysis*, 4.3) the smallest eigenvalue of that
  envelope bounds the subcube's ``lambda_min`` from below; the envelope of
  the positive parts bounds its ``lambda_max`` from above;
- every mask the search solves, a new node's own mask (its free bits clear)
  or a leaf completion, updates both incumbents;
- a side of a node closes once its bound clears that side's incumbent by the
  margin ``m``, and stays closed in the node's children, whose envelopes for
  that side are never computed; a node is dropped when both sides are closed;
- each round expands the ``_ROUND`` open nodes of least bound on each side;
- a node with at most ``_LEAF_FREE`` free blocks is a leaf subcube.  A batched
  Cholesky factors ``S - (lower + m) I`` and ``(upper - m) I - S`` of each
  completion ``S``, for the sides open at the leaf, against the incumbents
  ``lower``/``upper``; where both succeed, every eigenvalue ``eigvalsh``
  could return for ``S`` lies strictly between them, so the mask can neither
  be nor tie a witness and gets no eigensolve.

The whole cube is one leaf when every component is 1 x 1, when the masks fit
in one batch of at most ``_BATCH_FLOATS`` stacked entries, or when there are
fewer than ``_TREE_BLOCKS`` non-null blocks (more for large components).
Its masks run in ascending batches.  When some component is not 1 x 1 and
the masks fill more than one batch, the first batch is one tile, each next
one doubles, and the masks after the first batch take the Cholesky test; a
diagonal costs no more to solve than to test, and one batch has no
incumbents to test against.

The sampled search of ``weaving.universal_bounds_search`` looks up one-bit
neighbours through :func:`mask_spectra`.  The search gives each neighbour a
floor and a ceiling: it must be solved if its smallest eigenvalue could reach
the floor or its largest the ceiling.  Floors come from the descents'
values, tightened by the Rayleigh quotients of :func:`neighbour_quotients`.
A side that the Weyl bound from the current mask already clears gets no
test, and a neighbour with both sides cleared is not sent to the kernel;
otherwise :func:`mask_spectra` runs the Cholesky test of :func:`_inside` on
each component of the mask's operator and solves only the masks that fail
it.  Its quotients and Weyl steps are taken piece by piece too, so no step
of the search forms or solves a matrix larger than a component.

The margin ``m`` (:func:`_margin`) bounds the rounding of the shifts, of
Cholesky, of ``eigvalsh``, of the envelopes and of the Weyl and Rayleigh
bounds, so no mask that could be or tie a witness or a descent's step is
ruled out or pruned.  It is a multiple of ``N``, the Frobenius norm of
``base`` plus those of the deltas.  Each operator takes these norms from its
own pieces, which hold every nonzero entry: the squares of a row's entries
in the diagonal part and the components, each entry first scaled by the
power of two just above the row's largest one, so no square overflows.  The
same norms order the tree's blocks.  Every solved mask gets the same bits
as in a full scan, so the search gives bitwise the result of solving every
mask.

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
# float64 entries in the stacks of any one batch of masks (128 KiB), so that
# a batch's memory depends on the operator size and not on the number of masks
_BATCH_FLOATS = 1 << 14
# Non-null blocks from which the search splits the cube into subcubes, plus
# one for every 4 coordinates by which the largest component exceeds 8.  A
# node pays an eigensolve for its envelope, a mask of the cube as one leaf a
# stack row and a Cholesky test; on random pairs the subcubes are the faster
# from there on.
_TREE_BLOCKS = 12
# open nodes one search round expands on each side, and the free blocks of a leaf
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
    """A stack as a real matrix with one row per item, complex entries through their float64 view."""
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


def _scaled_norms(pieces: list):
    """Frobenius norm of each row over the real matrices ``pieces``, as ``ratios * 2**exponents``.

    ``2**exponents`` is the least power of two above the row's largest entry
    (1 for a zero row).  Scaling by it is exact and leaves every entry below
    1 in size, so no square overflows.
    """
    top = np.max([np.abs(piece).max(axis=1, initial=0.0) for piece in pieces], axis=0)
    exponents = np.frexp(top)[1][:, np.newaxis]
    squares = sum(np.square(np.ldexp(piece, -exponents)).sum(axis=1) for piece in pieces)
    return np.sqrt(squares), exponents[:, 0]


class _SplitOperator:
    """``base + sum_i bits[:, i] deltas[i]`` evaluated component by component."""

    def __init__(self, base: np.ndarray, deltas: np.ndarray):
        pattern = (base != 0) | (deltas != 0).any(axis=0)
        comps = _components(pattern | pattern.T)
        singles = [c[0] for c in comps if len(c) == 1]
        subs = [np.ix_(c, c) for c in comps if len(c) > 1]
        # each component of order >= 2: its deltas, and its base with the deltas' flat views
        self.block_deltas = [deltas[(slice(None), *sub)] for sub in subs]
        self.blocks = [(base[sub], _flat(stack)) for sub, stack in zip(subs, self.block_deltas)]
        self.diag_base = base.real[singles, singles]
        self.diag_deltas = np.ascontiguousarray(deltas.real[:, singles, singles])
        # masks per batch, whose stacks hold at most _BATCH_FLOATS float64 entries
        floats = len(singles) + sum(flat.shape[1] for _, flat in self.blocks)
        self.step = max(1, _BATCH_FLOATS // floats)
        # the Frobenius norms of base, row 0, and of each delta, from the pieces
        ratios, exponents = _scaled_norms(
            [np.concatenate([self.diag_base[np.newaxis], self.diag_deltas])]
            + [np.concatenate([_flat(b[np.newaxis]), flat]) for b, flat in self.blocks]
        )
        with np.errstate(over="ignore"):  # a norm beyond float64 is inf, and orders first
            self.norms = np.ldexp(ratios[1:], exponents[1:])
        self.margin = _margin(ratios, exponents, len(base))

    def pieces(self, bits: np.ndarray):
        """The diagonal entries and the component stacks of the operator of each row of bits."""
        if len(self.diag_base):
            diag = _stack(self.diag_base, self.diag_deltas, bits)
        else:
            diag = np.empty((len(bits), 0))
        return diag, [_stack(base, flat, bits) for base, flat in self.blocks]

    def extremes(self, bits: np.ndarray, floor=None, ceiling=None):
        """Smallest and largest eigenvalue of the operator of each row of bits.

        With no ``floor`` and ``ceiling`` every row is solved.  Otherwise
        they are both scalars or both hold one value per row, and a row whose
        operator is proved to have every eigenvalue strictly between its
        floor and ceiling (the diagonal directly, each component by
        :func:`_inside`) is not solved; it reads ``+inf`` and ``-inf``.  A
        floor of ``-inf`` or a ceiling of ``+inf`` needs no test.
        """
        diag, stacks = self.pieces(bits)
        if floor is None:
            return _solve(diag, stacks)
        solve = np.zeros(len(bits), dtype=bool)
        if diag.shape[1]:
            solve = (diag.min(axis=1) <= floor) | (diag.max(axis=1) >= ceiling)
        for stack in stacks:
            rows = ~solve
            if rows.all():  # every row: test the stack itself, not a copy
                solve = ~_inside(stack, floor, ceiling)
            elif rows.any():
                shifts = (floor[rows], ceiling[rows]) if np.ndim(floor) else (floor, ceiling)
                solve[rows] = ~_inside(stack[rows], *shifts)
        if solve.all():
            return _solve(diag, stacks)
        lo = np.full(len(bits), np.inf)
        hi = np.full(len(bits), -np.inf)
        rows = np.flatnonzero(solve)
        if len(rows):
            lo[rows], hi[rows] = _solve(diag[rows], [stack[rows] for stack in stacks])
        return lo, hi


def _solve(diag: np.ndarray, stacks: list):
    """Extreme eigenvalues per row from its diagonal part and its component stacks."""
    lo = diag.min(axis=1, initial=np.inf)
    hi = diag.max(axis=1, initial=-np.inf)
    for stack in stacks:
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


def _margin(ratios: np.ndarray, exponents: np.ndarray, order: int) -> float:
    """How far past the incumbent a test must pass to rule a mask or a subcube out.

    Write ``N = |base|_F + sum_i |deltas[i]|_F``, ``u`` for the unit
    roundoff, ``d = order`` for the order of ``base`` and ``k`` for the number
    of deltas.  The norms come from the pieces of :class:`_SplitOperator`,
    whose diagonal part and components hold every nonzero entry: norm ``j``
    (``base`` first, then each delta) is ``ratios[j] * 2**exponents[j]``, where
    ``2**exponents[j]`` is the least power of two above the row's largest
    entry and ``ratios[j]`` the root of the sum of the squares of the row's
    entries scaled by it (:func:`_scaled_norms`).  The margin multiplies each
    ratio by its factor ``8 ((d + 2)^2 + k) u`` before applying ``2**e`` and
    summing, so neither a square nor the sum overflows.

    Every operator ``S`` of the scan has ``|S|_F <= N``, so its entries and
    eigenvalues are at most ``N`` in size, and so are the incumbents, which
    are eigenvalues of such operators.  A shift ``t`` is an incumbent moved
    by the margin, so ``|t| <= 2N``.  Below, ``S^`` is the computed stack
    row of ``S`` and ``c <= d`` the order of a component; ``eigvalsh``
    returns the eigenvalues of a matrix ``X`` to within ``c u |X|_F``, the
    usual size factor of a Hermitian solver's backward error.

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
    solved mask ``c``, bounded by ``lo(c) + lambda_min(+-delta_i)`` with
    ``lo(c)`` from ``eigvalsh`` and the delta's term from its diagonal part,
    exact, and ``eigvalsh`` of each of its components; the exact ``S_x`` has
    ``lambda_min(S_x) >= lambda_min(S_c) + lambda_min(+-delta_i)`` by Weyl's
    inequality, Horn and Johnson 4.3.1, and likewise for ``lambda_max``):

    - the stack rows of ``c`` and of ``x`` each round by ``(k + 1) u N``;
    - ``eigvalsh`` adds ``d u N`` on ``S^_c``, ``d u N`` on ``S^_x`` and
      ``c u |delta_i|_F <= d u N`` on a component of the delta;
    - the sum ``lo(c) + lambda`` rounds by ``2 u N``.

    These add up to at most ``(2 k + 3 d + 4) u N``.

    Rayleigh bound of a one-bit neighbour (:func:`neighbour_quotients`: for
    any nonzero vector ``u``, ``lambda_min(S_x) <= u* S_x u / u* u``, and
    ``S_x = S_c +- delta_i``, so ``u* S_c u +- u* delta_i u`` bounds the
    value of ``x`` from above, and of ``lambda_max`` from below, once
    ``u* u`` is close to 1; ``u`` lies in one component, of order
    ``c <= d``, or is a coordinate vector of the diagonal part):

    - ``u* S^_c u`` is a dot product of the at most ``2 c^2`` real entries
      of ``u u*`` and ``S^_c``, so it rounds by ``(2 d^2 + 1) u N``, and
      ``S^_c`` is ``(k + 1) u N`` from ``S_c``; ``u* delta_i u`` rounds by
      ``(2 d^2 + 1) u N`` likewise, and the sum by ``2 u N``;
    - on a component ``u`` is the normalised solution of one
      inverse-iteration step, kept only when its computed squared norm, a
      sum of at most ``2 c`` squares that rounds by ``2 c u``, is within
      ``(2 c + 4) u`` (that is ``(c + 2) eps``) of 1; so
      ``|u* u - 1| <= (4 c + 4) u <= (4 d + 4) u``, which moves the quotient
      by ``(4 d + 4) u N``.  A row that fails takes the eigenvector of
      ``eigh``, unit to within ``c u``;
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
    size = (order + 2) ** 2 + len(ratios) - 1
    return float(np.ldexp(4 * size * np.finfo(np.float64).eps * ratios, exponents).sum())


def _spread(mask: int, live: np.ndarray) -> int:
    """Place bit ``j`` of ``mask`` at block position ``live[j]``."""
    return sum(1 << int(pos) for j, pos in enumerate(live) if (mask >> j) & 1)


def _least(values: np.ndarray, masks: np.ndarray, sign: int, best: tuple) -> tuple:
    """The least of ``best`` and a batch's ``(value, mask)``, ties to the least ``sign * mask``."""
    value = values.min()
    tied = masks[values == value]
    mask = int(tied.min() if sign > 0 else tied.max())
    return (float(value), mask) if (value, sign * mask) < (best[0], sign * best[1]) else best


def _batches(total: int, step: int, first: int = 0):
    """Slices of ``range(total)`` in order.

    Each is ``step`` long, or with ``first`` the first is that long and each
    next one doubles up to ``step``.
    """
    start, size = 0, first or step
    while start < total:
        yield slice(start, start + size)
        start, size = start + size, min(2 * size, step)


def _subcube_search(operator: _SplitOperator, cube: bool):
    """Both extremes over all masks of ``operator``, each with its mask.

    Returns ``(low, high)``, ``low = (lambda_min, argmin)`` and
    ``high = (-lambda_max, argmax)``, ties to the smallest and the largest
    mask.  With ``cube`` the whole cube is one leaf; otherwise the search
    runs over subcubes.  Each batch holds at most ``operator.step`` masks.
    """
    k = len(operator.norms)
    step, margin = operator.step, operator.margin
    best = [(np.inf, 0), (np.inf, 0)]  # the incumbents of lambda_min and of -lambda_max

    def offer(masks, test=False, sides=None):
        """Solve ``masks`` for both incumbents.

        With ``test`` a mask is first tested against the incumbents, or only
        against those of its open sides: the rows of ``sides`` flag for each
        mask whether the side of ``lambda_min`` and of ``lambda_max`` is open.
        """
        for part in _batches(len(masks), step):
            bits = _mask_bits(masks[part], k)
            if not test:
                lo, hi = _solve(*operator.pieces(bits))
            else:
                floor, ceiling = best[0][0] + margin, -best[1][0] - margin
                if sides is not None:  # a floor of -inf and a ceiling of +inf test nothing
                    floor = np.where(sides[0, part], floor, -np.inf)
                    ceiling = np.where(sides[1, part], ceiling, np.inf)
                lo, hi = operator.extremes(bits, floor, ceiling)
            best[0] = _least(lo, masks[part], 1, best[0])
            best[1] = _least(-hi, masks[part], -1, best[1])

    if cube:
        # More than one batch with a component to solve: start with one tile
        # and double, so that few masks are solved with no incumbents, and
        # test the rest.  Other cubes solve every mask; a diagonal costs no
        # more to solve than to test.
        test = bool(operator.blocks) and (1 << k) > step
        for part in _batches(1 << k, step, min(step, _TILE) if test else step):
            offer(np.arange(part.start, min(part.stop, 1 << k), dtype=np.int64), test)
        return best

    order = np.argsort(-operator.norms, kind="stable")
    position = np.left_shift(1, order)  # the bit fixed at each depth
    # For each side the parts below (lambda_min) or above (lambda_max) each
    # delta, diagonal first, then their sums over the blocks from each depth
    # on.  Every node keeps a free block, so no node has depth k.
    eigen = [np.linalg.eigh(stack) for stack in operator.block_deltas]
    suffixes = []
    for clip in (np.minimum, np.maximum):
        parts = [clip(operator.diag_deltas, 0.0)]
        parts += [(v * clip(w, 0.0)[:, np.newaxis]) @ v.conj().transpose(0, 2, 1) for w, v in eigen]
        suffixes.append([np.cumsum(part[order][::-1], axis=0)[::-1] for part in parts])

    def bounds(masks, depths, side):
        """Each node's envelope bound on ``lambda_min`` (side 0) or ``-lambda_max`` (side 1)."""
        out = np.empty(len(masks))
        for part in _batches(len(masks), step):
            diag, stacks = operator.pieces(_mask_bits(masks[part], k))
            for piece, suffix in zip([diag, *stacks], suffixes[side]):
                piece += suffix[depths[part]]
            lo, hi = _solve(diag, stacks)
            out[part] = -hi if side else lo
        return out

    # Nodes stop at _LEAF_FREE free blocks, so every leaf sits at one depth;
    # its completions set every subset of its free bits
    leaf_depth = max(0, k - _LEAF_FREE)
    free = k - leaf_depth
    subsets = ((np.arange(1 << free)[:, np.newaxis] >> np.arange(free)) & 1) @ position[leaf_depth:]
    root = np.zeros(1, dtype=np.int64)
    offer(root)
    # the open nodes: the bound of each side, +inf once the side is closed,
    # and the depth and mask of each
    bound, depth, mask = np.array([bounds(root, root, 0), bounds(root, root, 1)]), root, root
    while True:
        bound[bound > np.array([[best[0][0]], [best[1][0]]]) + margin] = np.inf
        live = (bound < np.inf).any(axis=0)
        bound, depth, mask = bound[:, live], depth[live], mask[live]
        if not len(depth):
            break
        pick = np.zeros(len(depth), dtype=bool)
        for side in bound:
            first = np.argpartition(side, min(_ROUND, len(side)) - 1)[:_ROUND]
            pick[first[side[first] < np.inf]] = True
        level, fixed, sides = depth[pick], mask[pick], bound[:, pick] < np.inf
        bound, depth, mask = bound[:, ~pick], depth[~pick], mask[~pick]
        leaf = level == leaf_depth
        # An inner node's children fix the next bit clear, with the node's own
        # mask, and set, with a new mask; each side is open in the children
        # where it is open in the node.
        inner = ~leaf
        taken = fixed[inner] | position[level[inner]]
        offer(taken)
        masks = np.concatenate([fixed[inner], taken])
        depths = np.concatenate([level[inner], level[inner]]) + 1
        child = np.full((2, len(masks)), np.inf)
        for side, opened in enumerate(np.tile(sides[:, inner], 2)):
            child[side, opened] = bounds(masks[opened], depths[opened], side)
        bound = np.concatenate([bound, child], axis=1)
        depth = np.concatenate([depth, depths])
        mask = np.concatenate([mask, masks])
        completions = (fixed[leaf, np.newaxis] | subsets).ravel()
        offer(completions, True, np.repeat(sides[:, leaf], len(subsets), axis=1))
    return best


def weaving_scan(base: np.ndarray, deltas: np.ndarray):
    """Extreme eigenvalues over all ``2**n`` masks, with their witness masks.

    Returns ``(lower, argmin_mask, upper, argmax_mask)``.

    One :func:`_subcube_search` over the masks of the non-null blocks gives
    both extremes.  The whole cube is one leaf when every coordinate
    component is 1 x 1, when the masks fit in one batch of about
    ``_BATCH_FLOATS`` stacked entries, or when there are fewer than
    ``_TREE_BLOCKS`` non-null blocks plus one for every 4 coordinates by
    which the largest component exceeds 8.  A mask is left unsolved only
    when a test clears its incumbent by the rounding :func:`_margin`, so it
    can neither be nor tie a witness, and each solved mask's values are
    those of a full solve: the result is that of solving every mask.
    """
    n = deltas.shape[0]
    _check_blocks(n)
    live = np.flatnonzero([delta.any() for delta in deltas])
    operator = _SplitOperator(base, deltas[live])
    k = len(live)
    wide = max([0] + [len(block) - 8 for block, _ in operator.blocks]) // 4
    cube = not operator.blocks or 1 << k <= operator.step or k < _TREE_BLOCKS + wide
    low, high = _subcube_search(operator, cube)
    null_bits = ((1 << n) - 1) ^ _spread((1 << k) - 1, live)
    return low[0], _spread(low[1], live), -high[0], _spread(high[1], live) | null_bits


def mask_spectra(operator: _SplitOperator, n_blocks: int, masks, floor=None, ceiling=None):
    """Extreme eigenvalues of ``operator`` for each given mask of ``n_blocks`` bits.

    Returns ``(lo, hi)``.  Masks run through :meth:`_SplitOperator.extremes`
    in batches of at most ``_BATCH_FLOATS`` stacked entries, and each mask's
    values are those of solving it alone, bitwise those :func:`weaving_scan`
    reads for it.  With ``floor`` and ``ceiling``, one value of each per
    mask, a mask whose operator lies strictly between its own floor and
    ceiling by the Cholesky test of :func:`_inside`, component by component,
    is not solved; it reads ``+inf`` and ``-inf``.
    """
    masks = np.asarray(masks, dtype=np.int64)
    lo = np.empty(len(masks))
    hi = np.empty(len(masks))
    for part in _batches(len(masks), operator.step):
        bounds = () if floor is None else (floor[part], ceiling[part])
        lo[part], hi[part] = operator.extremes(_mask_bits(masks[part], n_blocks), *bounds)
    return lo, hi


def neighbour_quotients(operator: _SplitOperator, masks, lowest, shift):
    """Rayleigh quotients of the one-bit neighbours of each mask, piece by piece of ``operator``.

    Entry ``[r, i]`` is ``u* (S +- delta_i) u`` at a unit vector ``u`` in one
    piece of mask ``r``'s operator ``S``, with ``+`` when bit ``i`` is clear:
    the least over the pieces where ``lowest`` holds, else the greatest.  Up
    to the rounding that :func:`_margin` bounds, any unit ``u`` puts it
    between the extreme eigenvalues of that neighbour's operator.  A
    coordinate of the diagonal part gives the neighbour's own diagonal entry,
    with no solve.  On a component of order ``c``, ``u`` is one step of
    shifted inverse iteration (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 4): the solution ``x`` of ``(S_c - shift I) x = 1``, normalised.  The
    caller puts ``shift`` just below the smallest eigenvalue of ``S`` where
    ``lowest`` holds and just above the largest elsewhere, so ``x`` leans
    towards its eigenvector on the component that holds it.  A row whose
    ``u`` comes out non-finite, zero, or with a computed squared norm not
    within ``(c + 2) eps`` of 1 (from an exactly singular ``S_c - shift I``,
    say) takes ``eigh``'s eigenvector of ``S_c`` instead.  An eigenvector of
    ``S`` whose eigenvalue no other piece shares lies in one piece, so the
    entry is at least as tight as its quotient.  An entry past float64
    bounds nothing and reads ``+inf`` where ``lowest`` holds, else ``-inf``.
    Masks run in batches of ``operator.step``.
    """
    n = len(operator.diag_deltas)
    out = np.empty((len(masks), n))
    for part in _batches(len(masks), operator.step):
        bits = _mask_bits(masks[part], n)
        sign = 1 - 2 * bits
        low = lowest[part, np.newaxis]
        diag, stacks = operator.pieces(bits)
        best = None
        if diag.shape[1]:
            # [r, i, j]: diagonal entry j of neighbour i of mask r
            entries = diag[:, np.newaxis, :] + sign[:, :, np.newaxis] * operator.diag_deltas
            best = np.where(low, entries.min(axis=2), entries.max(axis=2))
        for stack, (_, flat) in zip(stacks, operator.blocks):
            c = stack.shape[-1]
            shifted = stack.copy()
            shifted.reshape(len(stack), c * c)[:, :: c + 1] -= shift[part, np.newaxis]
            # the LAPACK gufunc behind np.linalg.solve, which returns NaN for a
            # singular matrix where np.linalg.solve raises for the whole stack
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                x = _umath_linalg.solve1(shifted, np.ones(c, dtype=stack.dtype))
                u = x / np.sqrt(np.square(_flat(x)).sum(axis=1))[:, np.newaxis]
                norm = np.square(_flat(u)).sum(axis=1)
                fallback = ~(np.abs(norm - 1) <= (c + 2) * np.finfo(np.float64).eps)
            if fallback.any():
                vectors = np.linalg.eigh(stack[fallback])[1]
                u[fallback] = np.where(low[fallback], vectors[:, :, 0], vectors[:, :, -1])
            # u* X u is the real dot product of u u* with X, entry by entry
            outer = _flat(u[:, :, np.newaxis] * u.conj()[:, np.newaxis, :])
            with np.errstate(over="ignore", invalid="ignore"):
                q = (outer * _flat(stack)).sum(axis=1)[:, np.newaxis] + sign * (outer @ flat.T)
            best = q if best is None else np.where(low, np.minimum(best, q), np.maximum(best, q))
        # a quotient past float64 bounds nothing: +inf where lowest holds, else -inf
        out[part] = np.where(np.isfinite(best), best, np.where(low, np.inf, -np.inf))
    return out
