"""The subset-enumeration kernel: a two-sided branch-and-bound over subcubes of masks.

A weaving of two block families is encoded by a bitmask: bit ``i`` set means
block position ``i`` (0-based) is drawn from the first family.  Given

    base   = sum of the second family's d x d Gram contributions,
    deltas = per-block difference of Gram contributions (first minus second),

the mixed frame operator for mask ``s`` is ``base + sum(deltas[i] for i in s)``
and the kernel reports extreme eigenvalues across masks.

This module is the only one that builds, batches or reads that operator,
and the only one that reads the row counts of a pair for a shortcut.  Each
entry takes ``base`` and ``deltas``: :func:`weaving_scan` returns the
extremes over all masks, :func:`descent_search` those of the sampled search
and :func:`one_bit_spectra` those of the operators with one bit set, as
arrays; :func:`basis_search` yields the masks the per-weaving classifiers
must test.  The scan and the sampled search also take the two families'
per-block row counts, ``rows``, and the basis search takes them with the
classifier's ``tol``.

Every spectrum goes through one representation, :class:`_SplitOperator`.
It drops every null block, whose delta is exactly zero: such a block gives
the same operator with its bit set or clear.  The operator keeps the deltas
of the other, live blocks and reads only their columns of each row of ``n``
mask bits.  Its coordinates split into the connected components of the
nonzero pattern of ``base`` and every delta, so each operator is block
diagonal after a permutation and its extreme eigenvalues are the extremes
over components.  A 1 x 1 component is
its real diagonal entry and needs no eigensolve.  Each batch of masks
becomes one stack per component through a real matmul of the live bits with
that component's flattened deltas (:func:`_stack`), and one stacked
``eigvalsh`` per component gives its extreme eigenvalues.  Each operator
fixes its batch size once, ``step`` masks whose stacks hold at most
``_BATCH_FLOATS`` entries, and every kernel entry reads it.  The matmul runs
in tiles of a fixed number of rows, so a mask's operator, and with it its
eigenvalues, is bitwise the same whatever batch it comes in.  Every entry
builds its operator from all ``n`` deltas, so the scan, the sampled search,
the basis search and :func:`one_bit_spectra` read the same values for the
same mask.  :func:`weaving_scan` enumerates only the masks of the live
blocks, bit ``j`` for live block ``j``, and places its two witnesses on all
``n`` bits (:meth:`_SplitOperator.full_mask`).

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
- when the row counts give a weaving of fewer rows than the domain
  dimension, whose operator is singular, the lower extreme is 0
  (:func:`_singular`): the lower side is then closed from the start, in
  every node, so no mask takes a ``lambda_min`` test and no node a lower
  envelope, and the sampled search runs its ascents only;
- the search opens with every node of one level, in one batch: the level
  of ``4 * _ROUND`` nodes, 64, or the leaves' level if that is higher.  A
  search grown from the root spends its first rounds reaching that level
  and prunes next to nothing on the way.  The opening's own masks are those
  it would have solved above the level, and its subcubes partition the
  cube, so no bound or certificate changes;
- each round expands the ``_ROUND`` open nodes of least bound on each side;
- a node with at most ``_LEAF_FREE`` free blocks is a leaf subcube.  A batched
  Cholesky factors ``S - (lower + m) I`` and ``(upper - m) I - S`` of each
  completion ``S``, for the sides open at the leaf, against the incumbents
  ``lower``/``upper``; where both succeed, every eigenvalue ``eigvalsh``
  could return for ``S`` lies strictly between them, so the mask can neither
  be nor tie a witness and gets no eigensolve.

The whole cube is one leaf when every component is 1 x 1, or when there are
fewer than ``_TREE_BLOCKS`` non-null blocks, plus one for every 3
coordinates by which the largest component exceeds 4; a search on one side
alone has a crossover of its own (:func:`weaving_scan`).  Enough blocks take
the subcubes even when their masks fit in one batch.  The leaf's masks run
in ascending batches.  When some component is not 1 x 1 and the masks fill
more than one batch, the first batch is one tile, each next one doubles,
and the masks after the first batch take the Cholesky test; a diagonal
costs no more to solve than to test, and one batch has no incumbents to
test against.

The sampled search (:func:`descent_search`) looks up one-bit neighbours
through :func:`mask_spectra`.  The search gives each neighbour a
floor and a ceiling: it must be solved if its smallest eigenvalue could reach
the floor or its largest the ceiling.  Floors come from the descents'
values, tightened by the Rayleigh quotients of :func:`neighbour_quotients`.
A side that the Weyl bound from the current mask already clears gets no
test, and a neighbour with both sides cleared is not sent to the kernel;
otherwise :func:`mask_spectra` runs the Cholesky test of :func:`_inside` on
each component of the mask's operator and solves only the masks that fail
it.  Its quotients and Weyl steps are taken piece by piece too, so no step
of the search forms or solves a matrix larger than a component.

The basis search (:func:`basis_search`) answers "does every mask pass" for
the per-weaving classifiers.  It settles a subcube or a mask by its row
counts and by thresholds on its values that :func:`_margin` proves, and
yields every other mask.  Its subcubes fix bits from the highest block
down, with the envelopes of the subcube search (:func:`_envelopes`), so a
settled subcube is skipped and the masks of the others are met in
ascending order, as a walk over every mask would meet them.

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
MAX_BLOCKS = 62  # masks are int64
# float64 entries in the stacks of any one batch of masks (128 KiB), so that
# a batch's memory depends on the operator size and not on the number of masks
_BATCH_FLOATS = 1 << 14
# Non-null blocks from which the search splits the cube into subcubes, plus
# one for every 3 coordinates by which the largest component exceeds 4.  A
# node pays an eigensolve for its envelope, a mask of the cube as one leaf a
# stack row and a Cholesky test.  On random dense pairs the subcubes were the
# faster from about 10 blocks at order 4 to 6, 11 at 8, 12 at 12, 14 at 16
# and 16 at 20.  Searching the upper side alone, from about 12 blocks at
# order 2, 10 at 3, 9 at 4 to 8, and 11 at 12 to 16.
_TREE_BLOCKS = 10
# open nodes one search round expands on each side (the basis search tests as
# many per round), and the free blocks of a leaf
_ROUND = 16
_LEAF_FREE = 4
# The descents of descent_search advance in groups of _ROUND_MASKS // n, so
# one round looks up at most this many one-bit neighbours, whatever the
# number of seeds.
_ROUND_MASKS = 1 << 12


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


def check_blocks(n: int) -> None:
    """Refuse ``n`` blocks when their masks do not fit in int64."""
    if n > MAX_BLOCKS:
        raise TooManyBlocks(f"{n} blocks: masks beyond {MAX_BLOCKS} blocks do not fit in int64")


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
    """``base + sum_i bits[:, i] deltas[i]`` evaluated component by component.

    It keeps the ``live`` blocks, those whose delta is not exactly zero (a
    null block gives the same operator either way): its pieces and norms
    hold their deltas alone, and it reads only their columns of each row of
    ``n`` bits, so every entry forms a mask's operator from the same
    columns.
    """

    def __init__(self, base: np.ndarray, deltas: np.ndarray):
        self.n = len(deltas)
        self.live = np.flatnonzero(deltas.any(axis=(1, 2)))
        deltas = deltas[self.live]
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

    def widen(self, values: np.ndarray, fill=0) -> np.ndarray:
        """``values`` over the live blocks, in the last axis, as values over all ``n``, ``fill`` at the null ones."""
        out = np.full((*values.shape[:-1], self.n), fill, dtype=values.dtype)
        out[..., self.live] = values
        return out

    def full_mask(self, mask: int, fill: int) -> int:
        """The ``n``-bit mask with bit ``j`` of ``mask`` at block ``live[j]`` and ``fill`` at the null ones."""
        bits = self.widen((mask >> np.arange(len(self.live))) & 1, fill)
        return int(bits @ np.left_shift(1, np.arange(self.n)))

    def pieces(self, bits: np.ndarray):
        """The diagonal entries and the component stacks of the operator of each row of bits.

        A row holds the bits of all ``n`` blocks, or of the live blocks alone.
        """
        if bits.shape[1] != len(self.live):
            bits = bits.take(self.live, axis=1)  # C-ordered, as the tiles of _stack need
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
        floor and ceiling (:func:`_proved`) is not solved; it reads ``+inf``
        and ``-inf``.
        """
        diag, stacks = self.pieces(bits)
        if floor is None:
            return _solve(diag, stacks)
        solve = ~_proved(diag, stacks, floor, ceiling)
        if solve.all():
            return _solve(diag, stacks)
        lo = np.full(len(bits), np.inf)
        hi = np.full(len(bits), -np.inf)
        rows = np.flatnonzero(solve)
        if len(rows):
            lo[rows], hi[rows] = _solve(diag[rows], [stack[rows] for stack in stacks])
        return lo, hi

    def residuals(self, bits: np.ndarray) -> np.ndarray:
        """``|S - I|_F`` for the operator ``S`` of each row of bits, with no eigensolve.

        It is the root of the sum of ``(s_jj - 1)^2`` over the diagonal part
        and of ``|S_c - I|_F^2`` over the components, since the entries off
        the components are exact zeros.  A residual past float64 is ``inf``.
        """
        diag, stacks = self.pieces(bits)
        with np.errstate(over="ignore"):
            squares = np.square(diag - 1.0).sum(axis=1)
            for stack in stacks:
                stack -= np.eye(stack.shape[-1])
                squares += np.square(_flat(stack)).sum(axis=1)
        return np.sqrt(squares)


def _solve(diag: np.ndarray, stacks: list):
    """Extreme eigenvalues per row from its diagonal part and its component stacks."""
    lo = diag.min(axis=1, initial=np.inf)
    hi = diag.max(axis=1, initial=-np.inf)
    for stack in stacks:
        w = np.linalg.eigvalsh(stack)
        np.minimum(lo, w[:, 0], out=lo)
        np.maximum(hi, w[:, -1], out=hi)
    return lo, hi


def _proved(diag: np.ndarray, stacks: list, floor, ceiling) -> np.ndarray:
    """Whether each row's operator has every eigenvalue strictly between ``floor`` and ``ceiling``.

    The diagonal part is read directly and each component goes through
    :func:`_inside`, for the rows no earlier piece has disproved.  ``floor``
    and ``ceiling`` are scalars or hold one value per row.  A floor of
    ``-inf`` or a ceiling of ``+inf`` needs no test, and a NaN one proves
    nothing.
    """
    proved = np.ones(len(diag), dtype=bool)
    if diag.shape[1]:
        proved = (diag.min(axis=1) > floor) & (diag.max(axis=1) < ceiling)
    for stack in stacks:
        if proved.all():  # every row: test the stack itself, not a copy
            proved = _inside(stack, floor, ceiling)
        elif proved.any():
            rows = np.flatnonzero(proved)
            shifts = (floor[rows], ceiling[rows]) if np.ndim(floor) else (floor, ceiling)
            proved[rows] = _inside(stack[rows], *shifts)
    return proved


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

    Weyl bound of a one-bit neighbour (:func:`descent_search`:
    ``S_x = S_c +- delta_i`` for a solved mask ``c``, bounded by
    ``lo(c) + lambda_min(+-delta_i)`` with ``lo(c)`` from ``eigvalsh`` and
    the delta's term from its diagonal part, exact, and ``eigvalsh`` of each
    of its components; the exact ``S_x`` has
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

    These add up to at most ``(4 d^2 + 5 d + 2 k + 10) u N``.

    Per-weaving classifier (:func:`basis_search` settles a mask whose Riesz
    test ``lambda_min - tol lambda_max`` or ONB test ``tol - |S - I|_F``
    clears ``(1 + |tol|) m``, and yields every other one, which ``weaving``
    hands to the per-family classifier on its weaving; a settled mask must
    get the same verdict from that classifier).
    Only a weaving of ``d`` rows is settled, so each of its blocks has at
    most ``d`` rows, and its exact operator ``S = V* V`` has
    ``tr S <= sqrt(d) |S|_F <= sqrt(d) N``:

    - ``base`` and the deltas are rounded from the blocks' Grams.  Each Gram
      of the weaving errs by ``d u tr G``, ``d^(3/2) u N`` together; the
      Grams of the blocks not in it cancel, up to the sum that forms
      ``base``, ``k u tr(base) <= k sqrt(d) u N``, and the rounding of each
      delta, ``u N`` together;
    - the kernel's eigenvalues add ``(k + d + 1) u N``, as for a mask above;
    - per family, ``S = V* V`` takes ``d``-term sums,
      ``d u tr S <= d^(3/2) u N``, its Hermitian part one more rounding and
      its values-only solve ``d u N``: ``(d^(3/2) + d + 2) u N``.  By
      Weyl's inequality each of these moves every eigenvalue by at most its
      Frobenius size, and by the Hoffman-Wielandt theorem the vector
      ``w - 1``, and with it ``|S - I|_F``;
    - a residual is settled only below ``tol < 1/3``, where
      ``N >= |S|_F >= tr S / sqrt(d) >= 2/3``; the kernel's is the root of
      a sum of at most ``d^2`` squares, which moves it by
      ``d^2 u / 6 <= d^2 u N / 4``, and the per-family one, of ``d``
      squares, by ``d u N / 4``.

    These add up to at most
    ``(2 d^(3/2) + d^2 / 4 + (sqrt(d) + 1) k + 3 d + 4) u N``, and a test
    moves by ``1 + |tol|`` times the error of its values.

    Subcube certificate of the basis search (:func:`basis_search` settles a
    subcube whose completions all have ``d`` rows, when Cholesky proves its
    lower envelope ``L`` above ``tol lambda_max(U) + 2 (1 + |tol|) m``, for
    the upper envelope ``U`` of the whole cube, or when
    ``|P - I|_F + sum_free |delta_i|_F`` is at most ``tol - (1 + |tol|) m``;
    every completion's exact operator lies between the exact ``L`` and
    ``U``, and its exact residual is at most the exact sum):

    - each envelope's value errs as the envelope bound above, without the
      mask's solve: ``(d^2 + 5 d + 2 k + 2) u N``, and there are two;
    - for the residual, ``|P - I|_F`` errs as a mask's does, which the
      per-weaving sum counts; each ``|delta_i|_F``, the root of at most
      ``2 d^2`` scaled squares, by ``(d^2 + 1) u |delta_i|_F``, and the sums
      of at most ``k + 1`` terms by ``(k + 1) u N``;
    - the per-weaving classifier's values of a completion err from its
      exact ones by less than the per-weaving sum.

    These add up to at most
    ``(9 d^2 / 4 + 2 d^(3/2) + 13 d + (sqrt(d) + 5) k + 8) u N``, and a test
    moves by ``1 + |tol|`` times that.  The Cholesky test of ``L`` against
    that floor errs by the Cholesky sum above on top, and so does the same
    test of ``S`` for a mask walked in a subcube that is not settled; each
    sum is below ``m``, so twice the margin covers both.

    The margin ``8 ((d + 2)^2 + k) u N`` is more than twice each of the five
    sums before the certificate (with ``k <= 62``, the most blocks a mask
    holds), and more than the Rayleigh sum plus any other, which covers
    complex arithmetic and the solvers' constant factors.  It also exceeds
    the certificate sum: ``8 d^2`` exceeds ``9 d^2 / 4 + 2 d^(3/2)`` by
    ``23 d^2 / 4 - 2 d^(3/2)``, which is more than ``(sqrt(d) - 3) k`` for
    every ``d`` when ``k <= 62``, and ``32 d + 32`` exceeds ``13 d + 8``.  So
    when a Cholesky test, an envelope bound or a Weyl bound clears
    ``incumbent + margin``, every value ``eigvalsh`` would return for the
    masks it covers is strictly beyond the incumbent.  When the incumbent is
    a Rayleigh bound, those values are also beyond the value ``eigvalsh``
    returns for the neighbour whose quotient it is, so that neighbour is
    never certified against it.  And a weaving or a subcube the basis search
    settles gets the same verdict from the per-family classifier.
    """
    size = (order + 2) ** 2 + len(ratios) - 1
    return float(np.ldexp(4 * size * np.finfo(np.float64).eps * ratios, exponents).sum())


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


def _envelopes(operator: _SplitOperator, order: np.ndarray):
    """The envelopes of subcubes whose live blocks ``order[:depth]`` are fixed and the others free.

    ``order`` ranks the operator's live blocks.  Returns ``envelope(masks,
    depths, side)``, which yields ``(part, diag, stacks)`` for each batch of
    nodes: the slice of the batch and the pieces (as
    :meth:`_SplitOperator.pieces`) of ``P + sum_free neg(delta_i)`` (side 0,
    below every completion's operator) or ``P + sum_free pos(delta_i)``
    (side 1, above it) for each node, given by the mask of its fixed bits,
    bit ``j`` for live block ``j`` (its free bits clear), and its depth,
    where ``P`` is the operator of the mask.  The negative and positive parts of each delta
    come from one ``eigh`` per component, the diagonal part clipped.
    """
    k = len(order)
    # For each side the parts below (lambda_min) or above (lambda_max) each
    # delta, diagonal first, then their sums over the blocks from each depth
    # on, and none at depth k.
    eigen = [np.linalg.eigh(stack) for stack in operator.block_deltas]
    suffixes = [[], []]
    for clip, suffix in zip((np.minimum, np.maximum), suffixes):
        parts = [clip(operator.diag_deltas, 0.0)]
        parts += [(v * clip(w, 0.0)[:, np.newaxis]) @ v.conj().transpose(0, 2, 1) for w, v in eigen]
        for part in parts:
            suffix.append(np.zeros((k + 1, *part.shape[1:]), dtype=part.dtype))
            np.cumsum(part[order][::-1], axis=0, out=suffix[-1][:k][::-1])

    def envelope(masks, depths, side):
        for part in _batches(len(masks), operator.step):
            diag, stacks = operator.pieces(_mask_bits(masks[part], k))
            for piece, suffix in zip([diag, *stacks], suffixes[side]):
                piece += suffix[depths[part]]
            yield part, diag, stacks

    return envelope


def _subcube_search(operator: _SplitOperator, cube: bool, closed: bool = False):
    """Both extremes over the masks of ``operator``'s live blocks, each with its mask.

    Returns ``(low, high)``, ``low = (lambda_min, argmin)`` and
    ``high = (-lambda_max, argmax)``, ties to the smallest and the largest
    mask, each with bit ``j`` for live block ``j``.  With ``cube`` the whole
    cube is one leaf; otherwise the search runs over subcubes.  Each batch
    holds at most ``operator.step`` masks.  With ``closed`` the side of
    ``lambda_min`` is closed from the start: its incumbent reads ``-inf``,
    so no mask takes a test on that side and no node an envelope, and
    ``low`` comes back as ``(-inf, 0)``.
    """
    k = len(operator.norms)
    step, margin = operator.step, operator.margin
    # the incumbents of lambda_min and of -lambda_max
    best = [(-np.inf if closed else np.inf, 0), (np.inf, 0)]

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
    envelope = _envelopes(operator, order)

    def bounds(masks, depths, side):
        """Each node's envelope bound on ``lambda_min`` (side 0) or ``-lambda_max`` (side 1)."""
        out = np.empty(len(masks))
        for part, diag, stacks in envelope(masks, depths, side):
            lo, hi = _solve(diag, stacks)
            out[part] = -hi if side else lo
        return out

    def span(bits):
        """The mask of every subset of the bits ``bits``, in binary counting order."""
        return ((np.arange(1 << len(bits))[:, np.newaxis] >> np.arange(len(bits))) & 1) @ bits

    # Nodes stop at _LEAF_FREE free blocks, so every leaf sits at one depth;
    # its completions set every subset of its free bits.  The search opens
    # with every node of one level, at most 4 * _ROUND of them, or with the
    # leaves if they lie higher.  A search grown from the root spends its
    # first rounds reaching that level and prunes next to nothing on the
    # way; the level's nodes partition the cube.
    leaf_depth = max(0, k - _LEAF_FREE)
    subsets = span(position[leaf_depth:])
    top = min(leaf_depth, (4 * _ROUND).bit_length() - 1)
    mask = span(position[:top])
    offer(mask)
    # the open nodes: the bound of each side, +inf once the side is closed,
    # and the depth and mask of each
    depth = np.full(len(mask), top)
    lower = np.full(len(mask), np.inf) if closed else bounds(mask, depth, 0)
    bound = np.array([lower, bounds(mask, depth, 1)])
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


def _singular(operator: _SplitOperator, rows, d: int):
    """``(0.0, mask)`` for the smallest mask whose weaving has fewer than ``d`` rows, else None.

    ``rows`` holds the per-block row counts of the first family and of the
    second, or is None, which gives None.  Such a weaving's operator ``V*V``
    has rank below ``d``, so its least eigenvalue is exactly 0, and no
    weaving's is less: the universal lower bound is 0.  A set bit takes
    block ``i``'s rows from the first family, a clear one from the second.
    A null block gives the same operator either way, of rank at most
    ``min(r1, r2)``: it counts that many rows and keeps its bit clear, so the
    mask is the smallest of those with its operator.  Bits are fixed from the
    highest down, each left clear when the blocks below it can still bring
    the count under ``d``.
    """
    if rows is None:
        return None
    rows1, rows2 = rows
    least = [min(r1, r2) for r1, r2 in zip(rows1, rows2)]
    if sum(least) >= d:  # the fewest rows a weaving can have
        return None
    null = operator.widen(np.zeros(len(operator.live), dtype=bool), True)
    below = np.cumsum([0] + least)  # below[i]: the fewest rows of the blocks below i
    mask = count = 0
    for i in reversed(range(len(least))):
        clear = least[i] if null[i] else rows2[i]
        if count + clear + below[i] < d:
            count += clear
        else:
            count += rows1[i]
            mask |= 1 << i
    return 0.0, mask


def weaving_scan(base: np.ndarray, deltas: np.ndarray, rows=None):
    """Extreme eigenvalues over all ``2**n`` masks, with their witness masks.

    Returns ``(lower, argmin_mask, upper, argmax_mask)``.  With ``rows``,
    the two families' per-block row counts, a pair with a weaving of fewer
    than ``d`` rows has its lower side certified by :func:`_singular`: the
    search runs on the upper side alone, and the lower side reads ``0.0`` at
    the smallest such mask.

    One :func:`_subcube_search` over the masks of the non-null blocks gives
    both extremes.  The whole cube is one leaf when every coordinate
    component is 1 x 1, or when there are fewer than ``_TREE_BLOCKS``
    non-null blocks plus one for every 3 coordinates by which the largest
    component, of order ``c``, exceeds 4, whether or not the masks fit in
    one batch.  A one-sided search prunes more and has a crossover of its
    own: from ``_TREE_BLOCKS - 1`` blocks, two more when ``c > 8``, and
    one more for each coordinate by which ``c`` falls short of 4.
    Otherwise the search opens with
    every subcube that fixes the ``log2(4 * _ROUND)`` blocks of largest
    norm, 64 subcubes, or with the leaves when there are at most ten
    blocks.  A mask is left unsolved only when a test clears its incumbent
    by the rounding :func:`_margin`, so it can neither be nor tie a
    witness, and each solved mask's values are those of a full solve: the
    result is that of solving every mask.
    """
    check_blocks(deltas.shape[0])
    operator = _SplitOperator(base, deltas)
    low = _singular(operator, rows, len(base))
    c = max([0] + [len(block) for block, _ in operator.blocks])
    if low is None:
        fewest = _TREE_BLOCKS + max(0, c - 4) // 3
    else:
        fewest = _TREE_BLOCKS - 1 + 2 * (c > 8) + max(0, 4 - c)
    cube = not operator.blocks or len(operator.live) < fewest
    least, high = _subcube_search(operator, cube, low is not None)
    if low is None:
        low = least[0], operator.full_mask(least[1], 0)
    return *low, -high[0], operator.full_mask(high[1], 1)


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
    n = operator.n
    out = np.empty((len(masks), n))
    for part in _batches(len(masks), operator.step):
        bits = _mask_bits(masks[part], n)
        sign = 1 - 2 * bits[:, operator.live]
        low = lowest[part, np.newaxis]
        diag, stacks = operator.pieces(bits)
        best = None
        if diag.shape[1]:
            # [r, j, i]: diagonal entry j of neighbour i of mask r
            entries = diag[:, :, np.newaxis] + operator.widen(sign[:, np.newaxis] * operator.diag_deltas.T)
            best = np.where(low, entries.min(axis=1), entries.max(axis=1))
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
                own = (outer * _flat(stack)).sum(axis=1)[:, np.newaxis]
                q = own + operator.widen(sign * (outer @ flat.T))
            best = q if best is None else np.where(low, np.minimum(best, q), np.maximum(best, q))
        # a quotient past float64 bounds nothing: +inf where lowest holds, else -inf
        out[part] = np.where(np.isfinite(best), best, np.where(low, np.inf, -np.inf))
    return out


def _sorted_unique(masks: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma on first use, about 1 MB of resident memory
    masks = np.sort(masks)
    keep = np.ones(len(masks), dtype=bool)
    keep[1:] = masks[1:] != masks[:-1]
    return masks[keep]


def _merge(old: np.ndarray, new: np.ndarray, kept: np.ndarray, place: np.ndarray) -> np.ndarray:
    """``old`` at the ``kept`` positions and ``new`` at ``place``, in one new array."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[kept] = old
    out[place] = new
    return out


def descent_search(base: np.ndarray, deltas: np.ndarray, seeds, rows=None):
    """Steepest one-bit descents on ``lambda_min`` and ascents on ``lambda_max`` from ``seeds``.

    Returns ``(lower, argmin_mask, upper, argmax_mask, examined)``: the
    extremes over the masks solved, ties to the smallest mask for the
    minimum and the largest for the maximum, and ``examined``, the number of
    distinct masks examined, each solved or certified: the seeds and every
    neighbour of every mask a descent visited.

    From each distinct seed mask a descent runs on the smallest eigenvalue
    and an ascent on the largest; a repeated seed repeats its descents
    exactly, so each seed runs once.  A step moves to the first of the ``n``
    one-bit neighbours with the best value, and only when that value
    strictly improves on the current one.  The neighbour across a null
    block has the current mask's live bits, so it reads the current values
    bitwise and is never a step.

    All descents advance in lockstep, up to ``_ROUND_MASKS // n`` at a time,
    and each round looks up every neighbour no descent has examined yet in
    one :func:`mask_spectra` call.  A neighbour's spectrum matters only if it
    could be a step or a witness:

    - a descent at value ``v`` looks at it, and its ``lo`` is at most ``v``
      and at most the least Rayleigh quotient ``u* (S +- delta_i) u`` of the
      neighbours, where ``u`` is a unit vector close to the eigenvector of
      ``lo(S)`` for the current operator ``S`` (the best neighbour's ``lo``
      is at most that quotient, so a neighbour above it is not the step);
      an ascent likewise on ``hi``.  ``u`` is a coordinate vector of the
      diagonal part, or comes from one linear solve on a component, a step
      of inverse iteration shifted by the rounding margin below the solved
      ``lo(S)`` (above ``hi(S)`` for an ascent), as
      :func:`neighbour_quotients` describes;
    - its ``lo`` or ``hi`` reaches the best value solved so far.

    Every other neighbour is certified and not solved: first by Weyl's
    inequality from the current mask, ``lo(S +- delta_i) >= lo(S) +
    lo(+-delta_i)`` and likewise for ``hi``, with the deltas' extremes
    taken piece by piece, then by the Cholesky test of :func:`mask_spectra`,
    which only the neighbours with a side left open reach.  Each test clears
    its threshold by the rounding margin of :func:`_margin`, which also
    covers the rounding of the quotients.  A certified mask keeps the floor
    and ceiling it was certified against, and is solved when a later look
    needs more.  The new masks of a round are merged into the sorted
    examined arrays in one pass.  A mask's spectrum does not depend on the
    batch it is computed in, so the masks examined, and the result, are
    those of running the descents one after another and solving every
    neighbour.

    With ``rows``, the two families' per-block row counts, a pair with a
    weaving of fewer than ``d`` rows has its lower side certified by
    :func:`_singular`, as in :func:`weaving_scan`: only the ascents run, no
    look needs a neighbour's ``lo``, and the lower side reads ``0.0`` at
    the smallest such mask.
    """
    n = deltas.shape[0]
    check_blocks(n)
    # built once per request: the split operator for every spectrum and
    # every Rayleigh quotient below, and its rounding margin
    operator = _SplitOperator(base, deltas)
    margin = operator.margin
    low = _singular(operator, rows, len(base))
    # Weyl steps: the extreme eigenvalues of +delta_i, which sets bit i, in
    # row 0 and of -delta_i, which clears it, in row 1, piece by piece
    w_lo, w_hi = _solve(operator.diag_deltas, operator.block_deltas)
    step_lo = operator.widen(np.stack([w_lo, -w_hi]))
    step_hi = operator.widen(np.stack([w_hi, -w_lo]))
    # Examined masks, ascending.  lo and hi hold the extreme eigenvalues of a
    # solved mask; a certified one has lo > floor and hi < ceiling for the
    # floor and ceiling it was certified against, and lo and hi hold those.
    seen = _sorted_unique(np.asarray(seeds, dtype=np.int64))
    lo, hi = mask_spectra(operator, n, seen)
    solved = np.ones(len(seen), dtype=bool)
    # the extremes solved so far; with the lower side closed no look needs a lo
    least = lo.min() if low is None else -np.inf
    most = hi.max()
    flips = np.int64(1) << np.arange(n, dtype=np.int64)
    # a descent, unless the lower side is closed, and an ascent from each
    # seed; ascents walk on -hi
    sides = [True, False] if low is None else [False]
    starts = np.repeat(seen, len(sides))
    descending = np.tile(sides, len(seen))
    group = max(1, _ROUND_MASKS // n)
    for g in range(0, len(starts), group):
        current = starts[g : g + group]
        down = descending[g : g + group]
        here = np.searchsorted(seen, current)  # where each current mask sits in seen
        while len(current):
            cur_lo, cur_hi = lo[here], hi[here]
            # A look needs a neighbour solved unless lo > need_lo and
            # hi < need_hi.  A descent steps to its best neighbour if that
            # beats its value.  The Rayleigh quotients at a unit vector near
            # the current mask's eigenvector, found by one inverse-iteration
            # step from just below its lo, bound each neighbour's lo from
            # above, so the least one bounds the best neighbour's, and a
            # neighbour above the value or that bound is not the step.  The
            # neighbour with the least quotient cannot be certified above it,
            # so it is solved, and no neighbour above the bound is a witness
            # either.  Ascents mirror this on hi, shifting from just above
            # it; a look from the other side needs the neighbour beyond the
            # extremes solved so far.
            shift = np.where(down, cur_lo - margin, cur_hi + margin)
            quotients = neighbour_quotients(operator, current, down, shift)
            need_lo = np.where(down, np.minimum(cur_lo, quotients.min(axis=1)), least)
            need_hi = np.where(down, most, np.maximum(cur_hi, quotients.max(axis=1)))
            neighbours = (current[:, np.newaxis] ^ flips).ravel()
            at = np.searchsorted(seen, neighbours)
            known = seen[np.minimum(at, len(seen) - 1)] == neighbours
            if not known.all():
                looks = np.flatnonzero(~known)
                looks = looks[np.argsort(neighbours[looks], kind="stable")]
                looked = neighbours[looks]
                heads = np.flatnonzero(np.concatenate([[True], looked[1:] != looked[:-1]]))
                new = looked[heads]
                row, bit = np.divmod(looks, n)
                floor, ceiling = need_lo[row], need_hi[row]
                # Weyl: lo(S +- delta_i) >= lo(S) + lo(+-delta_i), and likewise
                # hi; Cholesky tests each side this leaves open
                cleared = (current[row] >> bit) & 1
                with np.errstate(over="ignore"):  # a ceiling bound past float64 certifies nothing
                    weyl_lo = cur_lo[row] + step_lo[cleared, bit]
                    weyl_hi = cur_hi[row] + step_hi[cleared, bit]
                if len(heads) < len(looks):  # a new mask looked at from several rows
                    floor = np.maximum.reduceat(floor, heads)
                    ceiling = np.minimum.reduceat(ceiling, heads)
                    weyl_lo = np.maximum.reduceat(weyl_lo, heads)
                    weyl_hi = np.minimum.reduceat(weyl_hi, heads)
                test_lo = np.where(weyl_lo > floor + margin, -np.inf, floor + margin)
                test_hi = np.where(weyl_hi < ceiling - margin, np.inf, ceiling - margin)
                # only masks with a side left open get a stack row
                tested = np.flatnonzero((test_lo != -np.inf) | (test_hi != np.inf))
                new_lo = np.full(len(new), np.inf)
                new_hi = np.full(len(new), -np.inf)
                new_lo[tested], new_hi[tested] = mask_spectra(
                    operator, n, new[tested], test_lo[tested], test_hi[tested]
                )
                new_solved = new_lo != np.inf
                least, most = min(least, new_lo.min()), max(most, new_hi.max())
                # One merge: the new masks go to their places in the merged
                # arrays, and the examined ones fill the rest in order.
                place = at[looks[heads]] + np.arange(len(new))
                kept = np.ones(len(seen) + len(new), dtype=bool)
                kept[place] = False
                seen = _merge(seen, new, kept, place)
                lo = _merge(lo, np.where(new_solved, new_lo, floor), kept, place)
                hi = _merge(hi, np.where(new_solved, new_hi, ceiling), kept, place)
                solved = _merge(solved, new_solved, kept, place)
                # a neighbour moves up by the new masks below it
                at += np.searchsorted(new, neighbours)
            at = at.reshape(len(current), n)
            # a certified neighbour whose certificate does not cover this look
            # is solved now
            short = (lo[at] < need_lo[:, np.newaxis]) | (hi[at] > need_hi[:, np.newaxis])
            stale = short & ~solved[at]
            if stale.any():
                redo = _sorted_unique(at[stale])
                lo[redo], hi[redo] = mask_spectra(operator, n, seen[redo])
                solved[redo] = True
            scores = np.where(down[:, np.newaxis], lo[at], -hi[at])
            scores[~solved[at]] = np.inf  # a certified neighbour is not the step
            best = scores.argmin(axis=1)  # first occurrence of the best value
            moves = scores.min(axis=1) < np.where(down, cur_lo, -cur_hi)
            current = (current ^ flips[best])[moves]
            down = down[moves]
            here = at[np.arange(len(at)), best][moves]

    if low is None:
        low = _least(lo[solved], seen[solved], 1, (np.inf, 0))
    upper, amax = _least(-hi[solved], seen[solved], -1, (np.inf, 0))
    return *low, -upper, amax, len(seen)


def basis_search(base: np.ndarray, deltas: np.ndarray, rows, tol: float, onb: bool = False):
    """The masks of ``len(deltas)`` bits whose weavings the per-weaving classifier must test, ascending.

    ``rows`` holds the per-block row counts of the first family and of the
    second.  The search settles every other mask, by the row counts and by
    its values against ``tol``, as :func:`_margin` proves sound, and yields
    each remaining one as an int.  A weaving of ``d`` rows has a square
    synthesis matrix ``V`` with ``V* V = S``, its operator.

    - Riesz: a weaving of ``d`` rows with ``lambda_min(S) > tol
      lambda_max(S)``.  The search reads ``level = tol lambda_max(U) +
      2 (1 + |tol|) m`` once, for the upper envelope ``U`` of the whole cube,
      which lies above every mask's operator (:func:`_envelopes`), and the
      margin ``m``.  A node whose lower envelope, or a mask whose operator,
      Cholesky proves to have every eigenvalue above ``level``
      (:func:`_proved`) is settled; so is a mask whose ``lambda_min - tol
      lambda_max`` clears ``(1 + |tol|) m``.
    - ONB (``onb``): a weaving of ``d`` rows with no empty block and
      ``R = |S - I|_F`` (:meth:`_SplitOperator.residuals`) at most
      ``tol - (1 + |tol|) m``, for ``tol < 1/3``.  The per-weaving test
      allows ``tol max(1, lambda_max) >= tol``, and its zero-row test
      passes too: each row norm squared is within ``R`` of 1, so above
      ``2/3``, while ``lambda_max <= 1 + R`` keeps the allowance below
      ``4/9``.  A node bounds every completion's residual by that of its
      mask plus the norms of its free deltas.

    A node is a subcube whose bits are fixed from the highest block down and
    whose low ``free`` bits are free, given by the mask of its fixed bits.
    Every completion of a node has the row counts of its own mask when each
    free block has as many rows in both families; only such a node settles.
    Each round takes the first ``_ROUND`` nodes not yet tested, in ascending
    order, and splits the unsettled ones with more than ``_LEAF_FREE`` free
    bits, the child with the next bit clear first; an unsettled leaf is
    walked once no untested node lies before it.  For ONB, a node whose own
    mask alone is unsettled cannot be settled, nor can any node down to the
    leaf that holds that mask: it splits at once into that leaf, to be
    walked, and the child with the next bit set of every node on the way.  A
    walk's first batch is one leaf and each next one doubles, up to
    ``_BATCH_FLOATS`` stacked entries, so a caller that stops at the first
    failure computes few masks past it.
    """
    n, d = len(deltas), len(base)
    operator = _SplitOperator(base, deltas)
    step, margin = operator.step, operator.margin
    live = operator.live
    allowance = 1.0 + abs(tol)
    rows1, rows2 = np.asarray(rows, dtype=np.float64)
    same = np.cumprod([True] + list(rows1 == rows2)).astype(bool)  # same[free]: every free block
    if onb:
        cut = tol - allowance * margin if tol < 1.0 / 3.0 else -np.inf
    else:
        envelope = _envelopes(operator, np.arange(len(live))[::-1])
        root = np.zeros(1, dtype=np.int64)
        ((_, diag, stacks),) = envelope(root, root, 1)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and proves nothing
            level = tol * _solve(diag, stacks)[1][0] + 2.0 * allowance * margin

    def settled(bits, free, values):
        """Whether every weaving of each node, its low ``free`` bits free, passes, from its values."""
        chosen = rows2 + bits * (rows1 - rows2)  # each block's rows in the node's own mask
        square = (chosen.sum(axis=1) == d) & same[free]
        if onb:
            return square & (chosen != 0).all(axis=1) & (values <= cut)
        lo, hi = values  # lo is +inf where Cholesky proved every eigenvalue above the level
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and settles nothing
            return square & ((lo == np.inf) | (lo - tol * hi > allowance * margin))

    # sum of |delta_i|_F, i < free
    spread = np.concatenate([[0.0], np.cumsum(operator.widen(operator.norms))])
    leaf_depth = max(0, n - _LEAF_FREE)
    leaf = np.arange(1 << (n - leaf_depth))
    # The subcubes left, ascending, as the columns of ``nodes``: mask, depth
    # and whether tested, which only an unsettled leaf is.
    nodes = np.zeros((3, 1), dtype=np.int64)
    while nodes.shape[1]:
        run = np.argmin(nodes[2]) if not nodes[2].all() else nodes.shape[1]
        if run:
            walk = (nodes[0, :run, np.newaxis] | leaf).ravel()
            for part in _batches(len(walk), step, min(step, len(leaf))):
                bits = _mask_bits(walk[part], n)
                values = operator.residuals(bits) if onb else operator.extremes(bits, level, np.inf)
                yield from walk[part][~settled(bits, 0, values)].tolist()
            nodes = nodes[:, run:]
            continue
        pick = np.flatnonzero(nodes[2] == 0)[:_ROUND]
        masks, depths, _ = nodes[:, pick]
        bits = _mask_bits(masks, n)
        if onb:
            own = np.concatenate([operator.residuals(bits[part]) for part in _batches(len(bits), step)])
            values = own + spread[n - depths]
        else:
            # each node's mask over the live blocks, and how many of them it
            # fixes: those at or above its lowest fixed bit
            compact = ((masks[:, np.newaxis] >> live) & 1) @ np.left_shift(1, np.arange(len(live)))
            fixed = len(live) - np.searchsorted(live, n - depths)
            proved = [_proved(diag, stacks, level, np.inf) for _, diag, stacks in envelope(compact, fixed, 0)]
            lo = np.where(np.concatenate(proved), np.inf, -np.inf)
            values = lo, -lo
        opened = ~settled(bits, n - depths, values)
        nodes = np.delete(nodes, pick, axis=1)
        if not opened.any():
            continue
        masks, depths, tested = masks[opened], depths[opened], depths[opened] == leaf_depth
        # An inner node gives way to its children, with the next bit clear and
        # set.  The child with the bit clear keeps the node's own mask, so
        # where that mask's residual alone is unsettled, no node down to its
        # leaf is settled: the node gives way at once to that leaf, to be
        # walked, and to the child with the bit set of each node on the way.
        if onb:
            tested |= ~settled(bits[opened], 0, own[opened])
        to = np.where(tested, leaf_depth, depths + 1)
        steps = to - depths
        start = np.repeat(np.cumsum(steps) - steps, steps)
        at = np.repeat(depths, steps) + np.arange(len(start)) - start
        taken = np.repeat(masks, steps) | (1 << (n - 1 - at))
        children = [[masks, to, tested], [taken, at + 1, np.zeros_like(at)]]
        nodes = np.concatenate([nodes, *children], axis=1)
        nodes = nodes[:, np.argsort(nodes[0])]


def one_bit_spectra(base: np.ndarray, deltas: np.ndarray):
    """Extreme eigenvalues of ``base + deltas[i]`` for each ``i``, as ``(lo, hi)``.

    Each operator is that of row ``i`` of the identity, taken as bit rows
    a batch at a time rather than as int64 masks, so any number of deltas
    is allowed.
    """
    operator = _SplitOperator(base, deltas)
    n = len(deltas)
    lo, hi = np.empty(n), np.empty(n)
    for part in _batches(n, operator.step):
        rows = np.eye(min(part.stop, n) - part.start, n, part.start)
        lo[part], hi[part] = operator.extremes(rows)
    return lo, hi
