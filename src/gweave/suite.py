"""Built-in example constructions and a one-shot verification battery.

Every constructor realizes an infinite family on a finite truncation chosen
so that each declared constant is attained exactly at desk scale.  The
truncation rule is always the same: basis vectors beyond the domain dimension
are dropped from the defining formulas, and zero blocks stand in for
operators whose image collapses entirely.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from typing import Optional

import numpy as np

from . import linalg
from ._kernels import MAX_BLOCKS
from .errors import GWeaveError, ShapeMismatch, TooManyBlocks
from .gframe import (
    DEFAULT_TOL,
    GFrame,
    _check_tol,
    _check_type,
    _finite_real,
    classify,
    compose_right,
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
)
from .induced import (
    check_operator_identity,
    check_weaving_transfer,
    induced_vectors,
    onb_families,
)
from .weaving import (
    WeavingSelection,
    _check_budget,
    _check_seed,
    check_additive_upper_bound,
    check_dual_weaving,
    check_parseval_transform_weaving,
    check_strict_sum_gap,
    check_unitary_weaving_invariance,
    effective_cap,
    universal_bounds_exhaustive,
    universal_bounds_search,
    weave,
)


@dataclass(frozen=True)
class ExampleInstance:
    name: str
    parameters: dict
    first: GFrame
    second: Optional[GFrame]
    expected: dict
    derived: tuple = ()  # the expected keys derived from the construction, not declared

    @property
    def provenance(self) -> dict:
        """Each expected key -> ``"derived"`` or ``"declared"``."""
        return {key: "derived" if key in self.derived else "declared" for key in self.expected}


def _row(d: int, index: int, value: float = 1.0) -> np.ndarray:
    """Row vector with one entry set; index is 1-based, 0 means a zero row."""
    r = np.zeros(d)
    if index > 0:
        r[index - 1] = value
    return r


def build_projection_family(d: int, rows_per_block: int = 3) -> GFrame:
    """Coordinate projections: block m picks out the m-th coordinate.

    Block m maps into a coefficient space spanned by coordinates
    m .. m + rows_per_block - 1, truncated at the domain dimension, with the
    projection output in the first row.  With ``rows_per_block=1`` the family
    is an orthonormal one: each block is exactly one canonical row.
    """
    if d < 1:
        raise ShapeMismatch(f"need d >= 1, got {d}")
    blocks = []
    for m0 in range(d):
        dm = min(rows_per_block, d - m0)
        b = np.zeros((dm, d))
        b[0, m0] = 1.0
        blocks.append(b)
    return new_gframe(d, blocks)


def build_shifted_projection_pair(n_blocks: int) -> ExampleInstance:
    """Coordinate projections against shifted projections with a doubled head.

    The second family projects onto coordinates 1 and 2 in its first block
    and onto coordinate m + 1 in block m afterwards; the truncation zeroes
    the final block.  Selecting only block 1 from the first family leaves
    coordinate 2 uncovered, so the pair is not woven.
    """
    if n_blocks < 3:
        raise ShapeMismatch(f"need at least 3 blocks, got {n_blocks}")
    d = n_blocks
    first = build_projection_family(d, 3)
    blocks = []
    for m0 in range(d):
        dm = min(3, d - m0)
        b = np.zeros((dm, d))
        if m0 == 0:
            b[0, 0] = 1.0
            b[1, 1] = 1.0
        elif m0 + 1 < d:
            b[1, m0 + 1] = 1.0
        # last block: the shifted coordinate falls outside the truncation
        blocks.append(b)
    second = new_gframe(d, blocks)
    return ExampleInstance(
        name="shifted-projection pair",
        parameters={"n_blocks": n_blocks},
        first=first,
        second=second,
        expected={
            "first_bounds": (1.0, 1.0),
            "second_bounds": (1.0, 1.0),
            "woven": False,
            "certificate_indices": (1,),
            "failing_direction": 2,
        },
        derived=("second_bounds",),
    )


def build_window_pair(n_blocks: int) -> ExampleInstance:
    """Coordinate projections against two-coordinate windows.

    The second family covers coordinates m and m + 1 in block m (the final
    block loses its second coordinate to the truncation).  Every weaving
    keeps all coordinates covered, so the pair is woven.
    """
    if n_blocks < 3:
        raise ShapeMismatch(f"need at least 3 blocks, got {n_blocks}")
    d = n_blocks
    first = build_projection_family(d, 3)
    blocks = []
    for m0 in range(d):
        dm = min(3, d - m0)
        b = np.zeros((dm, d))
        b[0, m0] = 1.0
        if m0 + 1 < d:
            b[1, m0 + 1] = 1.0
        blocks.append(b)
    second = new_gframe(d, blocks)
    return ExampleInstance(
        name="window pair",
        parameters={"n_blocks": n_blocks},
        first=first,
        second=second,
        expected={
            "universal": (1.0, 2.0),
            "vector_universal_scaled2": (4.0, 8.0),
            "stated_vector_envelope": (1.0, 8.0),
        },
        derived=("universal", "vector_universal_scaled2"),
    )


def build_scaled_split_pair(n_blocks: int) -> ExampleInstance:
    """Two tight families that split two coordinates across scaled block pairs.

    Blocks 2 and 3 of the first family each carry coordinate 2 at weight
    1/sqrt(2) while the second family carries it fully in block 2 and not at
    all in block 3; blocks 4 and 5 mirror the construction on coordinate 3
    with the roles swapped.  Each family alone is tight with bounds (1, 1),
    but mixing the split blocks moves the bounds to 1/2 and 3/2.
    """
    if n_blocks < 9:
        raise ShapeMismatch(f"need at least 9 blocks, got {n_blocks}")
    d = n_blocks - 2
    s = 1.0 / math.sqrt(2.0)
    first_rows = []
    second_rows = []
    for m in range(1, n_blocks + 1):
        if m == 1:
            fa, se = _row(d, 1), _row(d, 1)
        elif m == 2:
            fa, se = _row(d, 2, s), _row(d, 2)
        elif m == 3:
            fa, se = _row(d, 2, s), _row(d, 0)
        elif m == 4:
            fa, se = _row(d, 3), _row(d, 3, s)
        elif m == 5:
            fa, se = _row(d, 0), _row(d, 3, s)
        else:
            fa = se = _row(d, m - 2)
        first_rows.append(fa)
        second_rows.append(se)
    first = new_gframe(d, first_rows)
    second = new_gframe(d, second_rows)
    return ExampleInstance(
        name="scaled-split pair",
        parameters={"n_blocks": n_blocks},
        first=first,
        second=second,
        expected={
            "first_bounds": (1.0, 1.0),
            "second_bounds": (1.0, 1.0),
            "universal": (0.5, 1.5),
            "argmin_contains": 2,
            "argmax_contains": 4,
        },
    )


def build_duplicate_vs_split_pair(k: int) -> ExampleInstance:
    """Duplicated grid rows against parity splits of the same rows.

    The domain is a k x k coordinate grid.  The first family repeats each
    grid row in two consecutive blocks; the second family sends one block of
    each pair to the odd columns of the row and the other to the even
    columns.  k must be even so both splits have k/2 entries.
    """
    if k < 2 or k % 2:
        raise ShapeMismatch(f"need an even k >= 2, got {k}")
    d = k * k
    blocks_first = []
    blocks_second = []
    for m0 in range(2 * k):
        n0 = m0 // 2
        full = np.zeros((k, d))
        for j in range(k):
            full[j, n0 * k + j] = 1.0
        blocks_first.append(full)
        half = np.zeros((k // 2, d))
        offset = 0 if m0 % 2 == 0 else 1
        for j in range(k // 2):
            half[j, n0 * k + 2 * j + offset] = 1.0
        blocks_second.append(half)
    first = new_gframe(d, blocks_first)
    second = new_gframe(d, blocks_second)
    return ExampleInstance(
        name="duplicate-vs-split pair",
        parameters={"k": k},
        first=first,
        second=second,
        expected={
            "first_bounds": (2.0, 2.0),
            "first_exact": False,
            "first_riesz": False,
            "second_riesz": True,
            "second_riesz_bounds": (1.0, 1.0),
            "universal": (1.0, 2.0),
            "removal_of_block_2_keeps_frame": True,
        },
    )


def build_overlapping_coordinate_pair(n_blocks: int) -> ExampleInstance:
    """Two families whose first three blocks overlap on two shared coordinates.

    Blocks are 4-row slices of the coordinate functionals listed below; from
    block 4 on, both families pick one fresh coordinate per block.  Each
    family alone is exact, yet the weaving that takes blocks 1 and 2 from the
    first family is not.
    """
    if n_blocks < 4:
        raise ShapeMismatch(f"need at least 4 blocks, got {n_blocks}")
    d = n_blocks + 3

    def block4(indices) -> np.ndarray:
        b = np.zeros((4, d))
        for r, ix in enumerate(indices):
            if ix > 0:
                b[r, ix - 1] = 1.0
        return b

    first_plan = {1: (2, 4, 1, 0), 2: (2, 4, 3, 0), 3: (2, 4, 5, 6)}
    second_plan = {1: (1, 3, 2, 0), 2: (1, 3, 4, 0), 3: (1, 3, 5, 6)}
    blocks_first = []
    blocks_second = []
    for m in range(1, n_blocks + 1):
        tail = (m + 3, 0, 0, 0)
        blocks_first.append(block4(first_plan.get(m, tail)))
        blocks_second.append(block4(second_plan.get(m, tail)))
    first = new_gframe(d, blocks_first)
    second = new_gframe(d, blocks_second)
    return ExampleInstance(
        name="overlapping-coordinate pair",
        parameters={"n_blocks": n_blocks},
        first=first,
        second=second,
        expected={
            "both_exact": True,
            "universal": (1.0, 3.0),
            "mixed_selection_indices": (1, 2),
            "mixed_is_frame": True,
            "mixed_is_exact": False,
            "mixed_removal_of_block_2_keeps_frame": True,
            "mixed_is_riesz": False,
        },
    )


def build_nonunitary_operators(d: int):
    """A surjective non-isometry (2 I) and an isometric non-surjection (shift).

    The shift sends coordinate i to coordinate i + 1; its last column is zero
    because the image of the final coordinate falls outside the truncation.
    """
    if d < 2:
        raise ShapeMismatch(f"need d >= 2, got {d}")
    scale2 = 2.0 * np.eye(d)
    shift = np.zeros((d, d))
    for i in range(d - 1):
        shift[i + 1, i] = 1.0
    return scale2, shift


def random_unitary(d: int, seed: int = 0) -> np.ndarray:
    """Deterministic Haar-style unitary from a seeded QR factorization."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class SuiteConfig:
    dim_scale: float = 1.0
    cap: Optional[int] = None
    tol: float = DEFAULT_TOL
    seed: int = 0
    search_budget: int = 128


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    passed: bool
    method: str
    computed: dict
    expected: dict
    provenance: dict = field(default_factory=dict)
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    records: tuple
    config: SuiteConfig

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "config": asdict(self.config),
            "records": [asdict(r) for r in self.records],
        }


def _scaled_size(base: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(base * scale)))


# The largest dim_scale: the 9-block scaled-split pair, the largest pair
# run_suite scales, then gets round(9 * scale) <= MAX_BLOCKS blocks, and
# every other scaled block count (about 8 * scale at most, the 2 * dup_k
# blocks of the duplicate-vs-split pair included) is smaller still.
_MAX_DIM_SCALE = (MAX_BLOCKS + 0.5) / 9


def _check_scale(scale: float) -> None:
    if not (_finite_real(scale) and scale > 0):
        raise ShapeMismatch(f"dim_scale must be a finite positive number, got {scale!r}")
    if scale > _MAX_DIM_SCALE:
        raise TooManyBlocks(
            f"dim_scale {scale!r} builds pairs of more than {MAX_BLOCKS} blocks,"
            f" the most a selection mask holds; the largest dim_scale is {_MAX_DIM_SCALE:.4g}"
        )


def _universal(pair: ExampleInstance, config: SuiteConfig):
    """Exhaustive bounds when the cap allows, sampled bounds otherwise."""
    try:
        return universal_bounds_exhaustive(pair.first, pair.second, config.tol, config.cap)
    except TooManyBlocks:
        return universal_bounds_search(
            pair.first, pair.second, config.search_budget, config.seed, config.tol
        )


def _bounds_close(pair_value, expected) -> bool:
    """Both ends equal, up to the check slack sized by the two upper ends."""
    sizes = pair_value[1], expected[1]
    return all(linalg._at_most(abs(v - e), 0.0, *sizes) for v, e in zip(pair_value, expected))


def _universal_matches(rep, expected) -> bool:
    """Exhaustive bounds equal ``expected``; sampled bounds only ever shrink it, so lie inside."""
    if rep.method == "exhaustive":
        return _bounds_close((rep.lower, rep.upper), expected)
    inside = (expected[0], rep.lower), (rep.upper, expected[1])
    return all(linalg._at_most(a, b, rep.upper, expected[1]) for a, b in inside)


def run_suite(config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run the whole verification battery and collect one record per statement."""
    cfg = SuiteConfig() if config is None else config
    _check_type(cfg, SuiteConfig, "the config")
    _check_seed(cfg.seed)
    scale = cfg.dim_scale
    _check_scale(scale)
    tol = cfg.tol
    _check_tol(tol)
    cap = effective_cap(cfg.cap)  # a malformed cap is an input error, not a record
    cfg = replace(cfg, cap=cap)  # the report carries the cap this run used
    _check_budget(cfg.search_budget)
    records = []

    def add(name, passed, method, computed, expected, provenance=None, detail=""):
        records.append(
            SuiteRecord(
                name=name,
                passed=bool(passed),
                method=method,
                computed=computed,
                expected=expected,
                provenance=provenance or {},
                detail=detail,
            )
        )

    @contextmanager
    def statement(name):
        # Yields the add of the statement's record.  A statement whose
        # exhaustive computation the cap refuses gets a skipped record, which
        # fails nothing and keeps the record set the same for every cap.  Any
        # other GWeaveError fails that record alone, with its message, and
        # the battery goes on.
        try:
            yield partial(add, name)
        except TooManyBlocks:
            detail = "skipped: block count above the exhaustive cap"
            add(name, True, "skipped", {}, {}, detail=detail)
        except GWeaveError as exc:
            add(name, False, "error", {}, {}, detail=f"{type(exc).__name__}: {exc}")

    proj_d = _scaled_size(6, scale, 3)
    proj3 = build_projection_family(proj_d, 3)
    proj1 = build_projection_family(proj_d, 1)
    shifted = build_shifted_projection_pair(_scaled_size(8, scale, 3))
    window = build_window_pair(_scaled_size(8, scale, 3))
    scaled_pair = build_scaled_split_pair(_scaled_size(9, scale, 9))
    dup_k = 2 * max(1, int(round(4 * scale / 2)))
    dupsplit = build_duplicate_vs_split_pair(dup_k)
    overlap = build_overlapping_coordinate_pair(_scaled_size(8, scale, 4))
    scale2, shift = build_nonunitary_operators(proj_d)

    # Results that several statements read, each computed once on first use.
    # One that raises is computed again, and raises again, for each statement
    # that needs it.
    shifted_universal = cache(lambda: _universal(shifted, cfg))
    window_universal = cache(lambda: _universal(window, cfg))
    scaled_universal = cache(lambda: _universal(scaled_pair, cfg))
    scaled_families = cache(
        lambda: (optimal_bounds(scaled_pair.first, tol), optimal_bounds(scaled_pair.second, tol))
    )
    duplicate_riesz = cache(lambda: is_g_riesz_basis(dupsplit.first, tol))
    split_riesz = cache(lambda: is_g_riesz_basis(dupsplit.second, tol))

    def doubled_transfer(pair, report):
        """The pair's weaving transfer through orthonormal bases of every block scaled by 2."""
        specs = [onb_families(f.block_rows, scale=2.0) for f in (pair.first, pair.second)]
        return check_weaving_transfer(pair.first, pair.second, *specs, tol, cap, report=report)

    # Tight coordinate projections; the one-row variant is an orthonormal family.
    with statement("coordinate-projections-tight") as record:
        b3 = optimal_bounds(proj3, tol)
        onb1 = is_g_orthonormal_basis(proj1, tol)
        record(
            _bounds_close((b3.lower, b3.upper), (1.0, 1.0)) and onb1.is_onb,
            "exhaustive",
            {"bounds": (b3.lower, b3.upper), "one_row_variant_is_onb": onb1.is_onb},
            {"bounds": (1.0, 1.0), "one_row_variant_is_onb": True},
            {"bounds": "declared", "one_row_variant_is_onb": "declared"},
        )

    # Shifted pair: not woven, and the certificate is the singleton {1}.  Both
    # families' frame operators are the identity, so the zero lower bound has size 1.
    with statement("shifted-projections-not-woven") as record:
        sh_rep = shifted_universal()
        sh_first = optimal_bounds(shifted.first, tol)
        sh_second = optimal_bounds(shifted.second, tol)
        sh_ok = (
            not sh_rep.woven
            and linalg._at_most(sh_rep.lower, 0.0, 1.0, rtol=linalg.ZERO_RTOL)
            and _bounds_close((sh_first.lower, sh_first.upper), (1.0, 1.0))
            and _bounds_close((sh_second.lower, sh_second.upper), (1.0, 1.0))
        )
        if sh_rep.method == "exhaustive":
            sh_ok = sh_ok and sh_rep.argmin.indices == shifted.expected["certificate_indices"]
        record(
            sh_ok,
            sh_rep.method,
            {
                "woven": sh_rep.woven,
                "universal_lower": sh_rep.lower,
                "certificate": list(sh_rep.argmin.indices),
            },
            {"woven": False, "certificate": [1], "universal_lower_at_most": linalg.ZERO_RTOL},
            shifted.provenance,
        )

    # Window pair: woven with universal bounds (1, 2).
    with statement("window-pair-universal") as record:
        wi_rep = window_universal()
        record(
            wi_rep.woven and _universal_matches(wi_rep, window.expected["universal"]),
            wi_rep.method,
            {"universal": (wi_rep.lower, wi_rep.upper), "woven": wi_rep.woven},
            {"universal": window.expected["universal"], "woven": True},
            window.provenance,
        )

    # Window pair through doubled per-block bases: the group-level weaving
    # bounds scale by 4, and the declared conservative envelope is recorded
    # next to the computed optimum without judging between them.
    with statement("window-pair-vector-transfer") as record:
        transfer = doubled_transfer(window, window_universal())
        vector_bounds = transfer.computed["vector_bounds"]
        record(
            _bounds_close(vector_bounds, window.expected["vector_universal_scaled2"])
            and transfer.passed,
            "exhaustive",
            {
                "vector_universal": vector_bounds,
                "transfer_passed": transfer.passed,
            },
            {
                "vector_universal": window.expected["vector_universal_scaled2"],
                "stated_envelope": window.expected["stated_vector_envelope"],
            },
            window.provenance,
            detail=(
                "computed optimal lower bound 4 recorded alongside the stated"
                " conservative envelope lower bound 1"
            ),
        )

    # Shifted pair transfers its negative verdict to the vector level.
    with statement("shifted-pair-vector-transfer") as record:
        transfer = doubled_transfer(shifted, shifted_universal())
        record(
            transfer.passed and not transfer.computed["vector_woven"],
            "exhaustive",
            transfer.computed,
            {"verdicts_match": True, "vector_woven": False},
            shifted.provenance,
        )

    # Scaled-split pair: each family tight, universal bounds strictly wider.
    with statement("scaled-split-families-tight") as record:
        sc_first, sc_second = scaled_families()
        record(
            _bounds_close((sc_first.lower, sc_first.upper), (1.0, 1.0))
            and _bounds_close((sc_second.lower, sc_second.upper), (1.0, 1.0)),
            "exhaustive",
            {
                "first_bounds": (sc_first.lower, sc_first.upper),
                "second_bounds": (sc_second.lower, sc_second.upper),
            },
            {"first_bounds": (1.0, 1.0), "second_bounds": (1.0, 1.0)},
            scaled_pair.provenance,
        )

    with statement("scaled-split-universal") as record:
        sc_rep = scaled_universal()
        sc_ok = sc_rep.woven and _universal_matches(sc_rep, scaled_pair.expected["universal"])
        if sc_rep.method == "exhaustive":
            sc_ok = (
                sc_ok
                and sc_rep.argmin.contains(scaled_pair.expected["argmin_contains"])
                and sc_rep.argmax.contains(scaled_pair.expected["argmax_contains"])
            )
        record(
            sc_ok,
            sc_rep.method,
            {
                "universal": (sc_rep.lower, sc_rep.upper),
                "argmin": list(sc_rep.argmin.indices),
                "argmax": list(sc_rep.argmax.indices),
            },
            scaled_pair.expected,
            scaled_pair.provenance,
        )

    with statement("scaled-split-envelope") as record:
        sc_rep = scaled_universal()
        sc_first, sc_second = scaled_families()
        sizes = sc_first.upper, sc_second.upper
        record(
            not linalg._at_most(min(sc_first.lower, sc_second.lower), sc_rep.lower, *sizes)
            and not linalg._at_most(sc_rep.upper, max(sizes), *sizes),
            sc_rep.method,
            {"universal": (sc_rep.lower, sc_rep.upper)},
            {
                "lower_strictly_below": min(sc_first.lower, sc_second.lower),
                "upper_strictly_above": max(sc_first.upper, sc_second.upper),
            },
            detail="strictness illustration: the envelope inequalities are strict here",
        )

    with statement("scaled-split-sum-gap") as record:
        sc_rep = scaled_universal()
        gap = check_strict_sum_gap(scaled_pair.first, scaled_pair.second, sc_rep)
        record(
            gap.passed,
            sc_rep.method,
            {"universal": (sc_rep.lower, sc_rep.upper)},
            gap.expected,
        )

    with statement("parseval-transform-weaving") as record:
        pt = check_parseval_transform_weaving(
            scaled_pair.first, scaled_pair.second, scaled_universal(), tol, cap
        )
        record(
            pt.passed,
            "exhaustive",
            pt.computed,
            pt.expected,
            detail=pt.detail,
        )

    # Additive upper bound on two woven pairs, read from their reports.
    with statement("additive-upper-bound") as record:
        wi_rep, sc_rep = window_universal(), scaled_universal()
        a1 = check_additive_upper_bound(window.first, window.second, wi_rep)
        a2 = check_additive_upper_bound(scaled_pair.first, scaled_pair.second, sc_rep)
        record(
            a1.passed and a2.passed,
            "search" if "search" in (wi_rep.method, sc_rep.method) else "exhaustive",
            {"window": a1.computed, "scaled_split": a2.computed},
            {"window": a1.expected, "scaled_split": a2.expected},
        )

    # A family weaves with its canonical dual: scalar case plus the window family.
    scalar = new_gframe(1, [np.array([[1.0]]), np.array([[1.0]])])
    with statement("dual-pair-weaving-guarantee") as record:
        dr1 = check_dual_weaving(scalar, tol, cap)
        dr1_ok = dr1.passed and _bounds_close(
            (dr1.computed["universal_lower"], dr1.computed["universal_upper"]),
            (0.5, 2.0),
        )
        try:
            dr2 = check_dual_weaving(window.second, tol, cap)
        except TooManyBlocks:
            dr2 = None
        record(
            dr1_ok and (dr2 is None or dr2.passed),
            "exhaustive",
            {"scalar": dr1.computed, "window_second": None if dr2 is None else dr2.computed},
            {"scalar_universal": (0.5, 2.0), "guarantees": dr1.expected},
            {"scalar_universal": "derived"},
        )

    # Duplicate rows: a frame with bounds (2, 2) that is neither exact nor Riesz.
    with statement("duplicate-rows-family") as record:
        du_first = optimal_bounds(dupsplit.first, tol)
        du_exact = is_g_exact(dupsplit.first, tol)
        du_riesz_first = duplicate_riesz()
        record(
            _bounds_close((du_first.lower, du_first.upper), (2.0, 2.0))
            and not du_exact.is_exact
            and du_exact.witness is not None
            and du_exact.removal_lower_bounds[1] > du_exact.threshold
            and not du_riesz_first.is_riesz,
            "exhaustive",
            {
                "bounds": (du_first.lower, du_first.upper),
                "is_exact": du_exact.is_exact,
                "witness": du_exact.witness,
                "lower_bound_after_removing_block_2": du_exact.removal_lower_bounds[1],
                "is_riesz": du_riesz_first.is_riesz,
                "induced_vector_count": du_riesz_first.vector_count,
            },
            {
                "bounds": (2.0, 2.0),
                "is_exact": False,
                "removal_of_block_2_keeps_frame": True,
                "is_riesz": False,
            },
            dupsplit.provenance,
        )

    # Parity split: a Riesz (indeed orthonormal) family with bounds (1, 1).
    with statement("parity-split-family") as record:
        du_riesz_second = split_riesz()
        du_onb_second = is_g_orthonormal_basis(dupsplit.second, tol)
        record(
            du_riesz_second.is_riesz
            and _bounds_close((du_riesz_second.lower, du_riesz_second.upper), (1.0, 1.0)),
            "exhaustive",
            {
                "is_riesz": du_riesz_second.is_riesz,
                "riesz_bounds": (du_riesz_second.lower, du_riesz_second.upper),
                "is_onb": du_onb_second.is_onb,
            },
            {"is_riesz": True, "riesz_bounds": (1.0, 1.0)},
            dupsplit.provenance,
        )

    # The pair weaves although exactly one member is a Riesz family; this is
    # the asymmetry that cannot happen for ordinary vector frames.
    with statement("duplicate-vs-split-weaving") as record:
        du_rep = _universal(dupsplit, cfg)
        exactly_one = split_riesz().is_riesz and not duplicate_riesz().is_riesz
        record(
            du_rep.woven
            and _universal_matches(du_rep, dupsplit.expected["universal"])
            and exactly_one,
            du_rep.method,
            {
                "universal": (du_rep.lower, du_rep.upper),
                "woven": du_rep.woven,
                "exactly_one_riesz": exactly_one,
            },
            {"universal": dupsplit.expected["universal"], "exactly_one_riesz": True},
            dupsplit.provenance,
        )

    # Overlapping coordinates: both families exact.
    with statement("overlapping-coordinates-exact") as record:
        ov_first = is_g_exact(overlap.first, tol)
        ov_second = is_g_exact(overlap.second, tol)
        record(
            ov_first.is_exact and ov_second.is_exact,
            "exhaustive",
            {"first_exact": ov_first.is_exact, "second_exact": ov_second.is_exact},
            {"first_exact": True, "second_exact": True},
            overlap.provenance,
        )

    with statement("overlapping-coordinates-weaving") as record:
        ov_rep = _universal(overlap, cfg)
        record(
            ov_rep.woven and _universal_matches(ov_rep, overlap.expected["universal"]),
            ov_rep.method,
            {"universal": (ov_rep.lower, ov_rep.upper), "woven": ov_rep.woven},
            {"universal": overlap.expected["universal"], "woven": True},
            overlap.provenance,
        )

    # The weaving taking blocks 1 and 2 from the first family is a frame but
    # no longer exact, hence not Riesz; exactness is lost under weaving even
    # though both ingredients are exact.
    with statement("overlapping-coordinates-nonexact-weaving") as record:
        sel = WeavingSelection.from_indices(
            overlap.first.n_blocks, overlap.expected["mixed_selection_indices"]
        )
        mixed = weave(overlap.first, overlap.second, sel)
        mixed_bounds = optimal_bounds(mixed, tol)
        mixed_exact = is_g_exact(mixed, tol)
        mixed_riesz = is_g_riesz_basis(mixed, tol)
        record(
            mixed_bounds.is_frame
            and not mixed_exact.is_exact
            and mixed_exact.removal_lower_bounds[1] > mixed_exact.threshold
            and not mixed_riesz.is_riesz,
            "exhaustive",
            {
                "is_frame": mixed_bounds.is_frame,
                "is_exact": mixed_exact.is_exact,
                "witness": mixed_exact.witness,
                "lower_bound_after_removing_block_2": mixed_exact.removal_lower_bounds[1],
                "is_riesz": mixed_riesz.is_riesz,
            },
            {
                "is_frame": True,
                "is_exact": False,
                "removal_of_block_2_keeps_frame": True,
                "is_riesz": False,
            },
            overlap.provenance,
        )

    # Block and induced-vector frame operators are the same sum.
    with statement("operator-identity") as record:
        identity_targets = [
            ("projections", proj3),
            ("duplicate-rows", dupsplit.first),
            ("parity-split", dupsplit.second),
            ("overlap-first", overlap.first),
            ("scaled-split-first", scaled_pair.first),
        ]
        id_results = {name: check_operator_identity(f) for name, f in identity_targets}
        # the allowance each target was checked against, sized by its operator
        allowed = {n: r.expected["max_entry_difference_at_most"] for n, r in id_results.items()}
        record(
            all(r.passed for r in id_results.values()),
            "exhaustive",
            {name: r.computed["max_entry_difference"] for name, r in id_results.items()},
            {"max_entry_difference_at_most": allowed},
        )

    # Orthonormal weaving survives unitary composition and fails for the two
    # non-unitary counterexamples.
    with statement("unitary-composition-preserves-onb-weaving") as record:
        u = random_unitary(proj_d, cfg.seed)
        unitary_rec = check_unitary_weaving_invariance(proj1, proj1, u, tol, cap)
        onb_pair_ok = unitary_rec.computed["input_pair_holds"]
        record(
            onb_pair_ok and unitary_rec.passed,
            "exhaustive",
            {"identity_pair_holds": onb_pair_ok, **unitary_rec.computed},
            {"identity_pair_holds": True, **unitary_rec.expected},
        )

    with statement("scaling-breaks-onb") as record:
        scaled_family = compose_right(proj1, scale2)
        scaled_class = classify(scaled_family, tol)
        scaled_bounds = optimal_bounds(scaled_family, tol)
        record(
            not scaled_class.is_g_onb
            and _bounds_close((scaled_bounds.lower, scaled_bounds.upper), (4.0, 4.0)),
            "exhaustive",
            {
                "is_onb": scaled_class.is_g_onb,
                "bounds": (scaled_bounds.lower, scaled_bounds.upper),
            },
            {"is_onb": False, "bounds": (4.0, 4.0)},
        )

    with statement("shift-breaks-onb") as record:
        shifted_family = compose_right(proj1, shift)
        shifted_class = is_g_orthonormal_basis(shifted_family, tol)
        shifted_vectors = induced_vectors(shifted_family, onb_families(shifted_family.block_rows))
        first_norm = float(np.linalg.norm(shifted_vectors.groups[0][0]))
        record(
            not shifted_class.is_onb
            and shifted_class.first_zero_row == (1, 1)
            and linalg._at_most(first_norm, 0.0, 1.0, rtol=linalg.ZERO_RTOL),
            "exhaustive",
            {
                "is_onb": shifted_class.is_onb,
                "zero_induced_vector": shifted_class.first_zero_row,
                "first_induced_vector_norm": first_norm,
            },
            {"is_onb": False, "zero_induced_vector": (1, 1)},
        )

    records.sort(key=lambda r: r.name)
    return SuiteReport(records=tuple(records), config=cfg)
