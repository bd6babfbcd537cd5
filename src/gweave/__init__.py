"""Finite-dimensional toolkit for block-operator frames and their weavings."""

__version__ = "0.1.0"

from .errors import (
    Empty,
    EnvelopeViolation,
    GWeaveError,
    LengthMismatch,
    NonFinite,
    NonHermitian,
    NotAFrame,
    NotUnitary,
    NotWoven,
    ParseError,
    SchemaError,
    ShapeMismatch,
    Singular,
    TooManyBlocks,
)
from .gframe import (
    BoundsReport,
    Classification,
    ExactnessReport,
    FrameOperatorResult,
    GFrame,
    OnbReport,
    RieszReport,
    apply,
    canonical_dual,
    classify,
    coefficient_energy,
    compose_right,
    frame_operator,
    is_dual_pair,
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
    parseval_transform,
)
from .induced import (
    SubspaceFrameSpec,
    VectorFamily,
    check_operator_identity,
    check_weaving_transfer,
    frame_bounds_vectors,
    induced_vectors,
    is_onb_vectors,
    is_riesz_basis_vectors,
    make_subspace_spec,
    make_vector_family,
    onb_families,
    universal_bounds_vectors,
    vector_frame_operator,
)
from .weaving import (
    UniversalReport,
    VerificationRecord,
    WeavingSelection,
    WovenVerdict,
    check_additive_upper_bound,
    check_dual_weaving,
    check_parseval_transform_weaving,
    check_strict_sum_gap,
    check_unitary_weaving_invariance,
    check_universal_envelope,
    effective_cap,
    is_weaving_g_onb,
    is_weaving_g_riesz,
    is_woven,
    universal_bounds_exhaustive,
    universal_bounds_search,
    weave,
    weaving_bounds,
)
from .suite import (
    ExampleInstance,
    SuiteConfig,
    SuiteReport,
    build_duplicate_vs_split_pair,
    build_nonunitary_operators,
    build_overlapping_coordinate_pair,
    build_projection_family,
    build_scaled_split_pair,
    build_shifted_projection_pair,
    build_window_pair,
    random_unitary,
    run_suite,
)

# The CLI loads lazily: importing it here would run ``cli.py`` twice under
# ``python -m gweave.cli`` (runpy warns about exactly that).
_LAZY = ("cli", "load_gframe", "save_gframe")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        import importlib

        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
