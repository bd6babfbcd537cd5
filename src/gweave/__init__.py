"""Finite-dimensional toolkit for block-operator frames and their weavings."""

__version__ = "0.1.0"

from .errors import *  # noqa: F403 -- the exception types load with the package

# Submodule -> the public names it defines.  Only ``errors`` loads with the
# package; a submodule and its names resolve on first access (PEP 562), so a
# command imports only the modules it runs, and ``python -m gweave.cli`` does
# not import ``cli.py`` twice (runpy warns about exactly that).
_EXPORTS = {
    "gframe": """
        BoundsReport Classification ExactnessReport FrameOperatorResult GFrame OnbReport
        RieszReport apply canonical_dual classify coefficient_energy compose_right
        frame_operator is_dual_pair is_g_exact is_g_orthonormal_basis is_g_riesz_basis
        new_gframe optimal_bounds parseval_transform""",
    "induced": """
        SubspaceFrameSpec VectorFamily check_operator_identity check_weaving_transfer
        frame_bounds_vectors induced_vectors is_onb_vectors is_riesz_basis_vectors
        make_subspace_spec make_vector_family onb_families universal_bounds_vectors
        vector_frame_operator""",
    "weaving": """
        UniversalReport VerificationRecord WeavingSelection WovenVerdict
        check_additive_upper_bound check_dual_weaving check_parseval_transform_weaving
        check_strict_sum_gap check_unitary_weaving_invariance check_universal_envelope
        effective_cap is_weaving_g_onb is_weaving_g_riesz is_woven
        universal_bounds_exhaustive universal_bounds_search weave weaving_bounds""",
    "suite": """
        ExampleInstance SuiteConfig SuiteReport build_duplicate_vs_split_pair
        build_nonunitary_operators build_overlapping_coordinate_pair build_projection_family
        build_scaled_split_pair build_shifted_projection_pair build_window_pair
        random_unitary run_suite""",
    "linalg": "",
    "_kernels": "",
    "cli": "load_gframe save_gframe",
}
# Name -> the submodule that holds it; a submodule's own name maps to itself.
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names.split())}

# The exception types, the public submodules and their names, sorted, with the
# CLI's names last.
__all__ = sorted(
    name for name in (*globals(), *_HOME) if name[0] != "_" and _HOME.get(name) != "cli"
) + ["cli", *_EXPORTS["cli"].split()]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_HOME[name]}", __name__)
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOME})
