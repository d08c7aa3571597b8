"""Spectral engine for a chain of unit-radius rings with delta couplings.

The straight chain is periodic and its spectrum consists of bands plus an
infinitely degenerate flat eigenvalue at every squared integer; bending
one ring (arcs of length pi +/- theta) preserves a mirror symmetry, so
the perturbation splits into even and odd half-problems whose discrete
eigenvalues live in the spectral gaps.  The subpackages compute the band
picture, the gap eigenvalues as functions of the bend angle, the
resonance-pole trajectories in complex wavenumber, and the asymptotic
laws tying the two together at the band edges.
"""
from __future__ import annotations

import importlib
import os

# The engine runs in one thread, and its only BLAS calls are two polyfits
# on a few dozen points, so OpenBLAS's worker pool never helps it; an idle
# worker still spins on a core.  OpenBLAS reads the variable once, when
# numpy loads it, so this must come before the first numpy import; a value
# the caller has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each submodule and the public names it defines.  A name is imported
# with its module on first access (PEP 562), so a command loads only
# the modules it runs.
_EXPORTS = {
    "dispersion": (
        "ZERO_ENERGY_ALPHA_MIN", "DomainError", "DegenerateError",
        "OverflowNormError", "ContinuationError", "InsufficientDataError",
        "discriminant", "discriminant_negative", "discriminant_zero_limit",
        "floquet_phases", "gap_function", "gap_function_negative",
        "gap_function_negative_curvature",
    ),
    "bands": (
        "Band", "GapInterval", "compute_bands", "gap_intervals", "in_spectrum",
        "lowest_band_threshold",
    ),
    "gaps": (
        "singular_angles", "is_singular_angle", "solve_gap_near_edge",
        "kappa_cutoff", "odd_zero_crossing_angle", "double_points_in_gap",
        "recover_double_angle", "gap_eigenvalues", "gap_eigenvalues_grid",
        "trace_eigenvalue_curve",
    ),
    "transfer": (
        "transfer_matrix", "transfer_eigen", "boundary_vector_even",
        "coefficient_sequence", "measured_decay_rate",
    ),
    "resonance": (
        "ContourZeroError", "SingularPoint", "resonance_residual",
        "resonance_residual_grid", "enumerate_singular_points",
        "seed_from_singular_point", "refine_resonance", "continue_curve",
        "trace_complex_branch", "real_branch_offset", "fit_branch_exponent",
        "gentle_bend_coefficient", "fit_gentle_coefficient", "count_zeros_box",
    ),
    "verify": ("run_criterion", "run_all", "summarize"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
