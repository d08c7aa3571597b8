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

from .bands import (
    Band,
    BandSpectrum,
    compute_bands,
    in_spectrum,
    lowest_band_threshold,
)
from .dispersion import (
    ZERO_ENERGY_ALPHA_MIN,
    ContinuationError,
    DegenerateError,
    DomainError,
    InsufficientDataError,
    OverflowNormError,
    discriminant,
    discriminant_negative,
    discriminant_zero_limit,
    floquet_phases,
    gap_function,
    gap_function_negative,
    gap_function_negative_curvature,
)
from .gaps import (
    EigenvalueRecord,
    GapInterval,
    SpectralCurve,
    double_eigenvalue_residual,
    double_points_in_gap,
    gap_eigenvalues,
    gap_intervals,
    is_singular_angle,
    kappa_cutoff,
    odd_zero_crossing_angle,
    recover_double_angle,
    singular_angles,
    solve_gap,
    solve_gap_near_edge,
    solve_negative,
    trace_eigenvalue_curve,
)
from .resonance import (
    BranchFit,
    ContourZeroError,
    ResonanceCurve,
    SingularPoint,
    connecting_hyperbola_angle,
    continue_curve,
    count_zeros_box,
    enumerate_singular_points,
    fit_branch_exponent,
    fit_gentle_coefficient,
    gentle_bend_coefficient,
    real_branch_offset,
    refine_resonance,
    resonance_residual,
    resonance_residual_dk,
    resonance_residual_grid,
    seed_from_singular_point,
    trace_complex_branch,
)
from .transfer import (
    CoefficientPair,
    TransferEigen,
    TransferMatrix,
    boundary_vector_even,
    coefficient_sequence,
    measured_decay_rate,
    transfer_eigen,
    transfer_matrix,
)
from .verify import CriterionResult, run_all, run_criterion, summarize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dispersion
    "ZERO_ENERGY_ALPHA_MIN",
    "DomainError",
    "DegenerateError",
    "OverflowNormError",
    "ContinuationError",
    "InsufficientDataError",
    "discriminant",
    "discriminant_negative",
    "discriminant_zero_limit",
    "floquet_phases",
    "gap_function",
    "gap_function_negative",
    "gap_function_negative_curvature",
    # bands
    "Band",
    "BandSpectrum",
    "compute_bands",
    "in_spectrum",
    "lowest_band_threshold",
    # gaps
    "GapInterval",
    "EigenvalueRecord",
    "SpectralCurve",
    "gap_intervals",
    "singular_angles",
    "is_singular_angle",
    "solve_gap",
    "solve_gap_near_edge",
    "solve_negative",
    "kappa_cutoff",
    "odd_zero_crossing_angle",
    "double_eigenvalue_residual",
    "double_points_in_gap",
    "recover_double_angle",
    "gap_eigenvalues",
    "trace_eigenvalue_curve",
    # transfer
    "TransferMatrix",
    "TransferEigen",
    "CoefficientPair",
    "transfer_matrix",
    "transfer_eigen",
    "boundary_vector_even",
    "coefficient_sequence",
    "measured_decay_rate",
    # resonance
    "ContourZeroError",
    "SingularPoint",
    "ResonanceCurve",
    "BranchFit",
    "resonance_residual",
    "resonance_residual_dk",
    "resonance_residual_grid",
    "enumerate_singular_points",
    "seed_from_singular_point",
    "refine_resonance",
    "continue_curve",
    "trace_complex_branch",
    "real_branch_offset",
    "fit_branch_exponent",
    "gentle_bend_coefficient",
    "fit_gentle_coefficient",
    "count_zeros_box",
    "connecting_hyperbola_angle",
    # verify
    "CriterionResult",
    "run_criterion",
    "run_all",
    "summarize",
]
