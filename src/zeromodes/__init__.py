"""Coupling-constant spectra of confined zero modes for one-dimensional
Dirac systems with decaying potentials."""

from .potential import (
    AnalyticPotential,
    PiecewiseConstantPotential,
    build_w,
    classify_gaps,
    hrp_potential,
    integral,
    l1_norm,
    one_gap_params,
    synthesize_one_gap,
)
from .prufer import delta_derivative, delta_v, is_eigenvalue
from .closedform import determinant, piece_transfer
from .spectra import complex_spectrum, phase_grid, real_spectrum
from .asymptotics import a_density, compare, nu, parity_normalize, predict
from .trigzeros import TrigParams, brute_count, rational_density

__version__ = "0.1.0"
