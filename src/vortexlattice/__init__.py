"""Vortex-lattice solutions of the 2-D Ginzburg-Landau equations."""

from .lattice import (TAU_SQUARE, TAU_TRIANGULAR, CellGeometry, LatticeShape,
                      ModularMap, SolverError, cell_geometry, normalize_tau)
from .landau import (LandauBasis, QuasiPeriodicField,
                     quasi_periodicity_residual, theta_null_basis)
from .glcore import (GLParams, GLState, PeriodicVectorField, energy, map_F,
                     residuals)
from .abrikosov import (CriticalPoint, beta_lattice_sum, beta_quadrature,
                        energy_landscape_asymptotic, find_beta_critical_points,
                        kappa_c, minimize_Eb_numeric)
from .bifurcation import (Branch, ExpansionReport, ReductionSetup,
                          branch_by_field, build_reduction, fit_expansion,
                          gamma1, solve_branch, solve_w)
from .gauge import RawLatticeState, fix_gauge, gauge_transform, translate_state

__version__ = "0.1.0"
