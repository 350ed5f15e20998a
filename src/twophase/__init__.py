"""Numerical laboratory for viscous two-phase outflow on the half line.

Steady profiles are constructed by one collocation solve per regime, with
projection boundary conditions at the far end, evolved under the full
system by a finite-volume scheme, and measured against the predicted
spatial and temporal decay rates.
"""

from .diagnostics import (AlgebraicNu, ExponentialLambda, NormRecord,
                          NormSeries, PerturbationField, QuadraticFormReport,
                          SigmaNu, TemporalDecayFit, assemble_quadratic_form,
                          energy_total, fit_temporal_decay, hat_transform,
                          load_norm_series_csv, norms, perturbation,
                          phi_potential, save_norm_series_csv, weight_tag)
from .errors import (BlowUpError, ConfigError, DomainError,
                     InsufficientDataError, NumericsError, ShootingError,
                     SingularityError, VacuumError, WeightOverflowError)
from .ibvp import (Boundary, EvolutionState, EvolveResult, Grid1D,
                   PerturbationSpec, evolve, initialize, load_state_csv,
                   make_grid, perturbation_values, save_state_csv, stable_dt,
                   step)
from .model import (DerivedConstants, FarFieldState, FluidConstants,
                    ModelSpec, Regime, classify_regime, derived_constants,
                    pressure, pressure_derivative, sonic_pressure_condition,
                    sonic_velocity, sound_speed)
from .steady import (EigenSystem, SolveStats, SpatialDecayFit,
                     SteadyProfile, SteadySolveOptions, eigensystem,
                     farfield_jacobian, fit_spatial_decay, load_profile_csv,
                     save_profile_csv, sigma_profile, solve_steady,
                     steady_residual)

__version__ = "0.1.0"
