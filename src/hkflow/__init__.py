"""Hellinger-Kantorovich distances, gradient flows, and their
verification toolkit on discrete grids."""

__version__ = "0.1.0"

from .entropy import (EntropySpec, check_NE_conditions, entropy_from_json,
                      eval_functional, eval_limit_functional, find_c_low,
                      linear_entropy, neg_power_entropy, power_mass_entropy,
                      table_entropy, zero_entropy)
from .evi import (ContractionReport, ErrorBudget, EVIReport, contraction_check,
                  convergence_study, error_budget, evi_check,
                  evi_residual_matrix, lambda_star, step_counts)
from .geometry import (ProbeSpace, check_angle_sum,
                       check_cauchy_schwarz_transfer, check_semiconcavity,
                       comparison_angle, cone_over_segment,
                       direction_gap_squared, euclidean_box,
                       interpolation_weight, lower_angle, radius_ratio,
                       shrinking_angles, transfer_ratio,
                       transfer_ratio_minimum, two_dirac_space, upper_angle,
                       upper_inner_product)
from .mdelta import (ball_average, in_ball_average_class, in_pointwise_class,
                      largest_pointwise_delta, pointwise_class_margin)
from .pde import (PDETrajectory, hk_flow_pde, scalar_quadratic_closed_form,
                  scalar_reaction_ode, shk_flow_pde, spherical_reaction_ode)
from .hk import (HKResult, cone_distance, dilation_cost, hk_distance,
                 hk_distance_squared, hk_exact_small, hk_two_diracs,
                 mass_gap_lower_bound, scaling_identity_gap, shk_distance,
                 shk_from_hk_squared)
from .measures import (DiscreteMeasure, GridDomain, coarsen, scale_measure,
                       uniform_measure, unit_interval)
from .mm import (MMStepResult, MMTrajectory, check_density_bounds,
                 iterate_lower_bound, iterate_sqrt_growth_bound,
                 iterate_upper_bound, mm_step, mm_trajectory,
                 plan_density_violation, scalar_lower_bound, scalar_mm_step,
                 scalar_shk_mm_step, scalar_step_monotonicity,
                 scalar_upper_bound, shk_mm_step)

__all__ = [name for name in dir() if not name.startswith("_")]
