"""Every input check of the library rejects its input with ValueError and
a message that names the fault, and the edge branches that return instead
of raising return their limit values."""

import math

import numpy as np
import pytest

from hkflow.entropy import (EntropySpec, check_NE_conditions,
                            linear_entropy, neg_power_entropy,
                            power_mass_entropy, table_entropy)
from hkflow.evi import contraction_check, error_budget, evi_check
from hkflow.geometry import (comparison_angle, cone_over_segment,
                             interpolation_weight, radius_ratio,
                             transfer_ratio, two_dirac_space)
from hkflow.hk import (cone_distance, dilation_cost, hk_distance_squared,
                       hk_exact_small, hk_two_diracs, shk_from_hk_squared,
                       shk_squared_derivative)
from hkflow.mdelta import (in_ball_average_class, largest_pointwise_delta,
                           pointwise_class_margin)
from hkflow.measures import (DiscreteMeasure, GridDomain, scale_measure,
                             uniform_measure, unit_interval)
from hkflow.mm import (MMStepResult, MMTrajectory, iterate_upper_bound,
                       mm_step, plan_density_violation, scalar_mm_step,
                       scalar_shk_mm_step, scalar_upper_bound, shk_mm_step)
from hkflow.pde import hk_flow_pde, scalar_quadratic_closed_form, shk_flow_pde

LINE = unit_interval(9)
ONE = uniform_measure(LINE, 1.0)
QUADRATIC = power_mass_entropy(1.0, 2.0, -1.0)
SQUARE = GridDomain((0.0, 0.0), (1.0, 1.0), (5, 5))


def quadratic(de=lambda c: 2.0 * c, c_low=None):
    """E(c) = c^2 with the given E' and c_low, as a hand-built spec."""
    return EntropySpec(lambda c: c * c, de, lambda c: 2.0 + 0.0 * c,
                       math.inf, c_low=c_low)


def trajectory(tau, densities, E=QUADRATIC):
    """A hand-built HK trajectory through the given densities on LINE."""
    return MMTrajectory(tau, [DiscreteMeasure(LINE, np.asarray(d, float))
                              for d in densities],
                        [0.0] * (len(densities) - 1), "hk", E)


CHECKS = [
    # hk
    (lambda: hk_distance_squared(ONE, uniform_measure(unit_interval(5))),
     "different grids"),
    (lambda: hk_exact_small(ONE, uniform_measure(unit_interval(5))),
     "different grids"),
    (lambda: hk_two_diracs(-1.0, 1.0, 0.5), "must be nonnegative"),
    (lambda: shk_from_hk_squared(4.5), "exceeds 4"),
    (lambda: cone_distance(-1.0, 1.0, 0.5), "cone radii"),
    (lambda: dilation_cost(ONE, -np.ones(LINE.n_nodes)),
     "dilation factors"),
    # measures
    (lambda: GridDomain((0.0,), (1.0, 1.0), (3,)), "length mismatch"),
    (lambda: scale_measure(ONE, -1.0), "scale factor"),
    # mdelta
    (lambda: in_ball_average_class(ONE, 0.1, 0.0), "comparability ratio"),
    (lambda: pointwise_class_margin(ONE, 0.0),
     "bound parameter must be positive"),
    (lambda: pointwise_class_margin(ONE, -1.0),
     "bound parameter must be positive"),
    # mm
    (lambda: scalar_mm_step(-1.0, 0.1, QUADRATIC),
     "nonnegative level and positive step"),
    # E' = -10 < -1 / (2 tau) at every level
    (lambda: scalar_mm_step(1.0, 0.1, linear_entropy(-10.0)),
     "unbounded below"),
    (lambda: scalar_shk_mm_step(1.0, 0.0),
     "nonnegative level and positive step"),
    (lambda: mm_step(ONE, 0.0, QUADRATIC), "step size must be positive"),
    (lambda: shk_mm_step(uniform_measure(LINE, 2.0), 0.1, QUADRATIC),
     "unit-mass input"),
    (lambda: iterate_upper_bound(1.0, 1, 1.0, linear_entropy(-1.0)),
     "exponential bound"),
    (lambda: plan_density_violation(MMStepResult(ONE, 0.0, 0.0, 0.0, 0,
                                                 True)),
     "no transport plan"),
    # evi: a sample above the largest level of a table of infinite
    # recession slope has infinite energy
    (lambda: evi_check(trajectory(0.1, [np.ones(9), np.full(9, 3.0)],
                                  table_entropy([0.0, 1.0, 2.0],
                                                [0.0, 1.0, 4.0], math.inf)),
                       0.0),
     "infinite energy"),
    (lambda: error_budget(trajectory(0.1, [np.ones(9)]), 0.0, 0.0),
     "at least one step"),
    (lambda: contraction_check(trajectory(0.1, [np.ones(9)] * 2),
                               trajectory(0.2, [np.ones(9)] * 2), 0.0,
                               None, None),
     "different time grids"),
    # geometry
    (lambda: comparison_angle(0.0, 1.0, 1.0), "positive adjacent sides"),
    (lambda: cone_over_segment(4.0), "base length"),
    (lambda: two_dirac_space().geodesic((0.0, 1.0), (2.0, 1.0), 0.5),
     "half-pi separation"),
    (lambda: interpolation_weight(0.5, 0.0), "opening angle"),
    (lambda: interpolation_weight(1.5, 1.0), r"parameter must lie in \[0"),
    (lambda: radius_ratio(0.5, 4.0), "opening angle"),
    (lambda: transfer_ratio(0.0, 1.0, 0.5), r"parameter must lie in \(0"),
    # entropy: a convex E whose declared E' falls, and a declared c_low
    # where E' is positive
    (lambda: quadratic(de=lambda c: -c).validate(), "nondecreasing"),
    (lambda: quadratic(c_low=1.0).validate(), "c_low"),
    (lambda: power_mass_entropy(alpha=0.0), "alpha > 0"),
    (lambda: neg_power_entropy(q=1.5), "q in"),
    # pde
    (lambda: hk_flow_pde(uniform_measure(SQUARE), QUADRATIC, 0.01),
     "1-d grids only"),
]


@pytest.mark.parametrize("call, message", CHECKS)
def test_input_check_raises_naming_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


ZERO = uniform_measure(LINE, 0.0)
RAMP = DiscreteMeasure(LINE, 1.0 + LINE.coordinates[:, 0])

EDGES = [
    # 1 + 2 tau E'(reference) <= 0: no level bound
    (lambda: scalar_upper_bound(1.0, 0.1, linear_entropy(-10.0), 1.0),
     math.inf),
    # the step from the zero measure carries an all-zero plan
    (lambda: plan_density_violation(mm_step(ZERO, 0.1, QUADRATIC)), 0.0),
    (lambda: shk_flow_pde(ZERO, QUADRATIC, 0.01).densities,
     np.zeros((11, LINE.n_nodes))),
    (lambda: scalar_quadratic_closed_form(0.0, 1.0), 0.0),
    # at t = 0 every checkpoint is the initial density
    (lambda: hk_flow_pde(RAMP, QUADRATIC, 0.0).densities,
     np.tile(RAMP.density, (11, 1))),
    (lambda: in_ball_average_class(ZERO, 0.1, 0.5), False),
    (lambda: largest_pointwise_delta(
        DiscreteMeasure(LINE, np.r_[0.0, np.ones(8)])), 0.0),
]


@pytest.mark.parametrize("call, expected", EDGES)
def test_edge_branch_returns_its_limit(call, expected):
    assert np.array_equal(call(), expected)


def test_exact_solver_takes_supports_of_nine_nodes():
    # the interior-point oracle has no cap on the support size
    nine = DiscreteMeasure(unit_interval(11), np.r_[np.ones(9), 0.0, 0.0])
    exact = hk_exact_small(nine, nine)
    assert exact.converged
    assert exact.hk_squared == pytest.approx(
        hk_distance_squared(nine, nine).hk_squared, abs=1e-10)


def test_spherical_derivative_at_the_ends_of_its_range():
    # d(SHK^2)/d(HK^2) is 1 at coincident measures and blows up where
    # HK^2 reaches 4, the largest distance between probabilities
    assert shk_squared_derivative(0.0) == 1.0
    assert shk_squared_derivative(4.0) == math.inf


def test_convexity_certificate_reports_an_overflow():
    # c^60 overflows at the largest argument of N, g^4 / rho^2 = 1e6
    report = check_NE_conditions(power_mass_entropy(1.0, 60.0), 0.0, 2)
    assert report["overflow"]
    assert not report["convex"] and not report["monotone"]
