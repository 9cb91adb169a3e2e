import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.geometry import (check_angle_sum, check_cauchy_schwarz_transfer,
                             check_semiconcavity, check_transfer_estimates,
                             comparison_angle,
                             cone_over_segment, direction_gap_squared,
                             euclidean_box, interpolation_weight, lower_angle,
                             radius_ratio, shrinking_angles, transfer_ratio,
                             transfer_ratio_minimum, two_dirac_space,
                             upper_angle, upper_inner_product)


def test_comparison_angle_basics():
    # right angle in a Euclidean comparison triangle
    assert comparison_angle(1.0, 1.0, math.sqrt(2.0)) \
        == pytest.approx(math.pi / 2, abs=1e-12)
    # degenerate: opposite side equals sum
    assert comparison_angle(1.0, 2.0, 3.0) == pytest.approx(math.pi)
    assert comparison_angle(1.0, 2.0, 1.0) == pytest.approx(0.0)


def test_euclidean_angles_exact():
    space = euclidean_box()
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    z = np.array([0.0, 1.0])
    up = upper_angle(space, x, y, z)
    lo = lower_angle(space, x, y, z)
    assert up == pytest.approx(math.pi / 2, abs=1e-9)
    assert lo == pytest.approx(math.pi / 2, abs=1e-9)
    # inner product <(y-x),(z-x)> via the quadrilateral formula
    ip = upper_inner_product(space, x, y, z)
    assert ip == pytest.approx(0.0, abs=1e-9)
    w = np.array([1.0, 1.0])
    assert upper_inner_product(space, x, y, w) == pytest.approx(1.0, abs=1e-8)


def test_euclidean_direction_gap():
    space = euclidean_box()
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    z = np.array([-1.0, 0.0])
    # opposite directions continue each other: zero gap
    assert direction_gap_squared(space, x, y, z) == pytest.approx(0.0,
                                                                  abs=1e-9)
    # identical directions are maximally far from a continuation
    assert direction_gap_squared(space, x, y, y) == pytest.approx(4.0,
                                                                  abs=1e-8)


def test_shrinking_angles_converge_euclidean():
    space = euclidean_box()
    x = np.array([0.2, 0.1])
    y = np.array([0.9, 0.3])
    z = np.array([0.1, 0.8])
    angles = shrinking_angles(space, x, y, z)
    exact = math.acos(
        float((y - x) @ (z - x))
        / (np.linalg.norm(y - x) * np.linalg.norm(z - x)))
    assert angles[-1] == pytest.approx(exact, abs=1e-6)


def test_angle_sum_bounded_on_cone():
    space = cone_over_segment(2.0)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y, z = [np.array([rng.uniform(0.1, 1.9), rng.uniform(0.2, 2.0)])
                   for _ in range(3)]
        rep = check_angle_sum(space, x, y, z)
        assert rep["ok"]
        assert rep["sum"] <= 2.0 * math.pi + 1e-6


def test_cauchy_schwarz_residual_on_cone():
    space = cone_over_segment(1.5)
    rng = np.random.default_rng(9)
    worst = math.inf
    for _ in range(60):
        pts = [np.array([rng.uniform(0.1, 1.4), rng.uniform(0.2, 2.0)])
               for _ in range(4)]
        rep = check_cauchy_schwarz_transfer(space, *pts)
        assert rep["ok"]
        worst = min(worst, rep["lhs"] - rep["rhs"])
    assert worst >= -1e-6


def test_midpoint_direction_gap_zero_on_cone():
    space = cone_over_segment(1.5)
    x = np.array([0.3, 1.0])
    y = np.array([1.1, 0.7])
    mid = space.geodesic(x, y, 0.5)
    dm_x = space.distance(mid, x)
    dm_y = space.distance(mid, y)
    assert dm_x == pytest.approx(dm_y, abs=1e-10)
    gap = direction_gap_squared(space, mid, x, y)
    # the two halves continue each other through the midpoint
    assert gap == pytest.approx(0.0, abs=1e-8)


def test_two_dirac_space_matches_closed_form():
    space = two_dirac_space()
    p = (0.0, 1.0)
    q = (0.7, 0.5)
    from hkflow.hk import hk_two_diracs
    assert space.distance(p, q) ** 2 == pytest.approx(
        hk_two_diracs(1.0, 0.5, 0.7), abs=1e-12)
    mid = space.geodesic(p, q, 0.5)
    assert space.distance(p, mid) + space.distance(mid, q) \
        == pytest.approx(space.distance(p, q), abs=1e-10)


def test_semiconcavity_of_squared_distance_euclidean():
    space = euclidean_box()
    p = np.array([0.0, 0.0])
    q = np.array([1.0, 0.5])
    o = np.array([0.3, 0.9])
    # along a Euclidean geodesic, d(.,o)^2 minus its chord equals
    # -t(1-t) d(p,q)^2, so kappa = 2 d(p,q)^2 is exactly critical
    d2 = space.distance(p, q) ** 2
    rep = check_semiconcavity(space, p, q,
                              lambda m: space.distance(m, o) ** 2,
                              kappa=2.0 * d2 + 0.1)
    assert rep["ok"]
    rep_bad = check_semiconcavity(space, p, q,
                                  lambda m: space.distance(m, o) ** 2,
                                  kappa=2.0 * d2 - 0.5)
    assert not rep_bad["ok"]


@given(delta=st.floats(0.05, math.pi - 0.05))
@settings(max_examples=40, deadline=None)
def test_beta_r_endpoint_identities(delta):
    # endpoints: beta(0) = 0, beta(1) = 1, r(0) = r(1) = 1
    assert interpolation_weight(0.0, delta) == pytest.approx(0.0, abs=1e-12)
    assert interpolation_weight(1.0, delta) == pytest.approx(1.0, abs=1e-12)
    assert radius_ratio(0.0, delta) == pytest.approx(1.0, abs=1e-12)
    assert radius_ratio(1.0, delta) == pytest.approx(1.0, abs=1e-12)


@given(t=st.floats(0.0, 1.0), delta=st.floats(0.05, math.pi - 0.05))
@settings(max_examples=40, deadline=None)
def test_beta_symmetry(t, delta):
    # swapping the endpoints swaps the weight: beta(1-t) = 1 - beta(t)
    assert interpolation_weight(1.0 - t, delta) \
        == pytest.approx(1.0 - interpolation_weight(t, delta), abs=1e-10)
    assert radius_ratio(1.0 - t, delta) \
        == pytest.approx(radius_ratio(t, delta), abs=1e-10)


def test_transfer_ratio_above_one_for_large_p():
    for p in (0.5, 0.75, 1.0):
        rep = transfer_ratio_minimum(p, n_t=80, n_delta=80)
        assert not rep["below_one"]
        assert rep["min"] >= 1.0 - 1e-9


def test_transfer_ratio_witness_small_p():
    rep = transfer_ratio_minimum(0.4, n_t=200, n_delta=200)
    assert rep["below_one"]
    t, delta = rep["witness"]
    assert delta > 3.0
    assert transfer_ratio(t, delta, 0.4) < 1.0


def _scan_minimum(f, ts, deltas):
    """The grid minimum of f and its witness as a row-major scan keeps
    them: a later point replaces the witness only when strictly smaller."""
    best, witness = math.inf, None
    for t in ts:
        for d in deltas:
            v = f(float(t), float(d))
            if v < best:
                best, witness = v, (float(t), float(d))
    return best, witness


@pytest.mark.parametrize("p", [0.3, 0.5, 0.75, 1.0])
def test_transfer_checks_match_a_row_major_scan(p):
    # at p >= 1/2 many grid points tie at the minimum; the witness is the
    # first of them, and value, witness and verdict agree to the last bit
    def margin(t, d):
        beta = interpolation_weight(t, d)
        rp = radius_ratio(t, d) ** p
        return min((1.0 - beta) / rp - (1.0 - t), beta / rp - t)

    for n_t, n_d in ((7, 9), (40, 31)):
        worst, witness = _scan_minimum(
            margin, np.linspace(0.005, 0.995, n_t),
            np.linspace(0.01, math.pi - 0.01, n_d))
        est = check_transfer_estimates(p, n_t, n_d)
        assert est["worst_margin"].hex() == worst.hex()
        assert est["witness"] == witness
        assert est["ok"] is (worst >= -1e-12)
        best, witness = _scan_minimum(
            lambda t, d: transfer_ratio(t, d, p), np.linspace(0.01, 1.0, n_t),
            np.linspace(0.01, math.pi - 1e-6, n_d))
        rep = transfer_ratio_minimum(p, n_t, n_d)
        assert rep["min"].hex() == best.hex()
        assert rep["witness"] == witness
        assert rep["below_one"] is (best < 1.0 - 1e-9)
