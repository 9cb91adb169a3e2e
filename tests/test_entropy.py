import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.entropy import (check_NE_conditions, entropy_from_json,
                            eval_functional, eval_limit_functional,
                            find_c_low, linear_entropy, neg_power_entropy,
                            power_mass_entropy, table_entropy, zero_entropy)
from hkflow.measures import uniform_measure, unit_interval


def quadratic_entropy():
    """E(c) = c^2 - c: superlinear, strictly convex, negative-slope at 0."""
    return power_mass_entropy(1.0, 2.0, -1.0)


def test_quadratic_values():
    E = quadratic_entropy()
    assert E(0.0) == pytest.approx(0.0)
    assert E(2.0) == pytest.approx(2.0)
    assert E.derivative(1.5) == pytest.approx(2.0)
    assert E.second_derivative(3.0) == pytest.approx(2.0)
    assert math.isinf(E.recession_slope)
    # half the derivative root 2c - 1 = 0, a strict witness of E' < 0
    assert E.c_low == pytest.approx(0.25)
    assert E.derivative(E.c_low) < 0


def test_power_mass_c_low_formula():
    # witness at half the root of E'(c) = alpha m c^(m-1) + gamma
    E = power_mass_entropy(2.0, 3.0, -1.5)
    root = (1.5 / 6.0) ** 0.5
    assert E.c_low == pytest.approx(0.5 * root)
    assert abs(E.derivative(root)) < 1e-12
    assert E.derivative(E.c_low) < 0


def test_power_mass_nonneg_gamma_has_no_c_low():
    assert power_mass_entropy(1.0, 2.0, 0.5).c_low is None


def test_neg_power_entropy():
    # E(c) = -beta c^q: decreasing, convex, zero recession slope
    E = neg_power_entropy(0.5, 2.0)
    assert E(4.0) == pytest.approx(-4.0)
    assert E.derivative(1.0) == pytest.approx(-1.0)
    assert E.second_derivative(1.0) == pytest.approx(0.5)
    assert E.recession_slope == pytest.approx(0.0)
    assert E.c_low == pytest.approx(1.0)


def test_linear_entropy():
    E = linear_entropy(-2.0)
    assert E(3.0) == pytest.approx(-6.0)
    assert E.derivative(10.0) == pytest.approx(-2.0)
    assert E.recession_slope == pytest.approx(-2.0)


def test_zero_entropy():
    E = zero_entropy()
    c = np.linspace(0.0, 5.0, 11)
    assert np.all(E(c) == 0.0)
    assert E.recession_slope == 0.0


def test_validate_accepts_convex_rejects_concave():
    quadratic_entropy().validate()
    bad = table_entropy([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.5, 1.6],
                        recession_slope=0.05)
    with pytest.raises(ValueError):
        bad.validate(np.linspace(0.1, 2.9, 40))


def test_table_entropy_interpolates():
    # the spline of quadratic samples is the quadratic itself
    c = np.linspace(0.0, 4.0, 33)
    E = table_entropy(c, c**2 - c, recession_slope=math.inf)
    x = np.linspace(0.0, 4.0, 1001)
    assert np.allclose(E(x), x**2 - x, rtol=0.0, atol=1e-12)
    assert np.allclose(E.derivative(x), 2.0 * x - 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(E.second_derivative(x), 2.0, rtol=1e-12, atol=0.0)
    assert E(np.asarray(c[5])) == pytest.approx(c[5]**2 - c[5], abs=1e-12)


def test_entropy_from_json_families():
    Eq = entropy_from_json({"family": "power_mass", "alpha": 1.0,
                            "m": 2.0, "gamma": -1.0})
    assert Eq(2.0) == pytest.approx(2.0)
    En = entropy_from_json({"family": "neg_power", "q": 0.5, "beta": 1.0})
    assert En(1.0) == pytest.approx(-1.0)
    El = entropy_from_json({"family": "linear", "gamma": -3.0})
    assert El(2.0) == pytest.approx(-6.0)
    Ez = entropy_from_json({"family": "zero"})
    assert Ez(7.0) == 0.0
    with pytest.raises(ValueError):
        entropy_from_json({"family": "nope"})


@pytest.mark.parametrize("spec, path", [
    ({"family": "power_mass", "alhpa": 5.0}, "entropy.alhpa"),
    ({"family": "zero", "gamma": 0.0}, "entropy.gamma"),
    ({"family": "custom_table", "c": [0.0, 1.0], "E": [0.0, 1.0]},
     "entropy.recession_slope"),
    ({"family": "neg_power", "q": "0.5"}, "entropy.q"),
    ({"alpha": 1.0}, "entropy.family"),
    # a declared convexity modulus that no code read
    ({"family": "custom_table", "c": [0.0, 1.0], "E": [0.0, 1.0],
      "recession_slope": 1.0, "lambda": 0.0}, "entropy.lambda"),
    # malformed tables: unsorted or repeated c, or fewer E than c
    ({"family": "custom_table", "c": [0.0, 2.0, 1.0], "E": [0.0, 1.0, 2.0],
      "recession_slope": 5.0}, "entropy: c must be 2 or more increasing"),
    ({"family": "custom_table", "c": [0.0, 1.0, 1.0], "E": [0.0, 1.0, 2.0],
      "recession_slope": 5.0}, "entropy: c must be 2 or more increasing"),
    ({"family": "custom_table", "c": [0.0, 1.0, 2.0], "E": [0.0, 1.0],
      "recession_slope": 5.0}, "entropy: c must be 2 or more increasing"),
])
def test_entropy_from_json_rejects_bad_fields(spec, path):
    with pytest.raises(ValueError, match=path.replace(".", r"\.")):
        entropy_from_json(spec)


def test_eval_functional_uniform():
    dom = unit_interval(17)
    mu = uniform_measure(dom, 2.0)
    E = quadratic_entropy()
    # integral of E(2) = 2 over the unit interval
    assert eval_functional(E, mu) == pytest.approx(2.0)


def test_eval_functional_singular_part():
    dom = unit_interval(9)
    mu = uniform_measure(dom, 1.0)
    En = neg_power_entropy(0.5, 1.0)
    base = eval_functional(En, mu)
    assert eval_functional(En, mu, singular_mass=3.0) == pytest.approx(base)
    E = quadratic_entropy()  # infinite recession slope
    assert math.isinf(eval_functional(E, mu, singular_mass=1.0))
    with pytest.raises(ValueError):
        eval_functional(E, mu, singular_mass=-1.0)


def test_eval_limit_functional():
    dom = unit_interval(9)
    mu = uniform_measure(dom, 0.5)
    assert eval_limit_functional(-2.0, mu) == pytest.approx(-1.0)
    over = uniform_measure(dom, 1.5)
    assert math.isinf(eval_limit_functional(-2.0, over))


def test_find_c_low_returns_negative_slope_witness():
    E = quadratic_entropy()
    c = find_c_low(E)
    assert c is not None and c < 0.5
    assert E.derivative(c) < 0
    assert find_c_low(power_mass_entropy(1.0, 2.0, 0.5)) is None


@given(alpha=st.floats(0.5, 2.0), m=st.floats(1.5, 3.0),
       gamma=st.floats(-2.0, -0.1))
@settings(max_examples=25, deadline=None)
def test_c_low_is_strict_witness(alpha, m, gamma):
    E = power_mass_entropy(alpha, m, gamma)
    assert E.derivative(E.c_low) < 0


def test_NE_conditions_quadratic():
    # E = c^2 - c satisfies the joint convexity test with lam = -2, and an
    # aggressively positive lam fails it, in d = 1 and d = 2; only d >= 2
    # checks that N does not increase in rho
    E = quadratic_entropy()
    for d in (1, 2):
        rep = check_NE_conditions(E, lam=-2.0, d=d)
        assert rep["convex"] and rep["monotone"]
        assert math.isfinite(rep["worst_monotone"]) == (d >= 2)
        assert not check_NE_conditions(E, lam=50.0, d=d)["convex"]
    # c^3 at lam = 0 is certified in d = 1; in d = 2 it stays monotone but
    # fails convexity by far (worst eigenvalue about -7.5e12)
    cube = power_mass_entropy(1.0, 3.0, 0.0)
    assert check_NE_conditions(cube, lam=0.0, d=1)["convex"]
    rep = check_NE_conditions(cube, lam=0.0, d=2)
    assert rep["monotone"] and not rep["convex"]
    assert rep["worst_hessian_eig"] < -1e12
    # -sqrt(c) at lam = 0 is certified in d = 2
    rep = check_NE_conditions(neg_power_entropy(0.5, 1.0), lam=0.0, d=2)
    assert rep["convex"] and rep["monotone"]


def test_closed_form_conjugates():
    # E*(p) = p rho - E(rho) at rho = E*'(p), and E*'' = 1 / E''(rho)
    for E, p in ((power_mass_entropy(1.0, 2.0, -1.0), np.linspace(-0.5, 3, 9)),
                 (power_mass_entropy(1.5, 2.7, 0.3), np.linspace(0.4, 3, 9)),
                 (neg_power_entropy(0.5, 1.0), np.linspace(-3, -0.1, 9))):
        rho, estar, curv = E.conjugate(p)
        assert np.allclose(estar, p * rho - E(rho), atol=1e-14)
        inside = rho > 0
        assert np.allclose(E.derivative(rho[inside]), p[inside], atol=1e-12)
        assert np.allclose(curv[inside] * E.second_derivative(rho[inside]),
                           1.0, atol=1e-12)
    # outside its domain the neg_power conjugate is +inf
    assert np.all(np.isinf(neg_power_entropy(0.5, 1.0).conjugate(
        np.array([0.0, 1.0]))[1]))
    for E in (neg_power_entropy(0.5, 0.0), linear_entropy(-1.0),
              zero_entropy()):
        assert E.conjugate is None


@pytest.mark.parametrize("samples, slope", [
    (lambda c: c * c - c, math.inf), (lambda c: -20.0 * np.sqrt(c), 0.0),
    (lambda c: c * c - c + 0.3 * np.sin(6.0 * c), 20.0)])
def test_table_conjugate_is_the_sup_over_the_table(samples, slope):
    # E*(p) = sup of p c - E(c) over c >= 0, against a brute-force sup over
    # [0, c_max]: a 3e5-point grid, refined around its best point.  Below
    # the recession slope the line above c_max cannot win.  The wavy
    # spline is not convex (E'' reaches -19).
    c = np.linspace(0.0, 3.0, 31)
    E = table_entropy(c, samples(c), recession_slope=slope)
    lo, hi = float(E.derivative(0.0)), float(E.derivative(3.0))
    # below E'(0), across the range of E', above E'(c_max)
    p = np.concatenate([lo - np.array([5.0, 0.5]), np.linspace(lo, hi, 23),
                        hi + np.array([0.5, 5.0])])
    rho, estar, curv = E.conjugate(p)
    grid = np.linspace(0.0, 3.0, 300001)
    e_grid = E(grid)
    for pk, rk, ek, ck in zip(p, rho, estar, curv):
        k = int(np.argmax(pk * grid - e_grid))
        fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)],
                           2001)
        assert ek == pytest.approx(float(np.max(pk * fine - E(fine))),
                                   abs=1e-10)
        assert ek == pytest.approx(pk * rk - float(E(rk)), abs=1e-12)
        assert 0.0 <= rk <= 3.0
        if rk in (0.0, 3.0):
            assert ck == 0.0
        else:
            assert ck * float(E.second_derivative(rk)) == pytest.approx(1.0)
    # below E'(0) the sup sits at 0, above E'(c_max) at c_max
    assert rho[0] == 0.0 and rho[-1] == 3.0
    if slope == 0.0:
        # above the recession slope the flat line beyond c_max makes it +inf
        assert np.all(np.isinf(E.conjugate(np.array([1e-9, 2.0]))[1]))


@pytest.mark.parametrize("samples, slope", [
    ([0.0, 1.0, 2.0, 3.0], -0.5),
    (np.linspace(0.0, 3.0, 31), math.inf)])
def test_table_conjugate_rounds_each_kink(samples, slope):
    # E = -c / 2 (rho jumps from 0 to +inf at p = -1/2) and a wavy table
    # (rho jumps across each bridge of its hull): with delta > 0 the
    # conjugate is C^1 and convex, with rho = dE*/dp, and it keeps the
    # exact E* outside windows of width delta times each jump
    c = np.asarray(samples, dtype=float)
    E = table_entropy(c, -0.5 * c if slope == -0.5
                      else c * c - c + 0.3 * np.sin(6.0 * c), slope)
    delta = 1e-2
    p = np.linspace(-1.5, 6.5, 40001)
    exact = E.conjugate(p)
    rho, estar, curv = E.conjugate(p, delta)
    assert np.all(np.diff(rho) >= -1e-12) and np.all(curv >= 0.0)
    dp = np.diff(p)
    gap = np.diff(estar) - 0.5 * (rho[1:] + rho[:-1]) * dp
    assert np.all(np.abs(gap) <= dp * dp * curv.max())
    same = np.isclose(estar, exact[1], rtol=0.0, atol=1e-13)
    assert same[np.isfinite(exact[1])].mean() > 0.5
    assert np.array_equal(rho[same & (curv < 1.0 / delta)],
                          exact[0][same & (curv < 1.0 / delta)])
    if slope == -0.5:
        above = p > -0.5
        assert np.allclose(rho[above], (p[above] + 0.5) / delta)


def test_table_continues_with_its_recession_slope():
    # above c_max E follows the line of slope r; r = +inf makes it +inf,
    # and an r below the end slope E'(c_max) cannot be a recession slope
    c = np.linspace(0.0, 3.0, 31)
    E = table_entropy(c, c * c - c, recession_slope=5.0)
    assert E(4.0) == pytest.approx(6.0 + 5.0) and E.derivative(4.0) == 5.0
    assert E.second_derivative(4.0) == 0.0
    walled = table_entropy(c, c * c - c, recession_slope=math.inf)
    assert math.isinf(walled(3.5))
    walled.validate()
    dom = unit_interval(9)
    assert math.isinf(eval_functional(walled, uniform_measure(dom, 4.0)))
    with pytest.raises(ValueError, match="end slope"):
        table_entropy(c, c * c - c, recession_slope=0.0)
    with pytest.raises(ValueError, match="entropy: recession_slope"):
        entropy_from_json({"family": "custom_table", "c": c.tolist(),
                           "E": (c * c - c).tolist(), "recession_slope": 4.0})
