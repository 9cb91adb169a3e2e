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
    c = np.linspace(0.0, 4.0, 33)
    E = table_entropy(c, c**2 - c, recession_slope=math.inf)
    assert E(1.7) == pytest.approx(1.7**2 - 1.7, abs=2e-2)
    assert E.derivative(2.0) == pytest.approx(3.0, abs=2e-2)
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
    # E = c^2 - c satisfies the joint convexity test with lam = -2 in 1d
    E = quadratic_entropy()
    rep = check_NE_conditions(E, lam=-2.0, d=1)
    assert rep["convex"] and rep["monotone"]
    # an aggressively positive lam must fail for the same entropy
    rep_bad = check_NE_conditions(E, lam=50.0, d=1)
    assert not rep_bad["convex"]


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
              zero_entropy(), table_entropy([0.0, 1.0, 2.0], [0.0, 1.0, 4.0],
                                            recession_slope=math.inf)):
        assert E.conjugate is None
