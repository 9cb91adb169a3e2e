"""Each output checker of the benchmark accepts a consistent output and
rejects a deliberately perturbed one.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import math

import numpy as np
import pytest

import workloads as wl

TAU = 0.005


def test_two_dirac_closed_form():
    closed = wl.two_dirac_closed_form(0.8, 1.2, 0.5)
    assert closed == pytest.approx(2.0 - 2.0 * math.sqrt(0.96)
                                   * math.cos(0.5))
    assert wl.check_two_dirac(closed, 0.8, 1.2, 0.5) == []
    assert wl.check_two_dirac(closed + 1e-4, 0.8, 1.2, 0.5)
    # beyond pi/2 the points exchange no mass: pure growth cost m0 + m1
    assert wl.check_two_dirac(2.0, 0.8, 1.2, 2.0) == []


def test_two_dirac_checker_accepts_the_solver():
    hk = pytest.importorskip("hkflow.hk")
    from hkflow.measures import DiscreteMeasure, GridDomain

    dom = GridDomain((0.0,), (1.0,), (21,))
    w = wl.trapezoid_weights(21, 1)
    a, b = np.zeros(21), np.zeros(21)
    a[4], b[14] = 0.8 / w[4], 1.2 / w[14]
    res = hk.hk_distance_squared(DiscreteMeasure(dom, a),
                                 DiscreteMeasure(dom, b))
    assert wl.check_two_dirac(res.hk_squared, 0.8, 1.2, 0.5) == []


def test_hk_bounds():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.5, 1.5, 10), rng.uniform(0.5, 1.5, 10)
    lower = (math.sqrt(a.sum()) - math.sqrt(b.sum())) ** 2
    upper = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
    assert lower < upper
    assert wl.check_hk_bounds(0.5 * (lower + upper), a, b) == []
    assert wl.check_hk_bounds(upper * 1.01, a, b)
    assert wl.check_hk_bounds(lower - 1e-3, a, b)


def test_distance_inputs():
    w = wl.trapezoid_weights(wl.GRID_2D, 2)
    assert w.sum() == pytest.approx(1.0)
    x = wl.grid_2d()
    for kind, a, b, info in wl.distance_pairs():
        if kind == "smooth":
            assert min(a.min(), b.min()) > 0.35
        else:
            (i,), (j,) = np.nonzero(a), np.nonzero(b)
            assert (a[i] * w[i], b[j] * w[j]) == pytest.approx(
                (info["mass0"], info["mass1"]))
            assert np.linalg.norm(x[i] - x[j]) == pytest.approx(
                info["distance"])


def descent_trajectory():
    """Scalar levels of E(c) = c^2 - c decaying towards 1/2, with step
    distances a quarter of what the descent inequality allows."""
    w = wl.trapezoid_weights(wl.GRID_1D, 1)
    levels = [0.9 - 0.05 * k for k in range(5)]
    dens = [np.full(wl.GRID_1D, c) for c in levels]
    energies = [wl.entropy_value(rho, w) for rho in dens]
    d2 = [0.5 * TAU * (e0 - e1) for e0, e1 in zip(energies, energies[1:])]
    return dens, d2, w


def test_descent_accepts_and_rejects_energy_increase():
    dens, d2, w = descent_trajectory()
    assert wl.check_descent(dens, d2, TAU, w) == []
    bumped = list(dens)
    bumped[3] = dens[1]          # energy rises back at step 3
    assert wl.check_descent(bumped, d2, TAU, w)
    longer = list(d2)
    longer[2] *= 5.0             # step longer than the energy drop pays for
    assert wl.check_descent(dens, longer, TAU, w)


def test_unit_mass():
    w = wl.trapezoid_weights(wl.GRID_1D, 1)
    ones = [np.ones(wl.GRID_1D)] * 3
    assert wl.check_unit_mass(ones, w) == []
    assert wl.check_unit_mass(ones + [np.full(wl.GRID_1D, 1.001)], w)


def evi_output():
    """Residual table and summary in the layout of evi-check (lambda = 0,
    lambda* = -2, kappa = 0)."""
    times = TAU * np.arange(4)
    d2 = np.array([0.02, 0.015, 0.011, 0.008])
    rows = []
    for i in range(4):
        for j in range(i, 4):
            r_lam = 0.5 * (d2[j] - d2[i]) - 0.1 * (times[j] - times[i])
            r_star = r_lam - float(np.sum(d2[i:j])) * TAU
            rows.append({"s": times[i], "t": times[j], "observer_id": 0.0,
                         "residual_lambda_star": r_star,
                         "residual_lambda": r_lam})
    off = [r for r in rows if r["t"] > r["s"]]
    d2_01 = 1e-5
    summary = {
        "worst_residual_lambda_star": max(r["residual_lambda_star"]
                                          for r in off),
        "worst_residual_lambda": max(r["residual_lambda"] for r in off),
        "budget_l1": 0.5 * 4.0 * d2_01 / TAU,
        "budget_bound": 4.0 * d2_01 / TAU,
        "budget_bound_holds": True,
        "slope_surrogate": math.sqrt(d2_01) / TAU,
    }
    return summary, rows, d2_01


def test_evi_accepts_consistent_output():
    summary, rows, d2_01 = evi_output()
    assert wl.check_evi(summary, rows, TAU, d2_01) == []


@pytest.mark.parametrize("perturb", [
    "star_above_lambda", "worst_misreported", "residual_too_large",
    "bound_misreported", "budget_exceeded"])
def test_evi_rejects_perturbed_output(perturb):
    summary, rows, d2_01 = evi_output()
    summary, rows = copy.deepcopy(summary), copy.deepcopy(rows)
    if perturb == "star_above_lambda":
        rows[1]["residual_lambda_star"] = rows[1]["residual_lambda"] + 1e-6
    elif perturb == "worst_misreported":
        summary["worst_residual_lambda"] -= 1e-3
    elif perturb == "residual_too_large":
        big = 5.0 * math.sqrt(TAU)
        rows[2]["residual_lambda"] = rows[2]["residual_lambda_star"] = big
        summary["worst_residual_lambda"] = big
        summary["worst_residual_lambda_star"] = big
    elif perturb == "bound_misreported":
        summary["budget_bound"] *= 2.0
    else:
        summary["budget_l1"] = 1.5 * summary["budget_bound"]
    assert wl.check_evi(summary, rows, TAU, d2_01)


def convergence_rows():
    return [{"tau": 0.02, "sup_gap": 0.03, "evi_worst_residual": 0.01},
            {"tau": 0.01, "sup_gap": 0.02, "evi_worst_residual": 0.01}]


def test_convergence_accepts_shrinking_gap():
    assert wl.check_convergence(convergence_rows()) == []


@pytest.mark.parametrize("key, index, value", [
    ("sup_gap", 1, 0.04),                 # growing sup-gap
    ("sup_gap", 0, 0.0),                  # no gap at all
    ("evi_worst_residual", 1, 0.5),       # above 4 sqrt(tau) = 0.4
    ("tau", 1, 0.005),                    # a tau row missing
])
def test_convergence_rejects_perturbed_output(key, index, value):
    rows = convergence_rows()
    rows[index][key] = value
    assert wl.check_convergence(rows)
