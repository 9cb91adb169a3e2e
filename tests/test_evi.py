import math

import numpy as np
import pytest

import hkflow.evi
import hkflow.mm
from hkflow.entropy import eval_functional, power_mass_entropy
from hkflow.evi import (contraction_check, convergence_study,
                        default_observers, direction_gap_surrogates,
                        distances_squared_along, error_budget, evi_check,
                        evi_residual_matrix, interpolate_constant_left,
                        lambda_star, step_counts)
from hkflow.hk import hk_distance_squared, shk_from_hk_squared
from hkflow.measures import DiscreteMeasure, uniform_measure, unit_interval
from hkflow.mm import MMTrajectory, check_density_bounds, mm_trajectory

from conftest import sinusoid_measure, unconverged


def quadratic_entropy():
    return power_mass_entropy(1.0, 2.0, -1.0)


def test_lambda_star():
    assert lambda_star(-2.0) == pytest.approx(-6.0)
    assert lambda_star(0.0) == pytest.approx(-2.0)
    assert lambda_star(3.0) == pytest.approx(-2.0)


def test_residual_matrix_additive():
    times = np.array([0.0, 0.1, 0.2, 0.3])
    rng = np.random.default_rng(1)
    phis = rng.normal(size=4)
    d2 = rng.uniform(0.1, 1.0, size=4)
    R = evi_residual_matrix(times, phis, d2, phi_obs=0.3, lam=-2.0)
    # diagonal vanishes, entries add along the time axis
    assert np.allclose(np.diag(R), 0.0)
    assert R[0, 3] == pytest.approx(R[0, 1] + R[1, 3], abs=1e-12)
    assert R[0, 2] == pytest.approx(R[0, 1] + R[1, 2], abs=1e-12)


def test_stationary_trajectory_residual_zero(interval33):
    # the entropy minimizer stays put; every residual reduces to
    # -(t - s) (phi(obs) - phi(min)) - lam/2 d^2 terms <= 0, and for the
    # minimizer itself as observer it is exactly zero
    E = quadratic_entropy()
    mu = uniform_measure(interval33, 0.5)
    traj = MMTrajectory(0.05, [mu] * 5, [0.0] * 4, "hk", E)
    rep = evi_check(traj, lam=-2.0, observers=[mu])
    assert abs(rep.worst_residual) <= 1e-8


def test_evi_residuals_negative_on_flow(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.5)
    traj = mm_trajectory(mu0, 0.02, 5, E, metric="hk")
    rep = evi_check(traj, lam=-2.0)
    assert rep.worst_residual <= 1e-6
    # the corrected parameter is the weaker requirement
    assert rep.worst_residual <= rep.worst_residual_lambda + 1e-12


def test_hk_default_observer_distances_match_direct_solves(monkeypatch,
                                                          interval33):
    # the HK default observers s^2 x0 get their distances from one chain to
    # x0 through the dilation identity, not from a chain each
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.5)
    traj = mm_trajectory(mu0, 0.02, 5, E, metric="hk")
    metrics = []

    def spy(measures, others, metric="hk"):
        metrics.append(metric)
        return distances_squared_along(measures, others, metric)

    monkeypatch.setattr(hkflow.evi, "distances_squared_along", spy)
    rep = evi_check(traj, lam=-2.0)
    error_budget(traj, kappa=2.0, lam=-2.0)
    assert metrics == ["hk"] * 2  # one observer chain, then the skips
    for k, obs in enumerate(default_observers(mu0)):
        d2 = distances_squared_along(traj.measures, obs)
        for lam, mats in ((lambda_star(-2.0), rep.residuals_lambda_star),
                          (-2.0, rep.residuals_lambda)):
            R = evi_residual_matrix(traj.times, traj.energy(), d2,
                                    eval_functional(E, obs), lam)
            np.testing.assert_allclose(mats[k], R, rtol=0.0, atol=1e-10)


def test_residual_shrinks_with_tau(interval33):
    # data strong enough that the residual signal dominates solver noise
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.5)
    worsts = []
    for tau in (0.08, 0.04):
        n = int(round(0.16 / tau))
        traj = mm_trajectory(mu0, tau, n, E, metric="hk")
        rep = evi_check(traj, lam=-2.0)
        assert rep.worst_residual <= 1e-6
        worsts.append(abs(rep.worst_residual))
    assert worsts[0] / worsts[1] >= 1.2


def test_error_budget_l1_bound(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    traj = mm_trajectory(mu0, 0.02, 5, E, metric="hk")
    budget = error_budget(traj, kappa=2.0, lam=-2.0)
    assert budget.bound_holds
    assert np.all(budget.deltas >= 0.0)
    with pytest.raises(ValueError):
        error_budget(traj, kappa=2.0, lam=-60.0)


def test_direction_gap_surrogates_of_a_hand_built_sequence():
    # 2 d2(n, n-1) + 2 d2(n, n+1) - d2(n-1, n+1) at each interior iterate:
    # 0 where the path runs straight on, 10 where it turns back, and the
    # negative value at the last iterate clamped at 0
    d2_steps = np.array([1.0, 1.0, 4.0, 1.0])
    d2_skips = np.array([4.0, 0.0, 13.0])
    gaps = direction_gap_surrogates(d2_steps, d2_skips)
    assert gaps.tolist() == [0.0, 10.0, 0.0]


def test_contraction_identical_trajectories(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    traj = mm_trajectory(mu0, 0.02, 4, E, metric="hk")
    budget = error_budget(traj, kappa=2.0, lam=-2.0)
    rep = contraction_check(traj, traj, lam=-2.0, budget_a=budget,
                            budget_b=budget)
    assert rep.ok
    # self-distances are solver noise only
    assert np.max(rep.distances) <= 1e-4
    assert np.all(rep.lhs <= rep.rhs + 1e-9)


def test_contraction_perturbed_trajectories(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    mu1 = sinusoid_measure(interval33, base=0.52, amplitude=0.08)
    traj_a = mm_trajectory(mu0, 0.02, 4, E, metric="hk")
    traj_b = mm_trajectory(mu1, 0.02, 4, E, metric="hk")
    ba = error_budget(traj_a, kappa=2.0, lam=-2.0)
    bb = error_budget(traj_b, kappa=2.0, lam=-2.0)
    rep = contraction_check(traj_a, traj_b, lam=-2.0, budget_a=ba,
                            budget_b=bb)
    assert rep.ok


def test_interpolant_left_constant(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    traj = mm_trajectory(mu0, 0.1, 3, E)
    assert interpolate_constant_left(traj, 0.0) is traj.measures[0]
    assert interpolate_constant_left(traj, 0.15) is traj.measures[1]
    assert interpolate_constant_left(traj, 5.0) is traj.measures[3]


def test_convergence_study_rows(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    rows = convergence_study(mu0, E, "hk", [0.04, 0.02], T=0.08)
    assert len(rows) == 1
    assert rows[0]["tau"] == pytest.approx(0.04)
    assert rows[0]["tau_next"] == pytest.approx(0.02)
    assert rows[0]["sup_gap"] >= 0.0


def _cold_d2(mu0, mu1, metric):
    d2 = hk_distance_squared(mu0, mu1).hk_squared
    return d2 if metric == "hk" else shk_from_hk_squared(d2) ** 2


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_warm_distances_match_cold(interval17, metric):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval17, base=0.8, amplitude=0.5)
    mu1 = sinusoid_measure(interval17, base=0.9, amplitude=0.3, frequency=2)
    if metric == "shk":
        mu0 = DiscreteMeasure(interval17, mu0.density / mu0.mass)
        mu1 = DiscreteMeasure(interval17, mu1.density / mu1.mass)
    traj_a = mm_trajectory(mu0, 0.02, 4, E, metric=metric)
    traj_b = mm_trajectory(mu1, 0.02, 4, E, metric=metric)
    obs = default_observers(mu0, metric)[0]
    fixed = distances_squared_along(traj_a.measures, obs, metric)
    paired = distances_squared_along(traj_a.measures, traj_b.measures, metric)
    assert np.allclose(fixed, [_cold_d2(m, obs, metric)
                               for m in traj_a.measures], rtol=0, atol=1e-10)
    assert np.allclose(paired, [_cold_d2(ma, mb, metric) for ma, mb in
                                zip(traj_a.measures, traj_b.measures)],
                       rtol=0, atol=1e-10)
    with pytest.raises(ValueError):
        distances_squared_along(traj_a.measures, traj_b.measures[1:], metric)
    with pytest.raises(ValueError, match="unknown metric"):
        distances_squared_along(traj_a.measures, obs, metric.upper())


def test_error_budget_matches_cold_distances(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.5)
    tau, kappa, lam = 0.02, 2.0, -2.0
    traj = mm_trajectory(mu0, tau, 5, E, metric="hk")
    ms = traj.measures
    steps = np.array([_cold_d2(ms[k], ms[k + 1], "hk")
                      for k in range(len(ms) - 1)])
    skips = np.array([_cold_d2(ms[k - 1], ms[k + 1], "hk")
                      for k in range(1, len(ms) - 1)])
    slope = math.sqrt(steps[0]) / tau
    expected = np.empty_like(steps)
    expected[0] = ((1.0 - 2.0 * lam) * steps[0]
                   + (1.0 + 1.0 / (1.0 + lam * tau)) * slope ** 2)
    gaps = np.maximum(2.0 * steps[:-1] + 2.0 * steps[1:] - skips, 0.0)
    expected[1:] = np.maximum((1.0 - 2.0 * lam + kappa / tau) * steps[1:]
                              + gaps / tau ** 2, 0.0)
    budget = error_budget(traj, kappa=kappa, lam=lam)
    assert np.allclose(budget.deltas, expected, rtol=1e-6, atol=0.0)


def test_unconverged_verification_distance_raises(interval17, monkeypatch):
    monkeypatch.setattr(hkflow.evi, "hk_distance_squared",
                        unconverged(hkflow.evi.hk_distance_squared))
    mu0 = sinusoid_measure(interval17)
    mu1 = sinusoid_measure(interval17, base=0.6, amplitude=0.2)
    with pytest.raises(RuntimeError, match="pair 0 .*marginal error"):
        distances_squared_along([mu0, mu1], mu1)


def _unit_mass(measure):
    return DiscreteMeasure(measure.domain, measure.density / measure.mass)


def test_shk_checks_read_the_trajectory_metric(monkeypatch, interval33):
    # no metric is passed: evi_check, error_budget and check_density_bounds
    # must take the spherical one from the trajectory
    E = quadratic_entropy()
    mu0 = _unit_mass(sinusoid_measure(interval33, base=1.0, amplitude=0.3))
    traj = mm_trajectory(mu0, 0.02, 4, E, metric="shk")
    metrics = []

    def spy(measures, others, metric="hk"):
        metrics.append(metric)
        return distances_squared_along(measures, others, metric)

    monkeypatch.setattr(hkflow.evi, "distances_squared_along", spy)
    rep = evi_check(traj, lam=-2.0)
    error_budget(traj, kappa=2.0, lam=-2.0)
    assert metrics == ["shk"] * 4  # three observers, then the skips
    worst = -math.inf
    for obs in default_observers(mu0, "shk"):
        d2 = distances_squared_along(traj.measures, obs, "shk")
        R = evi_residual_matrix(traj.times, traj.energy(), d2,
                                eval_functional(E, obs), lambda_star(-2.0))
        worst = max(worst, float(np.max(R[np.triu_indices(R.shape[0], 1)])))
    assert rep.worst_residual == worst
    bounds = check_density_bounds(traj)
    dens = traj.densities()
    assert bounds["ok"]
    assert [r["upper"] for r in bounds["steps"]] == [
        float(np.max(x)) for x in dens[:-1]]
    assert [r["lower"] for r in bounds["steps"]] == [
        float(np.min(x)) for x in dens[:-1]]


def test_contraction_of_different_metrics_raises(interval17):
    E = quadratic_entropy()
    mu0 = _unit_mass(sinusoid_measure(interval17, base=1.0, amplitude=0.3))
    hk = mm_trajectory(mu0, 0.02, 2, E, metric="hk")
    shk = mm_trajectory(mu0, 0.02, 2, E, metric="shk")
    budgets = [error_budget(t, kappa=2.0, lam=-2.0) for t in (hk, shk)]
    with pytest.raises(ValueError, match="different metrics"):
        contraction_check(hk, shk, -2.0, *budgets)



def test_convergence_study_distance_newton_count(interval33, monkeypatch):
    # the convergence-study verb on the benchmark's SHK setting: the study,
    # then the EVI check of each row.  Warm distance starts far from their
    # solution are handed to the cold schedule at their first Newton step
    # (hk.WARM_MISMATCH); burning the final level's 60 iterations first
    # made 1901.  Opening each eps-level from the line through the last two
    # levels' potentials took it from 1448 to 1102.  The count is the same
    # on every machine with one BLAS thread, as CI runs.
    counts = []

    def counted(solve):
        def wrapped(*args, **kw):
            res = solve(*args, **kw)
            counts.append(res.iterations)
            return res
        return wrapped

    for module in (hkflow.evi, hkflow.mm):
        monkeypatch.setattr(module, "hk_distance_squared",
                            counted(module.hk_distance_squared))
    mu = sinusoid_measure(interval33, base=0.8, amplitude=0.2)
    mu0 = DiscreteMeasure(interval33, mu.density / mu.mass)
    for row in convergence_study(mu0, quadratic_entropy(), "shk",
                                 (0.02, 0.01, 0.005), 0.04):
        evi_check(row["trajectory"], 0.0)
    assert len(counts) == 52
    assert sum(counts) <= 1250


def test_step_counts_accept_rounded_ratios():
    # 0.3 / 0.1 is 2.9999999999999996 in floating point
    assert step_counts(0.3, [0.1, 0.05]) == [3, 6]
    assert step_counts(0.04, [0.02, 0.01, 0.005]) == [2, 4, 8]

