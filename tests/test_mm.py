import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkflow.mm
from hkflow.entropy import (eval_functional, linear_entropy,
                            neg_power_entropy, power_mass_entropy,
                            table_entropy)
from hkflow.hk import DEFAULT_EPS_SCHEDULE, NEWTON_MAX_ITER
from hkflow.measures import DiscreteMeasure, uniform_measure, unit_interval
from hkflow.mm import (check_density_bounds, iterate_lower_bound,
                       iterate_sqrt_growth_bound, iterate_upper_bound,
                       mm_step, mm_trajectory, plan_density_violation,
                       restart_agreement, scalar_lower_bound, scalar_mm_step,
                       scalar_shk_mm_step, scalar_step_monotonicity,
                       scalar_upper_bound, shk_mm_step)

from conftest import sinusoid_measure, unconverged


def quadratic_entropy():
    return power_mass_entropy(1.0, 2.0, -1.0)


def test_scalar_step_optimality():
    # c1 satisfies 1 - sqrt(c0/c1) + 2 tau E'(c1) = 0
    E = quadratic_entropy()
    c0, tau = 0.8, 0.05
    c1 = scalar_mm_step(c0, tau, E)
    res = 1.0 - math.sqrt(c0 / c1) + 2.0 * tau * float(E.derivative(c1))
    assert abs(res) < 1e-9


def test_scalar_shk_step_is_identity():
    E = quadratic_entropy()
    assert scalar_shk_mm_step(0.37, 0.05, E) == pytest.approx(0.37)


@given(c0=st.floats(0.05, 5.0), tau=st.floats(1e-3, 0.2),
       gamma=st.floats(-2.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_scalar_bounds_d1_to_d4(c0, tau, gamma):
    E = power_mass_entropy(1.0, 2.0, gamma)
    c1 = scalar_mm_step(c0, tau, E)
    # (D1)/(D2): the step moves monotonically toward the derivative root
    mono = scalar_step_monotonicity(c0, c1, tau, E)
    assert mono["decreases_iff_derivative_nonneg"]
    assert mono["increases_iff_derivative_nonpos"]
    # (D3)/(D4): explicit envelope bounds seeded at the input level
    assert c1 >= scalar_lower_bound(c0, tau, E, c0) - 1e-9
    assert c1 <= scalar_upper_bound(c0, tau, E, c0) + 1e-9


def test_scalar_step_fixed_point_at_root():
    # E'(c) = 2c - 1 vanishes at c = 1/2: the step keeps it fixed
    E = quadratic_entropy()
    assert scalar_mm_step(0.5, 0.08, E) == pytest.approx(0.5, abs=1e-10)


def test_scalar_step_decreasing_entropy_family():
    # E' < 0 everywhere: mass can only grow
    E = neg_power_entropy(0.5, 1.0)
    c1 = scalar_mm_step(0.7, 0.05, E)
    assert c1 > 0.7


def test_mm_step_decreases_objective(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    res = mm_step(mu0, 0.05, E)
    assert res.converged
    # objective at the minimizer is at most the stay-put value E(mu0)
    assert res.objective <= eval_functional(E, mu0) + 1e-9
    assert res.distance_squared >= 0.0
    assert eval_functional(E, res.measure) <= eval_functional(E, mu0) + 1e-9


def test_mm_step_stationary_at_entropy_minimizer(interval33):
    E = quadratic_entropy()
    mu0 = uniform_measure(interval33, 0.5)  # E' = 0 here
    res = mm_step(mu0, 0.05, E)
    assert np.max(np.abs(res.measure.density - 0.5)) < 1e-5


def test_uniform_data_matches_scalar_recursion(interval33):
    E = quadratic_entropy()
    tau = 0.05
    c = 0.8
    mu = uniform_measure(interval33, c)
    traj = mm_trajectory(mu, tau, 5, E, metric="hk")
    for k in range(1, 6):
        c = scalar_mm_step(c, tau, E)
        rho = traj.measures[k].density
        assert float(np.max(np.abs(rho - c))) <= 1e-4 * c


def test_uniform_data_constant_under_shk(interval33):
    E = quadratic_entropy()
    mu = uniform_measure(interval33, 1.0)
    traj = mm_trajectory(mu, 0.05, 3, E, metric="shk")
    for m in traj.measures:
        assert float(np.max(np.abs(m.density - 1.0))) <= 1e-6


def test_shk_trajectory_extremes_nested(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=1.0, amplitude=0.3)
    prob = DiscreteMeasure(interval33, mu0.density / mu0.mass)
    traj = mm_trajectory(prob, 0.02, 6, E, metric="shk")
    rep = check_density_bounds(traj, E, metric="shk", slack=1e-6)
    assert rep["ok"]


def test_hk_trajectory_density_bounds(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    traj = mm_trajectory(mu0, 0.05, 6, E, metric="hk")
    rep = check_density_bounds(traj, E, slack=1e-6)
    assert rep["ok"]
    # global envelope: never below min(initial min, c_low)
    floor = iterate_lower_bound(float(np.min(mu0.density)), E.c_low)
    assert all(float(np.min(m.density)) >= floor - 1e-6
               for m in traj.measures)


def test_iterated_bound_formulas():
    # growth envelope: rho_max * exp(8 max(-S, 0) k tau)
    E = quadratic_entropy()
    up0 = iterate_upper_bound(0.6, 0, 0.05, E)
    assert up0 == pytest.approx(0.6)
    up3 = iterate_upper_bound(0.6, 3, 0.05, E)
    assert up3 >= up0
    assert iterate_lower_bound(0.4, 0.25) == pytest.approx(0.25)
    assert iterate_lower_bound(0.2, 0.25) == pytest.approx(0.2)
    g = iterate_sqrt_growth_bound(0.6, 3, 0.05, e_star=1.0, c_star=0.25)
    assert g >= 0.6
    assert iterate_sqrt_growth_bound(0.6, 0, 0.05, 0.0, 0.0) \
        == pytest.approx(0.6)


def test_restart_agreement(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    gap = restart_agreement(mu0, 0.05, E)
    assert gap <= 1e-5


def test_plan_density_violation_small(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    res = mm_step(mu0, 0.05, E)
    assert plan_density_violation(res, mu0) <= 0.01


def test_density_cap_limits_growth(interval33):
    # pure mass creation drive with a hard ceiling at density one
    E = linear_entropy(-2.0)
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.2)
    traj = mm_trajectory(mu0, 0.05, 4, E, metric="hk", density_cap=1.0)
    for m in traj.measures:
        assert float(np.max(m.density)) <= 1.0 + 1e-9


def test_trajectory_bookkeeping(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    traj = mm_trajectory(mu0, 0.05, 3, E)
    assert len(traj.measures) == 4
    assert len(traj.distances_squared) == 3
    assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15])
    assert traj.slope_surrogates.shape == (3,)
    energies = traj.energy(E)
    assert np.all(np.diff(energies) <= 1e-9)


def test_failed_distance_solve_fails_the_step(interval17, monkeypatch):
    monkeypatch.setattr(hkflow.mm, "hk_distance_squared",
                        unconverged(hkflow.mm.hk_distance_squared))
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval17)
    assert not mm_step(mu0, 0.05, E).converged
    prob = DiscreteMeasure(interval17, mu0.density / mu0.mass)
    assert not shk_mm_step(prob, 0.05, E).converged
    with pytest.raises(RuntimeError, match="did not converge"):
        mm_trajectory(mu0, 0.05, 2, E, metric="hk")


def test_unknown_metric_raises(interval17):
    mu0 = sinusoid_measure(interval17)
    E = quadratic_entropy()
    with pytest.raises(ValueError, match="unknown metric 'HK'"):
        mm_trajectory(mu0, 0.05, 1, E, metric="HK")
    with pytest.raises(ValueError, match="unknown metric 'HK'"):
        restart_agreement(mu0, 0.05, E, metric="HK")


def test_density_cap_rejected_for_shk(interval17, monkeypatch):
    def no_solve(*args, **kw):
        raise AssertionError("distance solve before the check")

    monkeypatch.setattr(hkflow.mm, "hk_distance_squared", no_solve)
    mu0 = sinusoid_measure(interval17)
    prob = DiscreteMeasure(interval17, mu0.density / mu0.mass)
    with pytest.raises(ValueError, match="density_cap applies to the HK"):
        mm_trajectory(prob, 0.05, 2, quadratic_entropy(), metric="shk",
                      density_cap=1.0)


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_trajectory_resolves_steps_at_call_time(interval17, monkeypatch,
                                                metric):
    # the benchmark tracer wraps the module attributes mm_step and
    # shk_mm_step; a trajectory must call whatever they are bound to now
    calls = {"mm_step": 0, "shk_mm_step": 0}

    def counting(name):
        original = getattr(hkflow.mm, name)

        def wrapped(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)
        return wrapped

    for name in calls:
        monkeypatch.setattr(hkflow.mm, name, counting(name))
    mu0 = sinusoid_measure(interval17)
    prob = DiscreteMeasure(interval17, mu0.density / mu0.mass)
    mm_trajectory(prob, 0.05, 3, quadratic_entropy(), metric=metric)
    used = "shk_mm_step" if metric == "shk" else "mm_step"
    assert calls == {name: 3 if name == used else 0 for name in calls}


def _gate_measure(n, metric):
    dom = unit_interval(n)
    if metric == "hk":
        return sinusoid_measure(dom, base=0.8, amplitude=0.2)
    mu = sinusoid_measure(dom, base=1.0, amplitude=0.3)
    return DiscreteMeasure(dom, mu.density / mu.mass)


@pytest.mark.parametrize("metric, n, tau, entropy", [
    ("hk", 33, 0.005, "quadratic"), ("hk", 33, 0.02, "quadratic"),
    ("hk", 64, 0.0025, "quadratic"), ("shk", 33, 0.02, "quadratic"),
    ("shk", 33, 0.005, "quadratic"), ("shk", 33, 0.02, "neg_power")])
def test_dual_step_solves_the_lbfgs_problem(monkeypatch, metric, n, tau,
                                            entropy):
    # at the distance solve's own eps schedule both solvers minimize the
    # same function, d(dual value)^2 / (2 tau) + E, so the dual step's
    # objective may not exceed the L-BFGS-B optimum
    monkeypatch.setattr(hkflow.mm, "STEP_EPS_SCHEDULE", DEFAULT_EPS_SCHEDULE)
    E = (quadratic_entropy() if entropy == "quadratic"
         else neg_power_entropy(0.5, 1.0))
    mu0 = _gate_measure(n, metric)
    spherical = metric == "shk"
    step = shk_mm_step if spherical else mm_step
    dual = step(mu0, tau, E)
    lbfgs = hkflow.mm._lbfgs_step(mu0, tau, E, spherical, None, None, None)
    assert dual.converged and lbfgs.converged
    assert dual.objective <= lbfgs.objective + 1e-12 * abs(lbfgs.objective)


def test_warm_dual_step_is_cheap_and_certified(interval33, monkeypatch):
    solves = []

    def recording(*args, **kw):
        res = original(*args, **kw)
        solves.append((kw.get("warm_start") is not None, res.converged))
        return res

    original = hkflow.mm.hk_distance_squared
    monkeypatch.setattr(hkflow.mm, "hk_distance_squared", recording)
    # the setting of the benchmark's hk-evi-1d flow
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.2)
    first = mm_step(mu0, 0.005, E)
    second = mm_step(first.measure, 0.005, E, warm=first.warm)
    assert first.converged and second.converged
    assert second.iterations <= 5
    # one certifying distance solve per step, warm-started and converged
    assert solves == [(True, True), (True, True)]


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_unconverged_dual_solve_fails_the_step(interval17, monkeypatch,
                                               metric):
    def unconverged_dual(*args, **kw):
        return original(*args, **kw)._replace(gnorm=1.0, converged=False)

    original = hkflow.mm._dual_newton
    monkeypatch.setattr(hkflow.mm, "_dual_newton", unconverged_dual)
    E = quadratic_entropy()
    mu0 = _gate_measure(17, metric)
    step = shk_mm_step if metric == "shk" else mm_step
    res = step(mu0, 0.05, E)
    assert not res.converged
    assert res.grad_norm == 1.0
    with pytest.raises(RuntimeError, match="did not converge"):
        mm_trajectory(mu0, 0.05, 2, E, metric=metric)


def test_table_entropy_flow_takes_lbfgs(interval33):
    # a tabulated energy has no closed-form conjugate: its steps run
    # L-BFGS-B, and still descend
    c = np.linspace(0.0, 3.0, 31)
    E = table_entropy(c, c * c - c, recession_slope=math.inf)
    assert E.conjugate is None
    mu0 = sinusoid_measure(interval33)
    traj = mm_trajectory(mu0, 0.05, 2, E, metric="hk")
    energies = traj.energy(E)
    for k, d2 in enumerate(traj.distances_squared):
        assert energies[k + 1] + d2 / 0.1 <= energies[k] + 1e-9


def test_step_from_zero_measure_stays_zero(interval17):
    # growth from nothing costs mass / (2 tau) = 10 per unit, more than
    # E' = 2c - 1 can gain
    zero = DiscreteMeasure(interval17, np.zeros(interval17.n_nodes))
    res = mm_step(zero, 0.05, quadratic_entropy())
    assert res.converged
    assert float(np.max(res.measure.density)) <= 1e-12


def test_flow_from_zero_measure_matches_scalar_steps():
    # from nothing HK^2 is the new mass, so the first step has a closed
    # form; E = -sqrt(c) then grows uniform data by the scalar steps
    # c_k = (k tau)^2
    dom = unit_interval(9)
    E = neg_power_entropy(0.5, 1.0)
    zero = DiscreteMeasure(dom, np.zeros(dom.n_nodes))
    traj = mm_trajectory(zero, 0.05, 3, E)
    c = 0.0
    for k in range(1, 4):
        c = scalar_mm_step(c, 0.05, E)
        assert c == pytest.approx((k * 0.05) ** 2, rel=1e-9)
        assert np.allclose(traj.measures[k].density, c, rtol=1e-6, atol=0.0)


def test_step_from_zero_measure_without_conjugate():
    # a table energy steep enough to grow mass from nothing: every node
    # takes the scalar step from 0, a root of 1 + 2 tau E'(c) = 0 near 1
    dom = unit_interval(9)
    c = np.linspace(0.0, 3.0, 31)
    E = table_entropy(c, -20.0 * np.sqrt(c), recession_slope=0.0)
    zero = DiscreteMeasure(dom, np.zeros(dom.n_nodes))
    res = mm_step(zero, 0.05, E)
    assert res.converged
    assert np.allclose(res.measure.density, scalar_mm_step(0.0, 0.05, E),
                       rtol=1e-12, atol=0.0)
    assert res.measure.density[0] == pytest.approx(1.0011774, rel=1e-6)
    assert res.objective == pytest.approx(-10.0000037, rel=1e-6)


def test_capped_step_from_zero_measure_fills_to_the_cap():
    # E = -20 c gains more than growth costs at every level: the capped
    # step fills every node to the cap
    dom = unit_interval(9)
    zero = DiscreteMeasure(dom, np.zeros(dom.n_nodes))
    res = mm_step(zero, 0.05, linear_entropy(-20.0), density_cap=1.0)
    assert res.converged
    assert np.all(res.measure.density == 1.0)
    # HK^2 from nothing is the new mass, 1
    assert res.objective == pytest.approx(1.0 / 0.1 - 20.0, rel=1e-9)


def test_lbfgs_step_not_converged_at_empty_nodes():
    # u = log rho hides the gradient where the start density is empty:
    # L-BFGS-B stops with nodes 1-3 empty, though transport fills them
    dom = unit_interval(9)
    mu0 = DiscreteMeasure(dom, np.array([0, 0, 0, 0, 1, 1, 1, 1, 1.0]))
    E = quadratic_entropy()
    lbfgs = hkflow.mm._lbfgs_step(mu0, 0.05, E, False, None, None, None)
    dual = mm_step(mu0, 0.05, E)
    assert dual.converged and not lbfgs.converged
    assert dual.objective < lbfgs.objective - 0.05


def test_stale_warm_step_falls_back_to_cold(interval33):
    # the hk-evi-1d setting from a warm state far from the step's own:
    # the final level burns its iterations, then the cold schedule runs
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.2)
    cold = mm_step(mu0, 0.005, E)
    stale = mm_step(mu0, 0.005, E, warm=(np.full(33, 20.0), 0.0, 1.0))
    assert cold.converged and stale.converged
    assert stale.iterations == NEWTON_MAX_ITER + cold.iterations
    assert stale.objective == cold.objective


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_lbfgs_and_dual_warm_states_seed_each_other(metric):
    # both step paths hand on the same (g, lam, s) warm state
    E = quadratic_entropy()
    mu0 = _gate_measure(17, metric)
    spherical = metric == "shk"
    step = shk_mm_step if spherical else mm_step
    lbfgs = hkflow.mm._lbfgs_step(mu0, 0.05, E, spherical, None, None, None)
    dual = step(lbfgs.measure, 0.05, E, warm=lbfgs.warm)
    again = hkflow.mm._lbfgs_step(dual.measure, 0.05, E, spherical, None,
                                  dual.warm, None)
    assert lbfgs.converged and dual.converged and again.converged
