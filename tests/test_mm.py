import json
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkflow.mm
from hkflow.entropy import (eval_functional, linear_entropy,
                            neg_power_entropy, power_mass_entropy,
                            table_entropy)
from hkflow.hk import (DEFAULT_EPS_SCHEDULE, NEWTON_MAX_ITER,
                       hk_distance_squared, mass_gap_lower_bound,
                       metric_squared)
from hkflow.measures import (DiscreteMeasure, GridDomain, uniform_measure,
                             unit_interval)
from hkflow.mm import (check_density_bounds, iterate_lower_bound,
                       iterate_sqrt_growth_bound, iterate_upper_bound,
                       mm_step, mm_trajectory, plan_density_violation,
                       scalar_lower_bound, scalar_mm_step, scalar_shk_mm_step,
                       scalar_step_monotonicity, scalar_upper_bound,
                       shk_mm_step)

from conftest import (dirac_measure, lbfgs_reference_step, sinusoid_measure,
                      unconverged)


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
    assert scalar_shk_mm_step(0.37, 0.05) == pytest.approx(0.37)


@given(c0=st.floats(0.05, 5.0), tau=st.floats(1e-3, 0.2),
       gamma=st.floats(-2.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_scalar_bounds_d1_to_d4(c0, tau, gamma):
    E = power_mass_entropy(1.0, 2.0, gamma)
    c1 = scalar_mm_step(c0, tau, E)
    # (D1)/(D2): the step moves monotonically toward the derivative root
    mono = scalar_step_monotonicity(c0, c1, E)
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
    rep = check_density_bounds(traj, slack=1e-6)
    assert rep["ok"]


def test_hk_trajectory_density_bounds(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.5, amplitude=0.1)
    traj = mm_trajectory(mu0, 0.05, 6, E, metric="hk")
    rep = check_density_bounds(traj, slack=1e-6)
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


def test_plan_density_violation_small(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    res = mm_step(mu0, 0.05, E)
    assert plan_density_violation(res) <= 0.01


def test_trajectory_bookkeeping(interval33):
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33)
    traj = mm_trajectory(mu0, 0.05, 3, E)
    assert len(traj.measures) == 4
    assert len(traj.distances_squared) == 3
    assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15])
    assert traj.slope_surrogates.shape == (3,)
    energies = traj.energy()
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


def quadratic_table():
    c = np.linspace(0.0, 3.0, 31)
    return table_entropy(c, c * c - c, recession_slope=math.inf)


@pytest.mark.parametrize("metric, n, tau, entropy", [
    ("hk", 33, 0.005, "quadratic"), ("hk", 33, 0.02, "quadratic"),
    ("hk", 64, 0.0025, "quadratic"), ("shk", 33, 0.02, "quadratic"),
    ("shk", 33, 0.005, "quadratic"), ("shk", 33, 0.02, "neg_power"),
    ("hk", 33, 0.05, "table"), ("shk", 33, 0.02, "table")])
def test_dual_step_solves_the_lbfgs_problem(monkeypatch, metric, n, tau,
                                            entropy):
    # at the distance solve's own eps schedule both solvers minimize the
    # same function, d(dual value)^2 / (2 tau) + E, so the dual step's
    # objective may not exceed the L-BFGS-B optimum
    monkeypatch.setattr(hkflow.mm, "STEP_EPS_SCHEDULE", DEFAULT_EPS_SCHEDULE)
    E = {"quadratic": quadratic_entropy, "table": quadratic_table,
         "neg_power": lambda: neg_power_entropy(0.5, 1.0)}[entropy]()
    mu0 = _gate_measure(n, metric)
    spherical = metric == "shk"
    step = shk_mm_step if spherical else mm_step
    dual = step(mu0, tau, E)
    lbfgs = lbfgs_reference_step(mu0, tau, E, spherical)
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


def test_table_entropy_flow_takes_the_dual_step(interval33):
    # a tabulated energy carries its exact piecewise conjugate: its steps
    # run the dual step, and descend
    E = quadratic_table()
    assert E.conjugate is not None
    mu0 = sinusoid_measure(interval33)
    traj = mm_trajectory(mu0, 0.05, 2, E, metric="hk")
    energies = traj.energy()
    for k, d2 in enumerate(traj.distances_squared):
        assert energies[k + 1] + d2 / 0.1 <= energies[k] + 1e-9


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_quadratic_table_steps_like_its_closed_form(metric):
    # the spline of quadratic samples is the quadratic, so its flow is that
    # of c^2 - c with the closed-form conjugate
    mu0 = _gate_measure(33, metric)
    table = mm_trajectory(mu0, 0.05, 4, quadratic_table(), metric=metric)
    exact = mm_trajectory(mu0, 0.05, 4, quadratic_entropy(), metric=metric)
    for a, b in zip(table.measures, exact.measures):
        assert np.allclose(a.density, b.density, rtol=1e-10, atol=0.0)


def test_spherical_step_without_a_unit_mass_table_density_raises():
    # a table on [0, 0.5] with recession slope +inf is +inf above 0.5, so
    # no density of unit mass on [0, 1] has finite energy
    c = np.linspace(0.0, 0.5, 11)
    E = table_entropy(c, c * c - c, recession_slope=math.inf)
    mu0 = _gate_measure(33, "shk")
    with pytest.raises(ValueError, match="no unit-mass density"):
        shk_mm_step(mu0, 0.02, E)


def _kinked_table(name):
    c = np.linspace(0.0, 3.0, 31)
    short = np.linspace(0.0, 0.5, 11)
    return {
        # E = -c / 2 and above c = 3 the same line: E* jumps from 0 to +inf
        "linear": lambda: table_entropy([0.0, 1.0, 2.0, 3.0],
                                        [0.0, -0.5, -1.0, -1.5], -0.5),
        # not convex: the hull has linear bridges
        "wavy": lambda: table_entropy(c, c * c - c + 0.3 * np.sin(6.0 * c),
                                      math.inf),
        # flat above 0.5, where most of the data lies
        "short": lambda: table_entropy(short, short * short - short, 0.0),
    }[name]()


@pytest.mark.parametrize("name, metric", [
    ("linear", "hk"), ("linear", "shk"), ("wavy", "shk"), ("short", "hk"),
    ("short", "shk")])
def test_table_flow_through_kinks_descends(name, metric):
    # steps whose densities sit on a linear part of the table's hull, or on
    # its continuation above c_max, where E* has a kink
    dom = unit_interval(33)
    mu0 = sinusoid_measure(dom, base=0.8, amplitude=0.2)
    if metric == "shk":
        mu0 = DiscreteMeasure(dom, mu0.density / mu0.mass)
    E = _kinked_table(name)
    traj = mm_trajectory(mu0, 0.02, 4, E, metric=metric)
    energies = traj.energy()
    for k, d2 in enumerate(traj.distances_squared):
        assert energies[k + 1] + d2 / 0.04 <= energies[k] + 1e-9
    if (name, metric) == ("linear", "hk"):
        # E = -mass / 2 scales the mass by 1 / (1 - tau)^2 per step
        assert [m.mass for m in traj.measures] == pytest.approx(
            [mu0.mass / 0.98 ** (2 * k) for k in range(5)], rel=1e-6)


@pytest.mark.parametrize("case", ["wavy-flow", "convergence-step"])
def test_step_scale_settles_in_three_dual_solves(monkeypatch, case):
    # the spherical step's fixed point in s = Phi'(HK^2) stops once s moves
    # by less than the Newton tolerance relative, which no solve resolves
    # further: the first solve, one re-solve at the new s, and one that
    # confirms it.  Stopped at 1e-13 instead, below the roundoff of s, the
    # wavy-table flow takes 5, 3, 2, 2 solves and the first step of the
    # SHK convergence study at tau = 0.02 takes 4
    solves, real = [], hkflow.mm._dual_newton

    def counting(*args, **kw):
        solves[-1] += 1
        return real(*args, **kw)

    def opening(fn):
        def step(*args, **kw):
            solves.append(0)
            return fn(*args, **kw)
        return step

    monkeypatch.setattr(hkflow.mm, "_dual_newton", counting)
    monkeypatch.setattr(hkflow.mm, "_dual_step",
                        opening(hkflow.mm._dual_step))
    dom = unit_interval(33)
    mu0 = sinusoid_measure(dom, base=0.8, amplitude=0.2)
    mu0 = DiscreteMeasure(dom, mu0.density / mu0.mass)
    if case == "wavy-flow":
        # the trajectory raises unless every step converged
        mm_trajectory(mu0, 0.02, 4, _kinked_table("wavy"), metric="shk")
        assert len(solves) == 4
    else:
        assert shk_mm_step(mu0, 0.02, quadratic_entropy()).converged
        assert len(solves) == 1
    assert max(solves) <= 3


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_unconverged_dual_solve_ends_the_step(monkeypatch, metric):
    # a unit-mass Gaussian of width 0.05 on 33 nodes at tau = 0.01: the
    # step's first dual solve does not converge, and the step ends there,
    # unconverged, in both metrics.  The SHK fixed point used to go on
    # re-solving at new step scales, 21 solves of about 450 Newton steps
    solves, real = [], hkflow.mm._dual_newton

    def counting(*args, **kw):
        solves.append(real(*args, **kw))
        return solves[-1]

    monkeypatch.setattr(hkflow.mm, "_dual_newton", counting)
    dom = unit_interval(33)
    rho = np.exp(-0.5 * ((dom.coordinates[:, 0] - 0.5) / 0.05) ** 2)
    mu0 = DiscreteMeasure(dom, rho / float(dom.weights @ rho))
    step = shk_mm_step if metric == "shk" else mm_step
    res = step(mu0, 0.01, quadratic_entropy())
    assert len(solves) == 1
    assert not solves[0].converged and not res.converged
    assert res.iterations == sum(solves[0].levels)


def test_step_without_a_minimizer_raises(interval17):
    # 1 + 2 tau E'(inf) <= 0: growing one node lowers the objective without
    # bound
    mu0 = _gate_measure(17, "hk")
    for E, tau in ((linear_entropy(-20.0), 0.05),
                   (_kinked_table("linear"), 1.0)):
        with pytest.raises(ValueError, match="unbounded below"):
            mm_step(mu0, tau, E)


def test_nonlinear_energy_without_conjugate_raises(interval17):
    # the closed form c mu0 holds for linear energies only
    E = replace(quadratic_entropy(), conjugate=None)
    with pytest.raises(ValueError, match="must be linear"):
        mm_step(_gate_measure(17, "hk"), 0.05, E)


def test_step_from_zero_measure_stays_zero(interval17):
    # growth from nothing costs mass / (2 tau) = 10 per unit, more than
    # E' = 2c - 1 can gain
    zero = DiscreteMeasure(interval17, np.zeros(interval17.n_nodes))
    res = mm_step(zero, 0.05, quadratic_entropy())
    assert res.converged
    assert float(np.max(res.measure.density)) <= 1e-12
    # potentials from nothing seed nothing: the next step starts cold
    assert res.warm is None


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


@pytest.mark.parametrize("tau", [0.001, 0.05])
def test_step_from_zero_to_relative_accuracy(tau):
    # E = -sqrt(c) from nothing: 1 + 2 tau E'(c) = 1 - tau / sqrt(c) = 0
    # at c = tau^2, which the bisection must hit to its relative width
    # however far below 1 the level is
    E = neg_power_entropy(0.5, 1.0)
    assert scalar_mm_step(0.0, tau, E) == pytest.approx(tau**2, rel=1e-11,
                                                        abs=0.0)
    dom = unit_interval(9)
    res = mm_step(DiscreteMeasure(dom, np.zeros(dom.n_nodes)), tau, E)
    assert res.converged
    assert np.allclose(res.measure.density, tau**2, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_step_with_nodes_beyond_every_source(metric):
    # on [0, 4] the nodes past 1.82 lie beyond pi/2 of the three source
    # nodes: they carry no plan, so each takes the density of the fixed
    # slope 1 + eps sum a, the HK step from nothing, (tau / 2)^2 for
    # E = -sqrt(c)
    dom = GridDomain((0.0,), (4.0,), (33,))
    E = neg_power_entropy(0.5, 1.0)
    mu0 = dirac_measure(dom, [0, 1, 2], [0.3, 0.3, 0.3])
    far = dom.coordinates[:, 0] > 0.25 + math.pi / 2
    assert far.sum() == 18
    if metric == "shk":
        mu0 = DiscreteMeasure(dom, mu0.density / mu0.mass)
        res = shk_mm_step(mu0, 0.05, E)
        assert res.measure.mass == pytest.approx(1.0, abs=1e-12)
    else:
        res = mm_step(mu0, 0.05, E)
        assert np.allclose(res.measure.density[far],
                           scalar_mm_step(0.0, 0.05, E), rtol=1e-6, atol=0.0)
    assert res.converged
    assert np.isfinite(res.warm[0]).all()
    nxt = (shk_mm_step if metric == "shk" else mm_step)(
        res.measure, 0.05, E, warm=res.warm)
    assert nxt.converged


def _distance_solves(monkeypatch):
    """The argument lists of the distance solves mm makes from now on."""
    calls = []
    original = hkflow.mm.hk_distance_squared

    def counting(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(hkflow.mm, "hk_distance_squared", counting)
    return calls


def _assert_closed_form(res, mu0, tau, E, metric):
    # a closed form solves nothing: its squared distance is the mass bound,
    # which the diagonal plan H = diag(sqrt(a b)) attains, so its objective
    # is exact, and it leaves no warm state
    w, rho = mu0.domain.weights, res.measure.density
    d2 = metric_squared(metric)(mass_gap_lower_bound(mu0, res.measure))
    assert res.distance_squared == d2
    assert res.objective == d2 / (2.0 * tau) + float(w @ E(rho))
    assert np.array_equal(res.plan, np.diag(w * np.sqrt(mu0.density * rho)))
    assert res.converged and res.warm is None
    assert res.iterations == 0 and res.grad_norm == 0.0
    # the bound is the entropic solve's value up to its bias
    direct = hk_distance_squared(mu0, res.measure).hk_squared
    hk2 = mass_gap_lower_bound(mu0, res.measure)
    assert direct == pytest.approx(hk2, rel=1e-8, abs=1e-10)


def test_step_from_zero_measure_grows_mass_by_scalar_steps(monkeypatch):
    # a table energy steep enough to grow mass from nothing: every node
    # takes the scalar step from 0, a root of 1 + 2 tau E'(c) = 0 near 1
    dom = unit_interval(9)
    c = np.linspace(0.0, 3.0, 31)
    E = table_entropy(c, -20.0 * np.sqrt(c), recession_slope=0.0)
    zero = DiscreteMeasure(dom, np.zeros(dom.n_nodes))
    solves = _distance_solves(monkeypatch)
    res = mm_step(zero, 0.05, E)
    assert solves == []
    assert np.allclose(res.measure.density, scalar_mm_step(0.0, 0.05, E),
                       rtol=1e-12, atol=0.0)
    assert res.measure.density[0] == pytest.approx(1.0023238, rel=1e-6)
    assert res.objective == pytest.approx(-10.0000146, rel=1e-6)
    assert not res.plan.any()
    _assert_closed_form(res, zero, 0.05, E, "hk")


def test_lbfgs_step_not_converged_at_empty_nodes():
    # u = log rho hides the gradient where the start density is empty:
    # L-BFGS-B stops with nodes 1-3 empty, though transport fills them
    dom = unit_interval(9)
    mu0 = DiscreteMeasure(dom, np.array([0, 0, 0, 0, 1, 1, 1, 1, 1.0]))
    E = quadratic_entropy()
    lbfgs = lbfgs_reference_step(mu0, 0.05, E, False)
    dual = mm_step(mu0, 0.05, E)
    assert dual.converged and not lbfgs.converged
    assert dual.objective < lbfgs.objective - 0.05


def test_stale_warm_step_falls_back_to_cold(interval33):
    # the hk-evi-1d setting from a warm state far from the step's own:
    # the final level burns its iterations, then the cold schedule runs.
    # Steps are outside the distance solves' triage (hk.WARM_MISMATCH): on
    # the benchmark's SHK study the first solve of the second step, warm
    # from the first, meets the triage test and still converges warm (27
    # and 33 iterations at tau 0.02 and 0.01); triaging steps raised the
    # study's step Newton count from 361 to 470
    E = quadratic_entropy()
    mu0 = sinusoid_measure(interval33, base=0.8, amplitude=0.2)
    cold = mm_step(mu0, 0.005, E)
    stale = mm_step(mu0, 0.005, E, warm=(np.full(33, 20.0), 0.0, 1.0))
    assert cold.converged and stale.converged
    assert stale.iterations == NEWTON_MAX_ITER + cold.iterations
    assert stale.objective == cold.objective


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_lbfgs_and_dual_warm_states_seed_each_other(metric):
    # the reference's warm state, the potentials of a plain distance solve
    # with lam = 0 and s = 1, seeds a dual step, whose own warm state seeds
    # the reference's distance solves
    E = quadratic_entropy()
    mu0 = _gate_measure(17, metric)
    spherical = metric == "shk"
    step = shk_mm_step if spherical else mm_step
    lbfgs = lbfgs_reference_step(mu0, 0.05, E, spherical)
    dual = step(lbfgs.measure, 0.05, E, warm=lbfgs.warm)
    again = lbfgs_reference_step(dual.measure, 0.05, E, spherical,
                                 warm=dual.warm)
    assert lbfgs.converged and dual.converged and again.converged


@pytest.mark.parametrize("metric", ["hk", "shk"])
@pytest.mark.parametrize("gamma", [-2.0, 0.0, 3.0])
def test_linear_energy_step_is_a_scaling(monkeypatch, metric, gamma):
    # E = gamma mass: HK^2(mu0, nu) >= (sqrt m0 - sqrt m1)^2 with equality
    # at nu = c mu0, so the HK step scales mu0 by the scalar step from 1;
    # the SHK step keeps mu0
    E = linear_entropy(gamma)
    mu0 = _gate_measure(17, metric)
    spherical = metric == "shk"
    step = shk_mm_step if spherical else mm_step
    solves = _distance_solves(monkeypatch)
    res = step(mu0, 0.05, E)
    assert solves == []
    c = 1.0 if spherical else scalar_mm_step(1.0, 0.05, E)
    assert np.array_equal(res.measure.density, c * mu0.density)
    _assert_closed_form(res, mu0, 0.05, E, metric)
    # a dual step from its output starts cold
    dual = step(res.measure, 0.05, quadratic_entropy(), warm=res.warm)
    assert dual.converged


@pytest.mark.parametrize("spherical", [False, True], ids=["hk", "shk"])
def test_debug_log_has_one_line_per_solve_and_step(caplog, spherical):
    # at DEBUG (HKFLOW_LOG=debug in the CLI) a dual step logs one line, then
    # its final distance solve, warm from the step's potentials, another;
    # at the default level nothing is logged
    mu = sinusoid_measure(unit_interval(17), base=0.8, amplitude=0.2)
    step = shk_mm_step if spherical else mm_step
    if spherical:
        mu = DiscreteMeasure(mu.domain, mu.density / mu.mass)
    step(mu, 0.02, quadratic_entropy())
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="hkflow"):
        res = step(mu, 0.02, quadratic_entropy())
    assert [r.name for r in caplog.records] == ["hkflow.mm", "hkflow.hk"]
    dual, distance = (r.getMessage() for r in caplog.records)
    assert distance.startswith("distance solve: ")
    assert "converged True" in distance
    assert "warm start held True" in distance
    # the Newton count of each dual solve: SHK re-solves at a new step scale
    counts = json.loads(re.search(r"Newton steps (\[.*?\]) per dual solve",
                                  dual).group(1))
    assert sum(counts) == res.iterations
    assert len(counts) >= (2 if spherical else 1)
    assert dual.endswith("settled True")
