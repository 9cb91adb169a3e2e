import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import xlogy

import hkflow.hk as hk
from hkflow.entropy import power_mass_entropy
from hkflow.hk import (DEFAULT_EPS_SCHEDULE, cone_distance,
                       dilated_hk_squared, dilation_cost, hk_distance,
                       hk_distance_squared, hk_exact_small, hk_two_diracs,
                       is_spherical, mass_gap_lower_bound, metric_squared,
                       scaling_identity_gap, shk_distance,
                       shk_from_hk_squared, shk_squared_derivative,
                       transport_cost)
from hkflow.measures import (DiscreteMeasure, GridDomain, scale_measure,
                             uniform_measure, unit_interval)

from hkflow.evi import default_observers
from hkflow.mm import mm_step, mm_trajectory, shk_mm_step

from conftest import dirac_measure, sinusoid_measure

# Reference values from an independent derivative-free minimization of the
# transport-entropy program over plan entries (Nelder-Mead, 4 restarts),
# run on the same two fixtures; both agree with the interior-point result
# to 5e-11.
FIXTURE_A_VALUE = 0.1925249227416578  # masses (.7,.3)@(.1,.6) vs (.5,.9)@(.2,.8)
FIXTURE_B_VALUE = 0.0833548865548643  # (.4,.8,.2)@(0,.5,1) vs (1.1,.3)@(.25,.9)


def _fixture_a():
    dom = GridDomain((0.0,), (1.0,), (21,))
    mu0 = dirac_measure(dom, [2, 12], [0.7, 0.3])
    mu1 = dirac_measure(dom, [4, 16], [0.5, 0.9])
    return mu0, mu1


def _fixture_b():
    dom = GridDomain((0.0,), (1.0,), (21,))
    mu0 = dirac_measure(dom, [0, 10, 20], [0.4, 0.8, 0.2])
    mu1 = dirac_measure(dom, [5, 18], [1.1, 0.3])
    return mu0, mu1


def test_transport_cost_values():
    d = np.array([0.0, math.pi / 3, math.pi / 2, 2.0])
    c = transport_cost(d)
    assert c[0] == pytest.approx(0.0)
    assert c[1] == pytest.approx(-2.0 * math.log(0.5))
    assert math.isinf(c[2]) and math.isinf(c[3])


def test_fixture_values_regularized_solver():
    for fixture, ref in [(_fixture_a(), FIXTURE_A_VALUE),
                         (_fixture_b(), FIXTURE_B_VALUE)]:
        res = hk_distance_squared(*fixture)
        assert res.marginal_error < 1e-4
        assert res.hk_squared == pytest.approx(ref, abs=1e-8)


def test_fixture_values_interior_point():
    for fixture, ref in [(_fixture_a(), FIXTURE_A_VALUE),
                         (_fixture_b(), FIXTURE_B_VALUE)]:
        res = hk_exact_small(*fixture)
        assert res.hk_squared == pytest.approx(ref, abs=1e-9)


def test_self_distance_zero(interval17):
    mu = sinusoid_measure(interval17)
    assert hk_distance_squared(mu, mu).hk_squared <= 1e-8
    prob = DiscreteMeasure(mu.domain, mu.density / mu.mass)
    assert shk_distance(prob, prob) <= 1e-4


def test_distance_to_zero_is_total_mass(interval17):
    mu = sinusoid_measure(interval17, base=0.8, amplitude=0.3)
    zero = uniform_measure(interval17, 0.0)
    res = hk_distance_squared(zero, mu)
    assert res.hk_squared == pytest.approx(mu.mass, abs=1e-8)
    assert hk_distance_squared(mu, zero).hk_squared == pytest.approx(
        mu.mass, abs=1e-8)
    both = hk_distance_squared(zero, zero)
    assert both.hk_squared == 0.0 and both.dual_value == 0.0
    assert both.converged and both.iterations == 0
    assert np.all(both.plan == 0.0)


@given(a=st.floats(0.05, 3.0), b=st.floats(0.05, 3.0),
       d=st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_two_dirac_closed_form_formula(a, b, d):
    v = hk_two_diracs(a, b, d)
    expected = a + b - 2.0 * math.sqrt(a * b) * math.cos(min(d, math.pi / 2))
    assert v == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_two_dirac_matches_solver():
    dom = GridDomain((0.0,), (1.0,), (41,))
    rng = np.random.default_rng(7)
    for _ in range(10):
        i, j = rng.choice(41, size=2, replace=False)
        a, b = rng.uniform(0.2, 2.0, size=2)
        mu0 = dirac_measure(dom, [i], [a])
        mu1 = dirac_measure(dom, [j], [b])
        d = abs(i - j) / 40.0
        res = hk_distance_squared(mu0, mu1)
        assert res.hk_squared == pytest.approx(hk_two_diracs(a, b, d),
                                               abs=1e-7)


def test_symmetry(interval17):
    mu = sinusoid_measure(interval17)
    nu = sinusoid_measure(interval17, base=0.9, amplitude=0.2, frequency=2.0)
    d01 = hk_distance_squared(mu, nu).hk_squared
    d10 = hk_distance_squared(nu, mu).hk_squared
    assert d01 == pytest.approx(d10, rel=1e-7, abs=1e-10)


@given(t0=st.floats(0.3, 2.0), t1=st.floats(0.3, 2.0))
@settings(max_examples=8, deadline=None)
def test_scaling_identity(t0, t1):
    dom = unit_interval(13)
    mu0 = sinusoid_measure(dom, base=0.7, amplitude=0.25)
    mu1 = sinusoid_measure(dom, base=0.5, amplitude=0.15, frequency=2.0)
    rep = scaling_identity_gap(mu0, mu1, t0, t1)
    assert abs(rep["gap"]) <= 1e-6 * (1.0 + rep["hk_squared"])


def test_dilated_hk_squared_edge_cases():
    # no solve: the identity alone
    hk2, m0, m1 = 0.37, 1.3, 0.8
    assert dilated_hk_squared(hk2, m0, m1, 1.0, 0.0) == m0  # HK^2(mu, 0)
    assert dilated_hk_squared(hk2, m0, m1, 0.0, 1.0) == m1  # HK^2(0, nu)
    assert dilated_hk_squared(hk2, m0, m1, 1.0, 1.0) == hk2
    hk2s = np.array([0.1, 0.37, 0.9])
    masses = np.array([1.0, 1.3, 0.6])
    out = dilated_hk_squared(hk2s, masses, m1, 1.0, math.sqrt(2.0))
    assert out.shape == (3,)
    assert out.tolist() == [
        dilated_hk_squared(float(h), float(m), m1, 1.0, math.sqrt(2.0))
        for h, m in zip(hk2s, masses)]


def test_triangle_inequality_random_small():
    dom = unit_interval(9)
    rng = np.random.default_rng(3)
    for _ in range(8):
        raw = [DiscreteMeasure(dom, rng.uniform(0.1, 1.5, 9))
               for _ in range(3)]
        d01 = hk_distance(raw[0], raw[1])
        d12 = hk_distance(raw[1], raw[2])
        d02 = hk_distance(raw[0], raw[2])
        assert d02 <= d01 + d12 + 1e-6
        ms = [DiscreteMeasure(dom, m.density / m.mass) for m in raw]
        s01 = shk_distance(ms[0], ms[1])
        s12 = shk_distance(ms[1], ms[2])
        s02 = shk_distance(ms[0], ms[2])
        assert s02 <= s01 + s12 + 1e-6


def test_mass_gap_lower_bound_never_violated():
    dom = unit_interval(9)
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu0 = DiscreteMeasure(dom, rng.uniform(0.0, 2.0, 9))
        mu1 = DiscreteMeasure(dom, rng.uniform(0.0, 2.0, 9))
        lb = mass_gap_lower_bound(mu0, mu1)
        assert lb == pytest.approx(
            (math.sqrt(mu0.mass) - math.sqrt(mu1.mass)) ** 2)
        assert hk_distance_squared(mu0, mu1).hk_squared >= lb - 1e-8


def test_shk_from_hk():
    assert shk_from_hk_squared(0.0) == 0.0
    # two unit masses at distance >= pi/2: HK^2 = 2, SHK = pi/2
    assert shk_from_hk_squared(2.0) == pytest.approx(math.pi / 2)
    # derivative of SHK^2 in HK^2 at 0 is 1 (metrics agree infinitesimally)
    assert shk_squared_derivative(1e-14) == pytest.approx(1.0, abs=1e-6)


def test_metric_names():
    assert not is_spherical("hk") and is_spherical("shk")
    assert metric_squared("hk")(2.0) == 2.0
    assert metric_squared("shk")(2.0) == shk_from_hk_squared(2.0) ** 2
    for name in ("HK", "spherical", ""):
        with pytest.raises(ValueError, match=f"unknown metric {name!r}"):
            metric_squared(name)


def test_shk_requires_unit_mass():
    dom = unit_interval(9)
    with pytest.raises(ValueError):
        shk_distance(uniform_measure(dom, 2.0), uniform_measure(dom, 1.0))


def test_cone_distance():
    # same base point: pure radial motion
    assert cone_distance(1.0, 3.0, base_distance=0.0) \
        == pytest.approx(2.0)
    # apex to radius r
    assert cone_distance(0.0, 2.0, base_distance=1.0) \
        == pytest.approx(2.0)
    # beyond the cutoff the law of cosines saturates at angle pi
    far = cone_distance(1.0, 1.0, base_distance=4.0)
    assert far == pytest.approx(2.0)


def test_dilation_cost_against_closed_form(interval17):
    mu = uniform_measure(interval17, 1.0)
    # identity dilation at fixed positions costs nothing
    same = dilation_cost(mu, np.ones(17), np.arange(17))
    assert same == pytest.approx(0.0, abs=1e-12)
    # pure growth by factor q costs (1 - q)^2 per unit mass
    grow = dilation_cost(mu, np.full(17, 2.0))
    assert grow == pytest.approx(mu.mass * 1.0)


def test_warm_start_agrees(interval17):
    mu = sinusoid_measure(interval17)
    nu = sinusoid_measure(interval17, base=0.6, amplitude=0.2)
    cold = hk_distance_squared(mu, nu)
    warm = hk_distance_squared(
        mu, nu, warm_start=cold.potential_target)
    assert warm.hk_squared == pytest.approx(cold.hk_squared, rel=1e-9)


def test_plan_matches_returned_potentials(interval17):
    # the returned plan is the Gibbs plan of the returned potentials at the
    # final regularization, and zero off the target's support
    mu = sinusoid_measure(interval17)
    rho = sinusoid_measure(interval17, base=0.6, amplitude=0.2).density.copy()
    off = [0, 5, 6]
    rho[off] = 0.0
    nu = DiscreteMeasure(interval17, rho)
    res = hk_distance_squared(mu, nu)
    on = np.flatnonzero(rho)
    a = mu.density * interval17.weights
    b = (nu.density * interval17.weights)[on]
    cost = transport_cost(interval17.distance_matrix())[:, on]
    f, g = res.potential_source, res.potential_target[on]
    expected = np.outer(a, b) * np.exp(
        (f[:, None] + g[None, :] - cost) / DEFAULT_EPS_SCHEDULE[-1])
    assert np.allclose(res.plan[:, on], expected, rtol=1e-10, atol=0.0)
    assert not np.any(res.plan[:, off])


def _square_symmetries(x):
    """The eight images of a square array under the symmetries of the
    square: four rotations, each with and without a transpose."""
    out = []
    for k in range(4):
        r = np.rot90(x, k)
        out += [r, r.T]
    return out


def test_newton_count_invariant_under_square_symmetries():
    # the symmetries of the square map one pair to eight pairs with the same
    # distance; a line search decided by the gradient, not by the last bits
    # of the dual value, takes the same steps on all of them
    dom = GridDomain((0.0, 0.0), (1.0, 1.0), (9, 9))
    rng = np.random.default_rng(0)
    tol = 1e-11
    for _ in range(4):
        A = rng.uniform(0.4, 1.6, (9, 9))
        B = rng.uniform(0.4, 1.6, (9, 9))
        iters = set()
        for SA, SB in zip(_square_symmetries(A), _square_symmetries(B)):
            mu0 = DiscreteMeasure(dom, SA.ravel())
            mu1 = DiscreteMeasure(dom, SB.ravel())
            res = hk_distance_squared(mu0, mu1, tol=tol)
            iters.add(res.iterations)
            assert res.marginal_error <= tol * max(1.0, mu0.mass + mu1.mass)
        assert len(iters) == 1
        # each eps-level opens with a closed-form scaling sweep; without it
        # full Newton steps shrink the level's opening overshoot linearly
        assert max(iters) <= 110


def test_warm_resolve_from_own_potentials_is_immediate(interval33):
    x = interval33.coordinates[:, 0]
    mu = DiscreteMeasure(interval33, 0.8 + 0.2 * np.sin(2.0 * np.pi * x))
    nu = DiscreteMeasure(interval33, 0.5 + 0.3 * x)
    cold = hk_distance_squared(mu, nu)
    assert cold.converged
    warm = hk_distance_squared(
        mu, nu, warm_start=cold.potential_target)
    assert warm.converged
    assert warm.iterations <= 1
    assert warm.hk_squared == pytest.approx(cold.hk_squared, abs=1e-14)


def test_two_diracs_on_square_grid_converge():
    dom = GridDomain((0.0, 0.0), (1.0, 1.0), (17, 17))
    src, tgt = 4 * 17 + 8, 12 * 17 + 8  # nodes (4, 8) and (12, 8)
    rho0 = np.zeros(dom.n_nodes)
    rho1 = np.zeros(dom.n_nodes)
    rho0[src] = 0.8 / dom.weights[src]
    rho1[tgt] = 1.2 / dom.weights[tgt]
    res = hk_distance_squared(DiscreteMeasure(dom, rho0),
                              DiscreteMeasure(dom, rho1))
    assert res.converged
    assert res.hk_squared == pytest.approx(hk_two_diracs(0.8, 1.2, 0.5),
                                           abs=1e-10)


def test_newton_counts_per_level(interval33):
    x = interval33.coordinates[:, 0]
    mu = DiscreteMeasure(interval33, 0.8 + 0.2 * np.sin(2.0 * np.pi * x))
    nu = DiscreteMeasure(interval33, 0.5 + 0.3 * x)
    cold = hk_distance_squared(mu, nu)
    assert cold.iterations <= 90
    assert len(cold.level_iterations) == len(DEFAULT_EPS_SCHEDULE)
    assert sum(cold.level_iterations) == cold.iterations
    # 33 nodes solve dense: one support, the whole plan, per level
    assert cold.level_support == ((33 * 33,),) * len(DEFAULT_EPS_SCHEDULE)
    warm = hk_distance_squared(
        mu, nu, warm_start=cold.potential_target)
    assert len(warm.level_iterations) == 1
    assert sum(warm.level_iterations) == warm.iterations
    # a stale warm start is triaged at its first Newton direction (0 steps
    # at its level), then the cold continuation runs as it would alone
    zero = np.zeros(interval33.n_nodes)
    stale = hk_distance_squared(mu, nu, warm_start=zero)
    assert stale.converged
    assert stale.level_iterations[0] == 0
    assert stale.level_iterations[1:] == cold.level_iterations
    assert stale.level_support[1:] == cold.level_support
    assert sum(stale.level_iterations) == stale.iterations


@pytest.mark.parametrize("bad", [np.zeros(32), np.full(33, np.inf),
                                 np.full(33, -np.inf), np.zeros((33, 1))],
                         ids=["short", "inf", "-inf", "column"])
def test_malformed_warm_start_raises(interval33, bad):
    mu = sinusoid_measure(interval33)
    with pytest.raises(ValueError, match="warm_start"):
        hk_distance_squared(mu, mu, warm_start=bad)


def _benchmark_shk_start(domain):
    mu = sinusoid_measure(domain, base=0.8, amplitude=0.2)
    return DiscreteMeasure(domain, mu.density / mu.mass)


def test_far_warm_start_triages_to_the_cold_solve(interval33):
    # the first warm pair of evi_check on an SHK flow, (x1, o) after the
    # cold (x0, o): its opening mismatch is above WARM_MISMATCH and the full
    # step fails, so the warm level stops with no step and the result is
    # the cold solve's, bit for bit
    mu0 = _benchmark_shk_start(interval33)
    traj = mm_trajectory(mu0, 0.02, 2, power_mass_entropy(1.0, 2.0, -1.0),
                         metric="shk")
    obs = default_observers(mu0, "shk")[0]
    first = hk_distance_squared(traj.measures[0], obs)
    warm = hk_distance_squared(traj.measures[1], obs,
                               warm_start=first.potential_target)
    cold = hk_distance_squared(traj.measures[1], obs)
    assert warm.converged
    assert warm.level_iterations == (0,) + cold.level_iterations
    assert warm.hk_squared == cold.hk_squared
    assert np.array_equal(warm.potential_target, cold.potential_target)


def test_warm_start_taking_its_full_step_stays_warm(interval33, monkeypatch):
    # the certification solve after a cold SHK step opens above
    # WARM_MISMATCH, but its full Newton step is accepted: no triage
    mu0 = _benchmark_shk_start(interval33)
    step = shk_mm_step(mu0, 0.02, power_mass_entropy(1.0, 2.0, -1.0))
    mismatch = []
    direction = hk._newton_direction

    def spy(pt, eps, support):
        mismatch.append(float(np.abs(pt.grad).sum()))
        return direction(pt, eps, support)

    monkeypatch.setattr(hk, "_newton_direction", spy)
    res = hk_distance_squared(mu0, step.measure, warm_start=step.warm[0])
    assert mismatch[0] > hk.WARM_MISMATCH * (mu0.mass + step.measure.mass)
    assert res.converged
    assert len(res.level_iterations) == 1


def test_supports_beyond_quarter_circle_match_exact():
    # on [0, 3] some source rows reach targets within pi/2 and also have
    # targets beyond it, at infinite cost
    dom = GridDomain((0.0,), (3.0,), (31,))
    mu0 = dirac_measure(dom, [2, 9, 16, 25], [0.7, 0.4, 1.1, 0.5])
    mu1 = dirac_measure(dom, [5, 13, 20, 29], [0.9, 0.3, 0.8, 0.6])
    cost = transport_cost(dom.distance_matrix())
    rows = cost[np.ix_([2, 9, 16, 25], [5, 13, 20, 29])]
    assert np.any(np.isfinite(rows).any(axis=1) & np.isinf(rows).any(axis=1))
    res = hk_distance_squared(mu0, mu1)
    exact = hk_exact_small(mu0, mu1)
    assert res.converged and exact.converged
    assert exact.level_iterations == ()
    assert res.hk_squared == pytest.approx(exact.hk_squared, abs=1e-9)


@pytest.mark.parametrize("mirrored", [False, True],
                         ids=["source-unreached", "target-unreached"])
def test_exact_solver_prices_unreached_mass_at_itself(mirrored):
    # on [0, 2] the Dirac of mass 0.5 at x = 2 lies 1.9 > pi/2 from the
    # only node of the other measure: it has no partner, so it costs its
    # own mass, and the pair at x = 0 and 0.1 pays the two-Dirac closed
    # form; mirrored, the unreached node is a target
    dom = GridDomain((0.0,), (2.0,), (21,))
    mu0 = dirac_measure(dom, [0, 20], [1.0, 0.5])
    mu1 = dirac_measure(dom, [1], [0.8])
    if mirrored:
        mu0, mu1 = mu1, mu0
    closed = 0.5 + hk_two_diracs(1.0, 0.8, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = hk_exact_small(mu0, mu1)
        res = hk_distance_squared(mu0, mu1)
    assert exact.converged
    assert exact.hk_squared == pytest.approx(closed, abs=1e-10)
    assert res.hk_squared == pytest.approx(exact.hk_squared, abs=1e-9)


@pytest.mark.parametrize("far", [False, True],
                         ids=["zero-measure", "diracs-beyond-half-pi"])
def test_exact_solver_prices_a_pair_out_of_reach_itself(monkeypatch, far):
    # with no node in reach all mass costs itself, and the oracle returns
    # that without calling the solver it cross-checks
    def no_solve(*args, **kw):
        raise AssertionError("the oracle called the regularized solver")

    monkeypatch.setattr(hk, "_dual_newton", no_solve)
    monkeypatch.setattr(hk, "hk_distance_squared", no_solve)
    dom = GridDomain((0.0,), (4.0,), (41,))
    if far:
        # 4 > pi/2 apart
        mu0 = dirac_measure(dom, [0], [0.7])
        mu1 = dirac_measure(dom, [40], [1.3])
        expected = hk_two_diracs(0.7, 1.3, 4.0)
        assert expected == pytest.approx(2.0, abs=1e-15)
    else:
        mu0 = uniform_measure(dom, 0.0)
        mu1 = dirac_measure(dom, [3, 17, 30], [0.2, 0.5, 0.4])
        expected = mu1.mass
    exact = hk_exact_small(mu0, mu1)
    assert exact.hk_squared == pytest.approx(expected, abs=1e-14)
    assert exact.iterations == 0 and exact.converged
    assert not exact.plan.any()


def _oracle_value(mu0, mu1):
    """The oracle's HK^2, once it converged and the entropic solver's
    excess over it lies in [-1e-12, 1e-10]: a feasible plan cannot beat the
    optimum, and the entropic bias at eps = 1e-6 is small."""
    exact = hk_exact_small(mu0, mu1)
    assert exact.converged
    excess = hk_distance_squared(mu0, mu1).hk_squared - exact.hk_squared
    assert -1e-12 <= excess <= 1e-10
    return exact.hk_squared


@pytest.mark.parametrize("n, certified", [(33, 0.0210506475352),
                                          (65, 0.0209739255713)])
def test_exact_solver_on_smooth_pairs_beyond_eight_nodes(n, certified):
    # 0.8 + 0.5 sin 2 pi x against 1 + 0.3 cos 4 pi x on [0, 1]; the
    # certified values bracket the exact HK^2 to 1e-13
    dom = unit_interval(n)
    x = dom.coordinates[:, 0]
    mu0 = DiscreteMeasure(dom, 0.8 + 0.5 * np.sin(2.0 * math.pi * x))
    mu1 = DiscreteMeasure(dom, 1.0 + 0.3 * np.cos(4.0 * math.pi * x))
    assert _oracle_value(mu0, mu1) == pytest.approx(certified, abs=1e-12)


def test_exact_solver_ends_a_round_at_a_step_below_roundoff():
    # near the floor the round's exit test ||grad h|| < 0.1 barrier cannot
    # be met in floating point, and an accepted step that leaves h
    # unchanged ends the round: the 65-node pair above took 254 Newton
    # steps when each such round ran its 80, and takes 114
    dom = unit_interval(65)
    x = dom.coordinates[:, 0]
    exact = hk_exact_small(
        DiscreteMeasure(dom, 0.8 + 0.5 * np.sin(2.0 * math.pi * x)),
        DiscreteMeasure(dom, 1.0 + 0.3 * np.cos(4.0 * math.pi * x)))
    assert exact.converged
    assert exact.iterations <= 150
    assert exact.hk_squared == pytest.approx(0.0209739255713, abs=1e-12)


def test_exact_solver_on_a_concentrated_pair():
    # two Gaussians of width 0.05 at 0.3 and 0.6 on 97 nodes of [0, 1]
    dom = unit_interval(97)
    x = dom.coordinates[:, 0]
    mu0 = DiscreteMeasure(dom, np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2))
    mu1 = DiscreteMeasure(dom, np.exp(-0.5 * ((x - 0.6) / 0.05) ** 2))
    _oracle_value(mu0, mu1)


def test_exact_solver_on_a_pair_partly_out_of_reach():
    # two bumps of width 0.4 at 0.5 and 2.3 on 97 nodes of [0, 3]: 1.8 >
    # pi/2 apart, so about a quarter of the pairs cost +inf
    dom = GridDomain((0.0,), (3.0,), (97,))
    x = dom.coordinates[:, 0]
    mu0 = DiscreteMeasure(dom, np.exp(-(((x - 0.5) / 0.4) ** 2)))
    mu1 = DiscreteMeasure(dom, np.exp(-(((x - 2.3) / 0.4) ** 2)))
    assert np.isinf(transport_cost(dom.distance_matrix())).mean() > 0.2
    _oracle_value(mu0, mu1)


# ---------------------------------------------------------------------------
# private helpers against the SciPy calls they replace


def test_xlogy_matches_scipy():
    rng = np.random.default_rng(0)
    y = np.concatenate([rng.random(10**5),
                        np.exp(rng.uniform(-745.0, 709.0, 10**5)),
                        [5e-324, 2.2e-308, 1.0, 1.8e308, np.inf]])
    x = np.concatenate([rng.random(10**5),
                        np.exp(rng.uniform(-300.0, 300.0, 10**5)),
                        [1.8e308, 1e-300, 3.0, 2.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_y, ref_log = hk._xlogy(1.0, y), xlogy(1.0, y)
        got, ref = hk._xlogy(x, y), xlogy(x, y)
        zeros = hk._xlogy(np.zeros(5), np.array([0.0, 5e-324, 1.0, 1e300,
                                                  np.inf]))
    # numpy's log may differ from the C library's in the last bit, which
    # the product x log y can round to a second one
    fin = np.isfinite(ref)
    np.testing.assert_array_max_ulp(log_y[fin], ref_log[fin], maxulp=1)
    np.testing.assert_array_equal(got[~fin], ref[~fin])
    np.testing.assert_array_max_ulp(got[fin], ref[fin], maxulp=2)
    assert np.array_equal(zeros, np.zeros(5))
    assert hk._xlogy(0.0, 0.0) == 0.0 == xlogy(0.0, 0.0)


def _dense_point(rng, n, m, k):
    """A Newton point with a positive kernel K and target masses b, so plan
    H = K diag(b), and the (e^-g - u, Z, d) of a term with k extra
    variables (for k None: a distance solve, d = 0 and Z empty)."""
    K, b = rng.random((n, m)) + 0.1, rng.random(m) + 0.5
    H = K * b
    ea, eb = rng.random(n) + 0.5, rng.random(m) + 0.5
    grad = rng.standard_normal(n + m + (k or 0))
    w = rng.random(m) + 0.5
    extra = ((w, np.empty((0, m)), np.zeros(m)) if k is None
             else (w, np.full((k, m), 0.3), rng.random(m) + 0.1))
    return hk._Point(None, None, None, b, K, 0.0, H.sum(axis=1),
                     H.sum(axis=0), ea, eb, grad, 1.0, extra, True)


def _full_newton_matrix(pt, eps):
    """The (n + m + k)-square Newton matrix of pt in the order (f, g,
    theta), the term's Hessian formed in full as W diag(d) W^T with
    W = [-K; diag(w); Z]."""
    n, m = pt.r.size, pt.s.size
    H = pt.K * pt.b
    M = np.zeros((pt.grad.size, pt.grad.size))
    M[:n, :n] = np.diag(pt.ea + pt.r / eps)
    M[n:n + m, n:n + m] = np.diag(pt.eb + pt.s / eps)
    M[:n, n:n + m] = H / eps
    M[n:n + m, :n] = H.T / eps
    w, Z, d = pt.extra
    W = np.vstack([-pt.K, np.diag(w), Z])
    return M + (W * d) @ W.T


def _max_rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("k, kept", [(None, None), (0, None), (1, None),
                                     (None, 0.5), (None, 0.7), (1, 0.5),
                                     (1, 0.7)],
                         ids=["None", "0", "1", "None-kept", "None-filled",
                              "1-kept", "1-filled"])
def test_newton_direction_matches_cho_solve(k, kept):
    # the Schur solve on f, with theta's k x k correction after it, against
    # SciPy's Cholesky of the full matrix: the same solution up to roundoff.
    # On a kept support (a share `kept` of the entries) the full matrix is
    # built from the kept entries, drawn apart from the point so that every
    # k keeps the same ones.  Half of them make 26 column pairs and S is
    # formed in band storage, with theta or without; 0.7 of them make more
    # pairs than the 35 plan entries, and S is formed from K scattered into
    # the plan
    rng = np.random.default_rng(3)
    n, m, eps = 7, 5, 0.01
    pt = _dense_point(rng, n, m, k)
    support = None
    if kept:
        rows, cols = np.nonzero(np.random.default_rng(4).random((n, m))
                                < kept)
        support = hk._Support.build(rows, cols, np.zeros(rows.size), n, m)
        assert (support.pairs is None) == (kept == 0.7)
        K = np.zeros((n, m))
        K[rows, cols] = pt.K[rows, cols]
        pt = pt._replace(K=K, r=K @ pt.b, s=pt.b * K.sum(axis=0))
    M = _full_newton_matrix(pt, eps)
    ref = cho_solve(cho_factor(M, check_finite=False), pt.grad,
                    check_finite=False)
    if kept:
        pt = pt._replace(K=pt.K[rows, cols])
    step, failed = hk._newton_direction(pt, eps, support)
    assert not failed
    assert _max_rel(step, ref) <= 1e-12


def test_band_holds_the_schur_complement_of_the_kept_entries(monkeypatch):
    # a random support on a 6 x 6 grid (entries within one grid step, each
    # kept with probability 0.7): the band handed to LAPACK holds the lower
    # band of S = diag(ea + r / eps) + K diag(-beta^2 / D) K^T, K the kept
    # entries scattered into the plan, and kd is the largest row spread of
    # a column
    rng = np.random.default_rng(11)
    side, eps = 6, 0.01
    n = m = side * side
    pt = _dense_point(rng, n, m, None)
    node = np.stack(np.divmod(np.arange(n), side), axis=1)
    near = np.abs(node[:, None] - node[None, :]).max(axis=2) <= 1
    rows, cols = np.nonzero(near & (rng.random((n, m)) < 0.7))
    support = hk._Support.build(rows, cols, np.zeros(rows.size), n, m)
    p, q, slot, kd = support.pairs
    assert p.dtype == q.dtype == slot.dtype == np.intp
    assert kd == max(np.ptp(rows[cols == j]) for j in np.unique(cols))
    K = np.zeros((n, m))
    K[rows, cols] = pt.K[rows, cols]
    pt = pt._replace(K=K[rows, cols], r=K @ pt.b, s=pt.b * K.sum(axis=0))
    bands, real = [], hk.dpbtrf

    def record(ab, **kw):
        bands.append(ab.copy())
        return real(ab, **kw)

    monkeypatch.setattr(hk, "dpbtrf", record)
    failed = hk._newton_direction(pt, eps, support)[1]
    assert not failed and len(bands) == 1
    D = pt.eb + pt.s / eps
    S = np.diag(pt.ea + pt.r / eps) - (K * (pt.b / eps) ** 2 / D) @ K.T
    assert not np.tril(S, -kd - 1).any()
    ref = np.zeros((kd + 1, n))
    for off in range(kd + 1):
        ref[off, :n - off] = np.diag(S, -off)
    assert bands[0].shape == ref.shape
    assert _max_rel(bands[0], ref) <= 1e-12


@pytest.mark.parametrize("k", [0, 1])
def test_decoupled_target_nodes_leave_the_newton_system(k):
    # a target node with no mass (b_j = 0: no plan column, eb_j = 0) and no
    # curvature (d_j = 0) has a zero row and column in the full matrix,
    # which no Cholesky factors; the Schur solve gives it step 0 and solves
    # the rest exactly
    rng = np.random.default_rng(5)
    n, m, eps = 7, 5, 0.01
    pt = _dense_point(rng, n, m, k)
    empty = np.array([1, 3])
    b, eb, grad = pt.b.copy(), pt.eb.copy(), pt.grad.copy()
    b[empty] = 0.0
    eb[empty] = 0.0
    grad[n + empty] = 0.0
    w, Z, d = pt.extra
    d = d.copy()
    d[empty] = 0.0
    H = pt.K * b
    pt = pt._replace(b=b, r=H.sum(axis=1), s=H.sum(axis=0), eb=eb,
                     grad=grad, extra=(w, Z, d))
    M = _full_newton_matrix(pt, eps)
    assert hk.dpotrf(M)[1] > 0
    keep = np.setdiff1d(np.arange(M.shape[0]), n + empty)
    ref = cho_solve(cho_factor(M[np.ix_(keep, keep)]), grad[keep])
    step, failed = hk._newton_direction(pt, eps, None)
    assert not failed
    assert np.array_equal(step[n + empty], np.zeros(2))
    assert _max_rel(step[keep], ref) <= 1e-12


def test_distance_solve_plan_rows_hold_their_marginal(interval33):
    # narrow Gaussians leave source masses down to 1e-68; Newton stops on
    # the gradient's max-norm, where such a row may still carry plan mass
    # near the tolerance, many times its own.  The closing f-sweep leaves
    # each plan row with mass a e^-f, up to the roundoff of
    # exp((f + g - c) / eps) at eps = 1e-6
    x = interval33.coordinates[:, 0]

    def gaussian(centre):
        return DiscreteMeasure(interval33, np.exp(-0.5 * ((x - centre) / 0.04)
                                                  ** 2))

    mu, nu = gaussian(0.3), gaussian(0.6)
    res = hk_distance_squared(mu, nu)
    assert res.converged
    a = mu.density * interval33.weights
    assert a.min() < 1e-60
    np.testing.assert_allclose(res.plan.sum(axis=1),
                               a * np.exp(-res.potential_source), rtol=1e-9)


def _fail_first(real, failure):
    """Wrap a factorization so that its first call reports failure."""
    calls = []

    def wrapped(*args, **kw):
        calls.append(None)
        out = real(*args, **kw)
        return failure(out) if len(calls) == 1 else out
    return wrapped


def test_full_plan_newton_points_hold_no_subnormal_kernel(monkeypatch,
                                                         interval33):
    # exp arguments below log(tiny) go to -inf, so each kernel entry is 0
    # or a normal number: np.exp and the Schur GEMM run several times
    # slower on subnormals.  On this pair 26 of 57 Newton points held some
    # before
    x = interval33.coordinates[:, 0]
    mu = DiscreteMeasure(interval33, 0.8 + 0.2 * np.sin(2.0 * math.pi * x))
    nu = DiscreteMeasure(interval33, 0.5 + 0.3 * np.cos(4.0 * math.pi * x))
    kernels, direction = [], hk._newton_direction

    def spy(pt, eps, support):
        kernels.append(pt.K)
        return direction(pt, eps, support)

    monkeypatch.setattr(hk, "_newton_direction", spy)
    assert hk_distance_squared(mu, nu).converged
    tiny = np.finfo(float).tiny
    assert kernels and all(K.shape == (33, 33) for K in kernels)
    assert not any(((K > 0) & (K < tiny)).any() for K in kernels)


def test_failed_cholesky_is_counted(monkeypatch, interval33):
    mu = sinusoid_measure(interval33, base=0.8, amplitude=0.2)
    nu = sinusoid_measure(interval33, base=0.5, amplitude=0.3, frequency=2.0)
    clean = hk_distance_squared(mu, nu)
    E = power_mass_entropy(1.0, 2.0, -1.0)
    clean_step = mm_step(mu, 0.02, E)
    assert clean.factor_fallbacks == clean_step.factor_fallbacks == 0
    monkeypatch.setattr(hk, "dpotrf",
                        _fail_first(hk.dpotrf, lambda out: (out[0], 1)))
    res = hk_distance_squared(mu, nu)
    assert res.factor_fallbacks == 1 and res.converged
    assert abs(res.hk_squared - clean.hk_squared) <= 1e-12
    monkeypatch.setattr(hk, "dpotrf",
                        _fail_first(hk.dpotrf, lambda out: (out[0], 1)))
    step = mm_step(mu, 0.02, E)
    assert step.factor_fallbacks == 1 and step.converged


def _sin_cos_square(nodes, amplitude=0.2):
    """0.8 + amplitude sin 2 pi x cos 2 pi y on a nodes x nodes unit
    square."""
    dom = GridDomain((0.0, 0.0), (1.0, 1.0), (nodes, nodes))
    x = dom.coordinates
    return DiscreteMeasure(dom, 0.8 + amplitude
                           * np.sin(2.0 * math.pi * x[:, 0])
                           * np.cos(2.0 * math.pi * x[:, 1]))


@pytest.mark.parametrize("grid, tau", [("1d", 0.005), ("2d", 0.01)])
def test_cold_steps_with_empty_target_nodes_factor_cleanly(grid, tau):
    # for E = c^2 - c the conjugate leaves target nodes without mass and
    # curvature at the first eps-levels, which made the full Newton matrix
    # singular (5 and 7 failed factorizations); the Schur solve keeps them
    # out of the system
    mu = (sinusoid_measure(unit_interval(33), base=0.8, amplitude=0.2)
          if grid == "1d" else _sin_cos_square(17))
    step = mm_step(mu, tau, power_mass_entropy(1.0, 2.0, -1.0))
    assert step.converged
    assert step.factor_fallbacks == 0


def test_cold_transporting_2d_step_newton_count():
    # a 17 x 17 step that moves mass (about a third of the plan off the
    # diagonal): opening each eps-level from the line through the last two
    # levels' potentials took it from 121 Newton steps to 77.  The count is
    # the same on every machine with one BLAS thread, as CI runs.
    step = mm_step(_sin_cos_square(17, amplitude=0.5), 0.02,
                   power_mass_entropy(1.0, 2.0, -1.0))
    assert step.converged
    assert step.iterations <= 95
