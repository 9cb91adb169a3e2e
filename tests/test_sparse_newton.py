"""The sparse and coarse-to-fine paths of the dual solve on 2-D grids
against the dense, fine-only one.

Large solves, distance solves and implicit steps alike, run Newton on a
kept support of the plan, where the Schur complement of the Newton matrix
on the source potentials is banded (the SHK step's mass multiplier is a
correction after it is factored); small ones evaluate the full plan.  The
dense path is forced here by raising hk.SPARSE_MIN_SIZE.  A level that
follows one ended on a kept support opens on that support.  On a grid that
nests a coarser one, the levels before the first whose coarse opening keeps
a support run on the coarser grid, as one level loop; the fine grid alone
is forced by a domain with no coarser grid.  From the third level of a
loop on, each level opens from the line through the g at the ends of that
loop's last two levels, extrapolated in eps.
"""

import math

import numpy as np
import pytest

import hkflow.hk as hk
import hkflow.mm as mm
from hkflow.entropy import neg_power_entropy, power_mass_entropy
from hkflow.hk import hk_distance_squared, transport_cost
from hkflow.measures import DiscreteMeasure, GridDomain, coarsen, unit_interval
from hkflow.mm import STEP_EPS_SCHEDULE, mm_step, shk_mm_step

from conftest import sinusoid_measure

GRID = 17
# four smooth pairs: density 1 + 0.2 sum cos(2 pi k.x + phase) over the
# modes below, one phase triple per measure
MODES = ((1, 0), (0, 1), (1, 1))
SMOOTH_PHASES = (
    ((0.3, 1.0, 2.0), (2.5, 4.0, 5.0)),
    ((1.2, 5.1, 0.4), (4.4, 2.2, 3.3)),
    ((5.9, 0.7, 3.8), (1.9, 3.6, 0.9)),
    ((2.8, 4.6, 1.5), (0.1, 1.4, 4.7)),
)
# two two-Dirac pairs: ((row, column) node, mass)
DIRAC_PAIRS = (
    (((4, 8), 0.8), ((12, 8), 1.2)),
    (((2, 2), 1.5), ((10, 14), 0.5)),
)


def square(upper=1.0):
    return GridDomain((0.0, 0.0), (upper, upper), (GRID, GRID))


def smooth_measure(dom, phases):
    x = (dom.coordinates - np.asarray(dom.lower)) / (
        np.asarray(dom.upper) - np.asarray(dom.lower))
    rho = np.ones(dom.n_nodes)
    for (kx, ky), ph in zip(MODES, phases):
        rho += 0.2 * np.cos(2.0 * math.pi * (kx * x[:, 0] + ky * x[:, 1])
                            + ph)
    return DiscreteMeasure(dom, rho)


def dirac_at(dom, node, mass):
    k = node[0] * GRID + node[1]
    rho = np.zeros(dom.n_nodes)
    rho[k] = mass / dom.weights[k]
    return DiscreteMeasure(dom, rho)


def gaussian_measure(dom, centre, width):
    r2 = ((dom.coordinates - np.asarray(centre)) ** 2).sum(axis=1)
    return DiscreteMeasure(
        dom, np.exp(-0.5 * r2 / width**2) / (2.0 * math.pi * width**2))


def pair(case):
    kind, k = case
    if kind == "smooth":
        dom = square()
        return tuple(smooth_measure(dom, p) for p in SMOOTH_PHASES[k])
    if kind == "far":
        # on [0, 3]^2 some nodes lie more than pi/2 apart: infinite cost
        dom = square(3.0)
        return tuple(smooth_measure(dom, p) for p in SMOOTH_PHASES[0])
    if kind == "gauss":
        dom = square()
        return (gaussian_measure(dom, (0.3, 0.4), 0.05),
                gaussian_measure(dom, (0.6, 0.5), 0.05))
    if kind == "point":
        # one source node against a smooth target
        dom = square()
        return (dirac_at(dom, (5, 11), 0.7),
                smooth_measure(dom, SMOOTH_PHASES[1][1]))
    if kind == "half":
        # no mass where x > 1/2: so have the coarse nodes there
        dom = square()
        mu0, mu1 = (smooth_measure(dom, p) for p in SMOOTH_PHASES[2])
        return (DiscreteMeasure(dom, np.where(dom.coordinates[:, 0] > 0.5,
                                              0.0, mu0.density)), mu1)
    dom = square()
    return tuple(dirac_at(dom, node, mass) for node, mass in DIRAC_PAIRS[k])


def dense_solve(monkeypatch, mu0, mu1, **kw):
    with monkeypatch.context() as mp:
        mp.setattr(hk, "SPARSE_MIN_SIZE", math.inf)
        return hk_distance_squared(mu0, mu1, **kw)


def fine_only_solve(monkeypatch, mu0, mu1, **kw):
    with monkeypatch.context() as mp:
        mp.setattr(GridDomain, "coarser", lambda self: None)
        return hk_distance_squared(mu0, mu1, **kw)


def full_gradient(res, mu0, mu1):
    """Max-norm of the dual gradient on the full plan at the returned
    potentials, and that plan, computed here from scratch."""
    dom = mu0.domain
    a = mu0.density * dom.weights
    b = mu1.density * dom.weights
    src, tgt = np.flatnonzero(a), np.flatnonzero(b)
    a, b = a[src], b[tgt]
    f = res.potential_source[src]
    g = res.potential_target[tgt]
    cost = transport_cost(dom.distance_matrix())[np.ix_(src, tgt)]
    with np.errstate(over="ignore"):
        plan = np.outer(a, b) * np.exp(
            (f[:, None] + g[None, :] - cost) / hk.DEFAULT_EPS_SCHEDULE[-1])
        grad = np.concatenate([a * np.exp(-f) - plan.sum(axis=1),
                               b * np.exp(-g) - plan.sum(axis=0)])
    return float(np.max(np.abs(grad))), plan, src, tgt


CASES = ([("smooth", k) for k in range(4)] + [("dirac", k) for k in range(2)]
         + [("far", 0)])


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_sparse_path_agrees_with_dense_on_17x17(monkeypatch, case):
    mu0, mu1 = pair(case)
    sparse = hk_distance_squared(mu0, mu1)
    dense = dense_solve(monkeypatch, mu0, mu1)
    assert sparse.converged and dense.converged
    assert sparse.hk_squared == pytest.approx(dense.hk_squared, rel=1e-12)
    _, plan, src, tgt = full_gradient(sparse, mu0, mu1)
    # the returned plan is the full Gibbs plan of the returned potentials
    assert np.allclose(sparse.plan[np.ix_(src, tgt)], plan, rtol=1e-10,
                       atol=0.0)
    nm = src.size * tgt.size
    assert all(s == (nm,) for s in dense.level_support)
    assert len(sparse.level_support) == len(sparse.level_iterations)
    if case[0] != "dirac":
        assert any(s[0] < nm for s in sparse.level_support)
    if case[0] == "far":
        cost = transport_cost(mu0.domain.distance_matrix())
        assert np.isinf(cost).any()


@pytest.mark.parametrize("case", [("smooth", 0), ("far", 0)],
                         ids=lambda c: c[0])
def test_truncation_that_drops_mass_is_caught(monkeypatch, case):
    # a keep threshold of 1e5 e^-10, 1e8 e^4 times SPARSE_KEEP, drops real
    # mass; the full evaluation that ends each sparse pass must then either
    # recover the dense distance or report the solve unconverged
    mu0, mu1 = pair(case)
    dense = dense_solve(monkeypatch, mu0, mu1)
    monkeypatch.setattr(hk, "SPARSE_KEEP", 1e5 * math.exp(-10.0))
    res = hk_distance_squared(mu0, mu1)
    assert any(len(s) > 1 for s in res.level_support)
    gnorm, _, _, _ = full_gradient(res, mu0, mu1)
    assert res.marginal_error == pytest.approx(gnorm, rel=1e-6, abs=1e-16)
    scaled_tol = hk.NEWTON_TOL * max(1.0, mu0.mass + mu1.mass)
    if res.converged:
        assert gnorm <= hk.NEWTON_SLACK * scaled_tol
        assert res.hk_squared == pytest.approx(dense.hk_squared, rel=1e-12)


def test_sparse_path_with_tiny_tail_masses(monkeypatch):
    # narrow Gaussians leave node masses down to 1e-90: clusters of tiny
    # masses whose kept entries tie them only to each other can drift on
    # the support until dropped entries overflow; such a level must restart
    # on the full plan and the solve still converge
    dom = square()
    mu0 = gaussian_measure(dom, (0.3, 0.4), 0.05)
    mu1 = gaussian_measure(dom, (0.6, 0.5), 0.05)
    res = hk_distance_squared(mu0, mu1)
    dense = dense_solve(monkeypatch, mu0, mu1)
    assert res.converged and dense.converged
    nm = dom.n_nodes ** 2
    assert any(len(s) > 1 and s[-1] == nm for s in res.level_support)
    assert res.dual_value == pytest.approx(dense.dual_value, rel=1e-12)
    # the primal value of a converged solve moves by ~1e-9 relative with
    # the stopping point here, in the dense solver too (tol 1e-11 vs 1e-13)
    assert res.hk_squared == pytest.approx(dense.hk_squared, rel=1e-8)


def test_one_dimensional_solves_stay_dense(monkeypatch):
    def no_support(*args, **kw):
        raise AssertionError("kept support on a 1-D grid")

    monkeypatch.setattr(hk, "_kept_support", no_support)
    dom = unit_interval(33)
    mu = sinusoid_measure(dom, base=0.8, amplitude=0.2)
    nu = sinusoid_measure(dom, base=0.5, amplitude=0.3, frequency=2.0)
    res = hk_distance_squared(mu, nu)
    assert res.converged
    assert all(s == (33 * 33,) for s in res.level_support)
    step = mm_step(mu, 0.005, power_mass_entropy(1.0, 2.0, -1.0))
    assert step.converged


def test_solves_read_the_cached_cost_itself(monkeypatch):
    # when every node carries mass and reaches the other side, each dual
    # solve, a distance solve's or a step's, is handed the cached grid cost
    # itself, not a copy; with an empty node, one np.ix_ slice of it on
    # the kept nodes.  The cached array is shared, so it is read-only
    costs = []

    def recording(real):
        def wrapped(a, b, cost, *args, **kw):
            costs.append(cost)
            return real(a, b, cost, *args, **kw)
        return wrapped

    monkeypatch.setattr(hk, "_dual_newton", recording(hk._dual_newton))
    monkeypatch.setattr(mm, "_dual_newton", recording(mm._dual_newton))
    mu0, mu1 = pair(("smooth", 0))
    line = unit_interval(33)
    assert hk_distance_squared(mu0, mu1).converged
    assert mm_step(sinusoid_measure(line, base=0.8, amplitude=0.2), 0.01,
                   power_mass_entropy(1.0, 2.0, -1.0)).converged
    # the distance solve, the step's dual solve and its final distance solve
    assert len(costs) == 3
    assert costs[0] is hk._domain_cost(mu0.domain)
    assert all(c is hk._domain_cost(line) for c in costs[1:])
    assert not hk._domain_cost(line).flags.writeable

    costs.clear()
    rho = mu1.density.copy()
    rho[[0, 100]] = 0.0
    assert hk_distance_squared(mu0, DiscreteMeasure(mu0.domain, rho)).converged
    kept = rho > 0
    assert costs[0].shape == (GRID * GRID, kept.sum())
    assert np.array_equal(costs[0], hk._domain_cost(mu0.domain)[:, kept])


def step_case(case):
    """A cold 17 x 17 implicit step (step, mu, tau, E): E = c^2 - c from
    0.8 + 0.5 sin(2 pi x) cos(2 pi y) (HK at tau = 0.02, SHK at 0.01), or
    E = -sqrt(c) from a narrow Gaussian at (0.3, 0.4) over a floor of 0.05
    (HK at 0.02).  At tau = 0.02 the SHK step's third step-scale solve
    opens with a gradient max-norm of 1.012 times the Newton tolerance at
    one BLAS thread and 1.007 times at two, so roundoff (the BLAS thread
    count) could decide whether it takes a Newton step (it takes one at
    both), and the density to 2.5e-9; at 0.01 it opens at 2.36 times it."""
    dom = square()
    x, y = dom.coordinates.T
    if case == "neg_power":
        r2 = (x - 0.3) ** 2 + (y - 0.4) ** 2
        mu = DiscreteMeasure(dom, np.exp(-r2 / 0.02) / (0.02 * math.pi)
                             + 0.05)
        return mm_step, mu, 0.02, neg_power_entropy(0.5, 1.0)
    mu = DiscreteMeasure(dom, 0.8 + 0.5 * np.sin(2.0 * math.pi * x)
                         * np.cos(2.0 * math.pi * y))
    E = power_mass_entropy(1.0, 2.0, -1.0)
    if case == "shk":
        return (shk_mm_step, DiscreteMeasure(dom, mu.density / mu.mass),
                0.01, E)
    return mm_step, mu, 0.02, E


@pytest.mark.parametrize("case, iterations", [("hk", 48), ("shk", 34),
                                              ("neg_power", 73)])
def test_steps_on_kept_supports_agree_with_the_full_plan(monkeypatch, case,
                                                         iterations):
    # an implicit step chooses kept supports by size as a distance solve
    # does: its levels at the step-only eps 1e-7 and 1e-8 open on the
    # support the last level ended on, and the step reaches the full-plan
    # path's optimum in as many Newton steps.  No level leaves its kept
    # support for the full plan: on the Gaussian, with a keep margin of
    # e^-10 in place of SPARSE_KEEP's e^-14, a pass at eps = 1e-7 that
    # converged on its kept entries left E*'s domain on the full plan, and
    # the level restarted there (116 Newton steps, 102 on the full plan)
    step, mu, tau, E = step_case(case)
    real, dual_newton = hk._support_opening, mm._dual_newton
    opened, supports = [], []

    def opening(g, log_a, log_b, eps, kernel_min, support):
        opened.append(eps)
        return real(g, log_a, log_b, eps, kernel_min, support)

    def solve(*args, **kw):
        sol = dual_newton(*args, **kw)
        supports.extend(sol.supports)
        return sol

    with monkeypatch.context() as mp:
        mp.setattr(hk, "_support_opening", opening)
        mp.setattr(mm, "_dual_newton", solve)
        res = step(mu, tau, E)
    with monkeypatch.context() as mp:
        mp.setattr(hk, "SPARSE_MIN_SIZE", math.inf)
        dense = step(mu, tau, E)
    assert res.converged and dense.converged
    assert res.objective == pytest.approx(dense.objective, rel=1e-12)
    nm = mu.domain.n_nodes ** 2
    assert all(s == (nm,) or nm not in s for s in supports)
    assert set(STEP_EPS_SCHEDULE[-2:]) <= set(opened)
    assert res.iterations == dense.iterations == iterations
    rho, ref = res.measure.density, dense.measure.density
    assert np.abs(rho - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("spherical", [False, True], ids=["hk", "shk"])
def test_warm_kept_passes_give_up_instead_of_restarting_dense(monkeypatch,
                                                             spherical):
    # a second, warm step after the cold 17 x 17 sin-cos step of
    # step_case("hk") (E = c^2 - c, tau = 0.02), in HK and, from the same
    # data at unit mass, in SHK.  Each warm attempt, of a dual solve or of
    # the certifying distance solve, chooses its kept support at a stale
    # opening; a kept pass that took steps and would restart on the full
    # plan gives up instead, and the cold schedule follows.  So no warm
    # level lists the full plan after a kept support, and the steps take 37
    # and 54 Newton steps (a dense restart of one warm level, supports
    # (538, 83521) and (540, 83521), takes them to 39 and 55)
    step, mu, tau, E = step_case("hk")
    if spherical:
        step, mu = shk_mm_step, DiscreteMeasure(mu.domain,
                                                mu.density / mu.mass)
    first = step(mu, tau, E)
    real, warm_levels = hk._dual_newton, []

    def solve(*args, **kw):
        sol = real(*args, **kw)
        if kw.get("warm", args[8] if len(args) > 8 else None) is not None:
            # the warm attempt runs the schedule's last level alone
            warm_levels.append(sol.supports[0])
        return sol

    with monkeypatch.context() as mp:
        mp.setattr(hk, "_dual_newton", solve)
        mp.setattr(mm, "_dual_newton", solve)
        res = step(first.measure, tau, E, first.warm)
    cold = step(first.measure, tau, E)
    nm = mu.domain.n_nodes ** 2
    assert any(s != (nm,) for s in warm_levels)
    assert all(s == (nm,) or nm not in s for s in warm_levels)
    assert first.converged and res.converged and cold.converged
    assert res.iterations == (54 if spherical else 37)
    assert res.objective == pytest.approx(cold.objective, rel=1e-12)


def test_shk_steps_factor_the_band_as_hk_steps_do(monkeypatch):
    # the SHK step's mass multiplier is a k x k correction after S is
    # factored, so its kept supports keep band storage: the cold 17 x 17
    # SHK step makes no more dense factorizations than the HK step on the
    # same data (with theta bordering S densely it made 75 against 22)
    _, mu, tau, E = step_case("hk")
    mu_shk = DiscreteMeasure(mu.domain, mu.density / mu.mass)
    counts = {}
    for step, start in ((mm_step, mu), (shk_mm_step, mu_shk)):
        calls = {"dpbtrf": 0, "dpotrf": 0}
        with monkeypatch.context() as mp:
            for name in calls:
                def factor(*args, _name=name, _real=getattr(hk, name), **kw):
                    calls[_name] += 1
                    return _real(*args, **kw)
                mp.setattr(hk, name, factor)
            assert step(start, tau, E).converged
        counts[step] = calls
    assert counts[shk_mm_step]["dpbtrf"] > 0
    assert counts[shk_mm_step]["dpotrf"] <= counts[mm_step]["dpotrf"]


@pytest.mark.parametrize("band", [False, True], ids=["filled", "band"])
def test_singular_sparse_factor_is_counted(monkeypatch, band):
    # the first Cholesky factorization on a kept support of one kind (S in
    # band storage, or formed from K scattered into the full plan, as on
    # the first sparse level of a 17 x 17 grid) reports failure; the level
    # restarts on the full plan, the solve counts it and still converges to
    # the same distance
    mu0, mu1 = pair(("smooth", 0))
    clean = hk_distance_squared(mu0, mu1)
    name = "dpbtrf" if band else "dpotrf"
    real_factor, real_direction = getattr(hk, name), hk._newton_direction
    failed = []

    def direction(pt, eps, support):
        if support is None or (support.pairs is not None) != band or failed:
            return real_direction(pt, eps, support)
        failed.append(eps)
        with monkeypatch.context() as mp:
            mp.setattr(hk, name,
                       lambda *a, **kw: (real_factor(*a, **kw)[0], 1))
            return real_direction(pt, eps, support)

    monkeypatch.setattr(hk, "_newton_direction", direction)
    res = hk_distance_squared(mu0, mu1)
    assert len(failed) == 1
    level = list(hk.DEFAULT_EPS_SCHEDULE).index(failed[0])
    assert res.level_support[level][-1] == mu0.domain.n_nodes ** 2
    assert clean.factor_fallbacks == 0 and res.factor_fallbacks == 1
    assert res.converged
    assert res.hk_squared == pytest.approx(clean.hk_squared, rel=1e-12)


COARSE_CASES = ([("smooth", k) for k in range(4)]
                + [("far", 0), ("gauss", 0), ("point", 0), ("half", 0)])


@pytest.mark.parametrize("case", COARSE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}")
def test_coarse_levels_agree_with_the_fine_grid_alone(monkeypatch, case):
    # the levels whose coarse opening keeps no support run on the nested
    # 9 x 9 grid; the fine levels then reach the fine-only solve's optimum
    mu0, mu1 = pair(case)
    res = hk_distance_squared(mu0, mu1)
    fine = fine_only_solve(monkeypatch, mu0, mu1)
    assert res.converged and fine.converged
    assert res.coarse_levels > 0 and fine.coarse_levels == 0
    levels = len(hk.DEFAULT_EPS_SCHEDULE)
    assert len(res.level_iterations) == len(res.level_support) == levels
    assert sum(res.level_iterations) == res.iterations
    # a coarse level holds the coarse plan: every coarse node with mass
    # reaches one with mass here
    nc, mc = (np.count_nonzero(coarsen(mu).density) for mu in (mu0, mu1))
    assert res.level_support[:res.coarse_levels] == (
        ((nc * mc,),) * res.coarse_levels)
    assert res.dual_value == pytest.approx(fine.dual_value, rel=1e-12)
    # the primal value of the narrow Gaussians moves by ~1e-9 relative with
    # the stopping point (test_sparse_path_with_tiny_tail_masses)
    rel = 1e-8 if case[0] == "gauss" else 1e-12
    assert res.hk_squared == pytest.approx(fine.hk_squared, rel=rel)


@pytest.mark.parametrize("side,coarse", [(8.0, 0), (5.0, 1)])
def test_short_coarse_heads_agree_with_the_fine_grid_alone(monkeypatch, side,
                                                           coarse):
    # on [0, L]^2 the coarse head hands over at its first level's opening
    # (L = 8: no level ran, the fine loop starts from g = 0) or at its
    # second (L = 5), before the eps-predictor has two ends to use
    dom = GridDomain((0.0, 0.0), (side, side), (GRID, GRID))
    x, y = dom.coordinates.T
    mu0 = DiscreteMeasure(dom, 1.0 + 0.2 * np.cos(2.0 * math.pi * x / side))
    mu1 = DiscreteMeasure(dom, 1.0 + 0.2 * np.sin(2.0 * math.pi * y / side))
    res = hk_distance_squared(mu0, mu1)
    fine = fine_only_solve(monkeypatch, mu0, mu1)
    assert res.converged and fine.converged
    assert res.coarse_levels == coarse
    assert len(res.level_iterations) == len(hk.DEFAULT_EPS_SCHEDULE)
    assert res.dual_value == pytest.approx(fine.dual_value, rel=1e-12)
    assert res.hk_squared == pytest.approx(fine.hk_squared, rel=1e-12)


def test_each_fine_level_opens_once(monkeypatch):
    # the coarse grid decides its levels on its own opening, so the full
    # fine plan is swept only by the handover level's f-sweep and g-sweep
    # and by the closing f-sweep: every later level opens on the support
    # the last one ended on.  Each fine support built is one entry of
    # level_support, so the handover's is not built twice
    mu0, mu1 = pair(("smooth", 0))
    nm = mu0.domain.n_nodes ** 2
    fine = {"sweeps": 0, "supports": 0}
    real_sweep, real_build = hk._sweep, hk._Support.build

    def sweep(x, log_mass, cost, eps, axis):
        fine["sweeps"] += cost.size == nm
        return real_sweep(x, log_mass, cost, eps, axis)

    def build(rows, cols, cost, n, m):
        fine["supports"] += n * m == nm
        return real_build(rows, cols, cost, n, m)

    monkeypatch.setattr(hk, "_sweep", sweep)
    monkeypatch.setattr(hk._Support, "build", build)
    res = hk_distance_squared(mu0, mu1)
    assert res.converged and res.coarse_levels > 0
    assert fine["sweeps"] == 3
    assert fine["supports"] == sum(
        s < nm for level in res.level_support[res.coarse_levels:]
        for s in level)



def test_later_levels_open_on_the_last_support_as_on_the_full_plan(
        monkeypatch):
    # every fine level after the handover opens on the support the last
    # level ended on: its f-sweep and g-sweep over the kept entries equal
    # the sweeps over the full plan, whose dropped kernels are below
    # kernel_min
    mu0, mu1 = pair(("smooth", 0))
    cost = hk._domain_cost(mu0.domain)
    real = hk._support_opening
    opened = []

    def opening(g, log_a, log_b, eps, kernel_min, support):
        kept = real(g, log_a, log_b, eps, kernel_min, support)
        f = hk._sweep(g, log_b, cost, eps, axis=1)
        g = hk._sweep(f, log_a, cost, eps, axis=0)
        for x, ref in zip(kept[:2], (f, g)):
            assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
        opened.append(eps)
        return kept

    monkeypatch.setattr(hk, "_support_opening", opening)
    res = hk_distance_squared(mu0, mu1)
    assert res.converged
    assert opened == list(hk.DEFAULT_EPS_SCHEDULE[res.coarse_levels + 1:])


def test_support_without_a_row_opens_on_the_full_plan(monkeypatch):
    # the first level after the handover is handed its support less one
    # row's entries: it opens on the full plan as the handover does, with
    # two more full sweeps, and the solve is the one it would have been
    mu0, mu1 = pair(("smooth", 0))
    nm = mu0.domain.n_nodes ** 2
    clean = hk_distance_squared(mu0, mu1)
    real_opening, real_sweep = hk._support_opening, hk._sweep
    cut, sweeps = [], []

    def opening(g, log_a, log_b, eps, kernel_min, support):
        if not cut:
            keep = support.rows != support.rows[0]
            support = hk._Support.build(
                support.rows[keep], support.cols[keep], support.cost[keep],
                log_a.size, log_b.size)
            cut.append(real_opening(g, log_a, log_b, eps, kernel_min,
                                    support))
            return cut[0]
        return real_opening(g, log_a, log_b, eps, kernel_min, support)

    def sweep(x, log_mass, cost, eps, axis):
        sweeps.append(cost.size == nm)
        return real_sweep(x, log_mass, cost, eps, axis)

    monkeypatch.setattr(hk, "_support_opening", opening)
    monkeypatch.setattr(hk, "_sweep", sweep)
    res = hk_distance_squared(mu0, mu1)
    assert cut == [None] and sum(sweeps) == 5
    assert res.converged
    assert res.level_iterations == clean.level_iterations
    assert res.level_support == clean.level_support
    assert res.hk_squared == pytest.approx(clean.hk_squared, rel=1e-12)


def test_levels_after_a_dense_restart_open_on_the_full_plan(monkeypatch):
    # on the narrow Gaussians of test_sparse_path_with_tiny_tail_masses a
    # late level's Newton directions move from its kept support to the full
    # plan: it records the n m entries it ended on, and the next level
    # opens on the full plan, not on a support
    mu0, mu1 = pair(("gauss", 0))
    nm = mu0.domain.n_nodes ** 2
    real_direction, real_opening = hk._newton_direction, hk._support_opening
    real_sweep = hk._sweep
    directions, on_support, full_sweeps = [], [], []

    def direction(pt, eps, support):
        directions.append((eps, support is None))
        return real_direction(pt, eps, support)

    def opening(g, log_a, log_b, eps, kernel_min, support):
        on_support.append(eps)
        return real_opening(g, log_a, log_b, eps, kernel_min, support)

    def sweep(x, log_mass, cost, eps, axis):
        if cost.size == nm and axis == 1:
            full_sweeps.append(eps)
        return real_sweep(x, log_mass, cost, eps, axis)

    monkeypatch.setattr(hk, "_newton_direction", direction)
    monkeypatch.setattr(hk, "_support_opening", opening)
    monkeypatch.setattr(hk, "_sweep", sweep)
    res = hk_distance_squared(mu0, mu1)
    assert res.converged
    schedule = hk.DEFAULT_EPS_SCHEDULE

    def dense_directions(k):
        return [dense for eps, dense in directions if eps == schedule[k]]

    restarted = [k for k in range(res.coarse_levels, len(schedule) - 1)
                 if dense_directions(k)[:1] == [False]
                 and True in dense_directions(k)]
    assert restarted
    for k in restarted:
        assert len(res.level_support[k]) > 1
        assert res.level_support[k][-1] == nm
        assert schedule[k + 1] not in on_support
        assert schedule[k + 1] in full_sweeps

def test_steps_and_small_or_unnested_solves_stay_on_the_fine_grid(
        monkeypatch):
    def no_coarse(*args, **kw):
        raise AssertionError("coarse grid")

    with monkeypatch.context() as mp:
        mp.setattr(hk, "_coarse_head", no_coarse)
        dom = unit_interval(33)
        mu = sinusoid_measure(dom, base=0.8, amplitude=0.2)
        nu = sinusoid_measure(dom, base=0.5, amplitude=0.3, frequency=2.0)
        res = hk_distance_squared(mu, nu)
        assert res.converged and res.coarse_levels == 0
        assert len(res.level_iterations) == len(hk.DEFAULT_EPS_SCHEDULE)
        dom = GridDomain((0.0, 0.0), (1.0, 1.0), (16, 16))
        res = hk_distance_squared(*(smooth_measure(dom, p)
                                    for p in SMOOTH_PHASES[0]))
        assert res.converged and res.coarse_levels == 0
        assert any(s[0] < dom.n_nodes ** 2 for s in res.level_support)
        step = mm_step(pair(("smooth", 0))[0], 0.01,
                       power_mass_entropy(1.0, 2.0, -1.0))
        assert step.converged


def test_stale_warm_start_reruns_through_the_coarse_grid():
    # another pair's potentials are far off: the warm level is triaged (0
    # steps) and the cold rerun coarsens the grid as a cold solve does
    mu0, mu1 = pair(("smooth", 0))
    cold = hk_distance_squared(mu0, mu1)
    other = hk_distance_squared(*pair(("smooth", 1)))
    stale = hk_distance_squared(mu0, mu1, warm_start=other.potential_target)
    assert cold.coarse_levels > 0
    assert stale.coarse_levels == cold.coarse_levels
    assert stale.level_iterations == (0,) + cold.level_iterations
    assert stale.hk_squared == cold.hk_squared


def _opening_potentials(monkeypatch, a, b, cost, **kw):
    """Run _dual_newton over DEFAULT_EPS_SCHEDULE with spies: the g each
    level opens from, by eps, on the fine grid (x of its first f-sweep on
    the full plan or of its support opening) and on the coarse one, and
    what each call of the coarse head returned (the coarse solve, its g
    prolonged to the fine targets)."""
    fine, coarse, heads = {}, {}, []
    sweep, support_opening = hk._sweep, hk._support_opening
    coarse_head = hk._coarse_head

    def spy_sweep(x, log_mass, c, eps, axis):
        if axis == 1:
            (fine if c.shape == cost.shape else coarse).setdefault(
                eps, x.copy())
        return sweep(x, log_mass, c, eps, axis)

    def spy_opening(g, log_a, log_b, eps, kernel_min, support):
        fine.setdefault(eps, g.copy())
        return support_opening(g, log_a, log_b, eps, kernel_min, support)

    def spy_head(*args):
        heads.append(coarse_head(*args))
        return heads[-1]

    with monkeypatch.context() as mp:
        mp.setattr(hk, "_sweep", spy_sweep)
        mp.setattr(hk, "_support_opening", spy_opening)
        mp.setattr(hk, "_coarse_head", spy_head)
        sol = hk._dual_newton(a, b, cost, hk.DEFAULT_EPS_SCHEDULE,
                              hk.NEWTON_MAX_ITER, hk.NEWTON_TOL, **kw)
    return sol, fine, coarse, heads


def _assert_opens_on_the_line(opened, end, schedule, levels):
    """Each level k in levels opens from the line through the g at the
    ends of levels k - 2 and k - 1, extrapolated in eps."""
    for k in levels:
        g1, g2 = end[k - 2], end[k - 1]
        ratio = (schedule[k] - schedule[k - 1]) / (
            schedule[k - 1] - schedule[k - 2])
        assert np.allclose(opened[schedule[k]], g2 + ratio * (g2 - g1),
                           rtol=1e-14, atol=1e-14)
        # the potentials move by tens of units of eps from level to level
        assert np.abs(opened[schedule[k]] - g2).max() > schedule[k]


@pytest.mark.parametrize("case", ["1d", "17x17"])
def test_levels_open_from_the_line_through_the_last_two_ends(monkeypatch,
                                                             case):
    # from the third level of a loop on, each level opens from
    # g_k + (eps - eps_k) / (eps_k - eps_(k-1)) (g_k - g_(k-1)), the g at
    # the end of that loop's last two levels extrapolated linearly in eps.
    # The coarse head is one loop (its handover opening included), the fine
    # levels after it another: the first two fine levels open from the
    # prolonged coarse g and the plain previous g.  A warm attempt opens
    # from the warm g itself
    if case == "1d":
        dom = unit_interval(33)
        mu0 = sinusoid_measure(dom, base=0.8, amplitude=0.2)
        mu1 = sinusoid_measure(dom, base=0.5, amplitude=0.3, frequency=2.0)
    else:
        mu0, mu1 = pair(("smooth", 0))
    a, b = mu0.node_masses, mu1.node_masses
    src, tgt, cost, _ = hk._in_reach(mu0.domain, a, b)
    a, b = a[src], b[tgt]
    grid = (mu0.domain, src, tgt)
    schedule = hk.DEFAULT_EPS_SCHEDULE
    args = (hk.NEWTON_MAX_ITER, hk.NEWTON_TOL)
    sol, fine, coarse, heads = _opening_potentials(monkeypatch, a, b, cost,
                                                   grid=grid)
    assert sol.converged
    first = sol.coarse
    assert first == (0 if case == "1d" else 4)
    assert list(fine) == list(schedule[first:])

    # the g level k ends on: the first k + 1 levels of the schedule run as
    # they do in the whole schedule, and g is kept after the last
    end = {k: hk._dual_newton(a, b, cost, schedule[:k + 1], *args,
                              grid=grid).g
           for k in range(first, len(schedule) - 1)}
    assert np.array_equal(fine[schedule[first]], np.zeros(b.size) if
                          first == 0 else heads[0][1])
    assert np.array_equal(fine[schedule[first + 1]], end[first])
    _assert_opens_on_the_line(fine, end, schedule,
                              range(first + 2, len(schedule)))
    if case == "1d":
        assert heads == [] and coarse == {}
    else:
        # the coarse levels, then the opening the head hands over at
        head, _ = heads[0]
        assert len(heads) == 1 and len(head.levels) == first
        assert list(coarse) == list(schedule[:first + 1])
        # the tolerance _dual_newton hands down, scaled by the masses
        tol = hk.NEWTON_TOL * max(1.0, float(a.sum()) + float(b.sum()))
        end = {k: hk._coarse_head(a, b, schedule[:k + 1], hk.NEWTON_MAX_ITER,
                                  tol, *grid)[0].g for k in range(first)}
        assert np.array_equal(head.g, end[first - 1])
        assert not coarse[schedule[0]].any()
        assert np.array_equal(coarse[schedule[1]], end[0])
        _assert_opens_on_the_line(coarse, end, schedule, range(2, first + 1))
    # a warm attempt solves the final level from the warm g itself
    warm, fine, _, heads = _opening_potentials(
        monkeypatch, a, b, cost, warm=(b, sol.g, ()), grid=grid)
    assert warm.converged and len(warm.levels) == 1 and not heads
    assert list(fine) == [schedule[-1]]
    assert np.array_equal(fine[schedule[-1]], sol.g)


def _level_ends(monkeypatch, solve):
    """The result of solve() and the levels of each level loop
    (hk._continuation) it ran, in order, as (tol, total, ends): the loop's
    scaled tolerance, its sum a + sum b, and per level (eps, gradient
    max-norm) where the level ended: the last point evaluated before the
    next level opens (its first f-sweep on the full plan or its support
    opening), before the next loop, or before a distance solve's closing
    f-sweep."""
    events = []
    sweep, support_opening, point = hk._sweep, hk._support_opening, hk._Point
    continuation = hk._continuation

    def spy_continuation(a, cost, schedule, max_iter, tol, term, b, *args,
                         **kw):
        # a distance solve's loop closes with an f-sweep, the coarse head's
        # (handover) does not
        closes = term is None and not kw.get("handover")
        events.append((tol, float(a.sum() + b.sum()), closes))
        return continuation(a, cost, schedule, max_iter, tol, term, b,
                            *args, **kw)

    def spy_sweep(x, log_mass, c, eps, axis):
        if axis == 1:
            events.append(eps)
        return sweep(x, log_mass, c, eps, axis)

    def spy_opening(g, log_a, log_b, eps, kernel_min, support):
        events.append(eps)
        return support_opening(g, log_a, log_b, eps, kernel_min, support)

    def spy_point(*args):
        events.append(point(*args))
        return events[-1]

    with monkeypatch.context() as mp:
        mp.setattr(hk, "_continuation", spy_continuation)
        mp.setattr(hk, "_sweep", spy_sweep)
        mp.setattr(hk, "_support_opening", spy_opening)
        mp.setattr(hk, "_Point", spy_point)
        res = solve()
    loops = []
    for event in events:
        if isinstance(event, point):
            loops[-1][3][-1][1] = event.gnorm
        elif isinstance(event, float):
            loops[-1][3].append([event, None])
        else:
            loops.append((*event, []))
    found = []
    for tol, total, closes, ends in loops:
        # openings that evaluated nothing (the coarse head's handover, or a
        # support opening that fell back to the full plan) end no level; a
        # distance solve's last entry is its closing sweep's
        ends = [tuple(end) for end in ends if end[1] is not None]
        found.append((tol, total, ends[:-1] if closes else ends))
    return res, found


@pytest.mark.parametrize("case, at_tol", [("1d", 55), ("17x17", 71),
                                          ("hk-step", 39), ("shk-step", 61)])
def test_intermediate_levels_end_at_what_the_next_level_needs(monkeypatch,
                                                              case, at_tol):
    # every dual solve, a distance solve's (coarse levels included) or an
    # implicit step's, ends a level at eps above DEFAULT_EPS_SCHEDULE[-1]
    # at gradient max-norm max(tol, NEWTON_LEVEL_TOL eps (sum a + sum b)),
    # and every finer level at tol: the Newton count falls below at_tol,
    # the count with every level of the steps' solves (and of the distance
    # solves) run to tol
    dom = unit_interval(33)
    mu = sinusoid_measure(dom, base=0.8, amplitude=0.2)
    E = power_mass_entropy(1.0, 2.0, -1.0)
    if case == "1d":
        nu = sinusoid_measure(dom, base=0.5, amplitude=0.3, frequency=2.0)
        solve, schedule = (lambda: hk_distance_squared(mu, nu),
                           hk.DEFAULT_EPS_SCHEDULE)
    elif case == "17x17":
        solve, schedule = (lambda: hk_distance_squared(*pair(("smooth", 0))),
                           hk.DEFAULT_EPS_SCHEDULE)
    elif case == "hk-step":
        solve, schedule = lambda: mm_step(mu, 0.005, E), STEP_EPS_SCHEDULE
    else:
        unit = DiscreteMeasure(dom, mu.density / mu.mass)
        solve, schedule = (lambda: shk_mm_step(unit, 0.02, E),
                           STEP_EPS_SCHEDULE)
    res, loops = _level_ends(monkeypatch, solve)
    assert res.converged
    # the cold schedule runs first, its coarse head (if any) then the fine
    # levels; a step's warm re-solves and final distance solve follow
    cold = [eps for _, _, ends in loops for eps, _ in ends][:len(schedule)]
    assert cold == list(schedule)
    for tol, total, ends in loops:
        for eps, gnorm in ends:
            assert gnorm <= (max(tol, hk.NEWTON_LEVEL_TOL * eps * total)
                             if eps > hk.DEFAULT_EPS_SCHEDULE[-1] else tol)
    assert res.iterations < at_tol
