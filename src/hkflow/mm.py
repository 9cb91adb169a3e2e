"""Minimizing-movement (implicit Euler) steps for entropy functionals in
the transport-growth and spherical transport-growth metrics.

A single step from mu solves

    min_nu  d(mu, nu)^2 / (2 tau) + E-functional(nu),

with d either the transport-growth distance or its spherical version.
The scalar reduction (spatially constant densities, reaction only) has an
explicit first-order condition solved by bisection.  The measure-valued
step of both metrics is one smooth concave maximization over the dual
potentials of the distance solve: its regularized dual is linear in the
target masses, so the minimum over the new density is the energy's convex
conjugate (the generic formulation of Chizat, Peyre, Schmitzer & Vialard,
Math. Comp. 2018, applied to gradient-flow steps as in Peyre, SIAM J.
Imaging Sci. 2015).  From the zero measure the HK step is separable and
has a closed form.  Energies without a closed-form conjugate and
density-capped steps take L-BFGS-B over log-densities instead, with exact
gradients from the dual potentials.  hk.is_spherical picks the step a name
selects."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .entropy import EntropySpec, eval_functional
from .hk import (DEFAULT_EPS_SCHEDULE, NEWTON_MAX_ITER, NEWTON_TOL,
                 _domain_cost, _dual_newton, has_unit_mass,
                 hk_distance_squared, is_spherical, regularized_dual,
                 shk_from_hk_squared, shk_squared_derivative)
from .measures import DiscreteMeasure

# L-BFGS-B settings of the implicit steps without a conjugate: gradient
# tolerance on the log-densities, iteration cap
STEP_GRAD_TOL = 1e-7
STEP_MAX_ITER = 500

# eps schedule of the dual step: the distance solve's, continued to 1e-8.
# At a final eps of 1e-6 the regularized minimizer moves uniform SHK data by
# 4.8e-7 per step at the half-weight end nodes, at 1e-8 by 4.8e-9; a step
# density on 33 nodes at tau = 0.02 sits 2.3e-4 off its eps -> 0 limit at
# 1e-6, 2.1e-6 at 1e-8.
STEP_EPS_SCHEDULE = DEFAULT_EPS_SCHEDULE + (1e-7, 1e-8)
# cap on the spherical step's fixed-point iterations for s = Phi'(HK^2)
STEP_SCALE_MAX_ITER = 20


# ---------------------------------------------------------------------------
# scalar (reaction-only) steps


def scalar_mm_step(c0: float, tau: float, E: EntropySpec) -> float:
    """One implicit step of the scalar flow: the unique root of
    1 - sqrt(c0/c) + 2 tau E'(c) = 0, found by bisection.

    With no transport the squared distance between constant levels is the
    pure reaction cost c0 + c - 2 sqrt(c0 c), whose c-derivative gives the
    optimality condition above.  From c0 = 0 the cost is c, and the step is
    0 unless E'(0) < -1 / (2 tau).
    """
    if c0 < 0 or tau <= 0:
        raise ValueError("needs nonnegative level and positive step")

    def phi(c):
        root = math.sqrt(c0 / c) if c0 > 0 else 0.0
        return 1.0 - root + 2.0 * tau * float(E.derivative(c))

    lo = c0 * 1e-12
    while phi(lo) > 0:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    hi = max(c0, 1.0)
    grow = 0
    while phi(hi) < 0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("scalar step does not stabilize: "
                               "E' too negative at large levels")
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_shk_mm_step(c0: float, tau: float, E: EntropySpec) -> float:
    """The spherical scalar flow fixes the mass, so a constant level is
    stationary: the step returns the input."""
    if c0 < 0 or tau <= 0:
        raise ValueError("needs nonnegative level and positive step")
    return c0


def scalar_step_monotonicity(c0: float, c1: float, tau: float,
                             E: EntropySpec) -> dict:
    """Order relations between the input level, the output level, and the
    sign of E' at each, all to 1e-9: the step decreases the level exactly
    when E' at the output is nonnegative."""
    d1 = float(E.derivative(c1))
    d0 = float(E.derivative(c0))
    return {
        "decreases_iff_derivative_nonneg": (c1 <= c0 + 1e-9) == (d1 >= -1e-9),
        "increases_iff_derivative_nonpos": (c1 >= c0 - 1e-9) == (d1 <= 1e-9),
        "derivative_in": d0,
        "derivative_out": d1,
    }


def scalar_upper_bound(c0: float, tau: float, E: EntropySpec,
                       reference: float) -> float:
    """Level bound max{a, c0 / (1 + 2 tau min{E'(a), 0})^2} valid for the
    scalar step whenever 2 tau E'(a) > -1."""
    da = min(float(E.derivative(reference)), 0.0)
    if 1.0 + 2.0 * tau * da <= 0:
        return math.inf
    return max(reference, c0 / (1.0 + 2.0 * tau * da) ** 2)


def scalar_lower_bound(c0: float, tau: float, E: EntropySpec,
                       reference: float) -> float:
    """Level bound min{b, c0 / (1 + 2 tau max{E'(b), 0})^2}."""
    db = max(float(E.derivative(reference)), 0.0)
    return min(reference, c0 / (1.0 + 2.0 * tau * db) ** 2)


# ---------------------------------------------------------------------------
# measure-valued steps


@dataclass
class MMStepResult:
    """One implicit step.  ``objective`` is d^2/(2 tau) + E at the new
    measure, with d^2 from the step's final distance solve's dual value;
    ``distance_squared`` and ``plan`` are that solve's.  On the dual path
    ``iterations`` counts the step's Newton iterations and ``grad_norm`` is
    the max-norm of the dual gradient at its end; on the L-BFGS-B path they
    are L-BFGS-B iterations and the max-norm of the log-density gradient.
    ``warm`` = (g, lam, s) is the state the next step starts from: the
    target potentials over all nodes, the spherical mass multiplier and step
    scale (0 and 1 on the L-BFGS-B path)."""

    measure: DiscreteMeasure
    objective: float
    distance_squared: float
    grad_norm: float
    iterations: int
    converged: bool
    plan: np.ndarray | None = None
    warm: tuple | None = None


def _implicit_step(mu0, tau, E, spherical, x0, warm,
                   density_cap) -> MMStepResult:
    """Implicit step of either metric from warm, a previous step's ``warm``
    or None.  A step from the zero measure (which has no source potentials)
    takes its closed form; otherwise an energy with a closed-form conjugate
    takes the concave dual step, and linear, zero and table energies and
    capped steps take L-BFGS-B."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    if mu0.mass == 0:
        return _zero_source_step(mu0, tau, E, density_cap)
    if E.conjugate is not None and density_cap is None:
        return _dual_step(mu0, tau, E, spherical, x0, warm)
    return _lbfgs_step(mu0, tau, E, spherical, x0, warm, density_cap)


def _zero_source_step(mu0, tau, E, density_cap) -> MMStepResult:
    """HK step from the zero measure.  With no source HK^2 = mass(nu), so
    each node minimizes rho / (2 tau) + E(rho) on its own: rho is the
    scalar step from 0, held below the cap, and the cap itself where
    1 + 2 tau E' < 0 there.  One distance solve certifies the step; it has
    no potentials to warm-start the next one."""
    w = mu0.domain.weights
    cap = math.inf if density_cap is None else density_cap
    if cap < math.inf and 1.0 + 2.0 * tau * float(E.derivative(cap)) < 0:
        level = cap
    else:
        level = min(scalar_mm_step(0.0, tau, E), cap)
    nu = DiscreteMeasure(mu0.domain, np.full(w.size, level))
    final = hk_distance_squared(mu0, nu)
    return MMStepResult(nu, final.dual_value / (2.0 * tau)
                        + float(w @ E(nu.density)), final.hk_squared, 0.0, 0,
                        final.converged, final.plan)


def _metric_d2(spherical, hk2):
    """Squared step distance and its derivative in HK^2."""
    if spherical:
        return shk_from_hk_squared(hk2) ** 2, shk_squared_derivative(hk2)
    return hk2, 1.0


class _ConjugateTerm:
    """The step's target term of hk._dual_newton: with p = -k / (2 tau),

        F(k) = -2 tau sum_j w_j E*(p_j),

    whose k-gradient w E*'(p) = w rho gives the target masses.  The
    spherical term adds the mass multiplier lam as theta:
    F(k, lam) = -2 tau (sum_j w_j E*(p_j - lam) + lam), concave in both."""

    def __init__(self, E, w, two_tau, spherical):
        self.E, self.w, self.two_tau = E, w, two_tau
        self.spherical = spherical

    def value(self, kappa, theta):
        w, two_tau = self.w, self.two_tau
        lam = theta[0] if self.spherical else 0.0
        rho, estar, curv = self.E.conjugate(-kappa / two_tau - lam)
        F = -two_tau * (float(w @ estar) + lam)
        b = w * rho
        d = w * curv / two_tau
        if not self.spherical:
            return F, b, (), d, np.empty((0, b.size))
        # dF/dlam = 2 tau (mass - 1); lam enters every p_j with weight 2 tau
        # relative to k_j
        return (F, b, (two_tau * (float(b.sum()) - 1.0),), d,
                np.full((1, b.size), two_tau))

    def opening(self, kappa, theta):
        """The lam of unit mass at these slopes, by Newton's method kept
        inside a bracket: mass(lam) = sum w E*'(p - lam) falls as lam
        grows, and is +inf where some p - lam leaves the domain of E*."""
        if not self.spherical:
            return theta
        p = -kappa / self.two_tau
        lam = float(theta[0])
        lo, hi = -math.inf, math.inf
        for _ in range(200):
            rho, _, curv = self.E.conjugate(p - lam)
            excess = float(self.w @ rho) - 1.0
            if not excess <= 0.0:  # too much mass, or outside the domain
                lo = lam
            else:
                hi = lam
            if abs(excess) <= 1e-15 or hi - lo <= 1e-15 * abs(lam):
                break
            slope = float(self.w @ curv)
            guess = lam + excess / slope if slope > 0 else math.nan
            if lo < guess < hi:
                lam = guess
            elif math.isinf(hi):
                lam = lo + max(1.0, abs(lo))
            elif math.isinf(lo):
                lam = hi - max(1.0, abs(hi))
            else:
                lam = 0.5 * (lo + hi)
        return np.array([lam])


def _dual_step(mu0, tau, E, spherical, x0, warm) -> MMStepResult:
    """Implicit step as one concave maximization over dual potentials.

    The regularized dual of the distance solve is linear in the target
    masses b = w rho, so minimizing it over rho together with the energy
    gives, through the conjugate E*,

        max_{f,g}  sum a (1 - e^-f) - 2 tau sum_j w_j E*(-k_j / (2 tau)),

    with k_j the dual's slope in b_j (see hk._dual_newton), solved by the
    distance solve's own Newton loop.  The new density is
    rho = E*'(-k / (2 tau)).  The spherical step adds the mass multiplier
    lam as one more concave variable (E -> E + lam c, plus -2 tau lam) and
    solves at tau / s with s = Phi'(HK^2), Phi(x) = 4 arcsin^2(sqrt(x)/2),
    found by a scalar fixed point on warm re-solves, HK^2 being the dual
    distance at the step's own potentials; rho is then renormalized.

    Each solve is one _dual_newton call over STEP_EPS_SCHEDULE with the
    cold seed b0 = w x0 (x0 defaults to mu0's density), warm-started from
    the previous step's warm = (g, lam, s) and, in the fixed point, from
    the previous solve; _dual_newton falls back to the cold seed on its
    own.  The step ends with one distance solve from mu0 to the new
    measure, warm-started from the step's target potentials, which
    supplies the distance, objective and plan.
    """
    dom = mu0.domain
    w = dom.weights
    a_full = mu0.density * w
    src = np.flatnonzero(a_full > 0)
    a = a_full[src]
    cost = _domain_cost(dom)[src]
    b0 = w * (mu0.density if x0 is None else np.asarray(x0, dtype=float))
    tol = NEWTON_TOL * max(1.0, float(a.sum() + b0.sum()))
    theta0 = (0.0,) if spherical else ()

    def solve(step_tau, start):
        term = _ConjugateTerm(E, w, 2.0 * step_tau, spherical)
        return _dual_newton(a, b0, cost, STEP_EPS_SCHEDULE, NEWTON_MAX_ITER,
                            tol, term, theta0, start)

    s, start = 1.0, None
    if warm is not None:
        g_prev, lam_prev, s = warm
        start = (b0, g_prev, (lam_prev,) if spherical else ())
    sol = solve(tau / s, start)
    iterations = sum(sol.levels)
    settled = not spherical
    for _ in range(STEP_SCALE_MAX_ITER if spherical else 0):
        s_new = shk_squared_derivative(
            regularized_dual(a, sol.b, sol.f, sol.g, sol.plan, sol.eps))
        if abs(s_new - s) <= 1e-13 * s:
            settled = True
            break
        s = s_new
        sol = solve(tau / s, (sol.b, sol.g, sol.theta))
        iterations += sum(sol.levels)

    rho = sol.b / w
    if spherical:
        rho = rho / float(w @ rho)
    nu = DiscreteMeasure(dom, rho)
    final = hk_distance_squared(mu0, nu, warm_start=sol.g)
    d2 = _metric_d2(spherical, final.dual_value)[0]
    lam = float(sol.theta[0]) if spherical else 0.0
    return MMStepResult(nu, d2 / (2.0 * tau) + float(w @ E(rho)),
                        _metric_d2(spherical, final.hk_squared)[0],
                        sol.gnorm, iterations,
                        settled and sol.converged and final.converged,
                        final.plan, (sol.g, lam, s))


def _lbfgs_step(mu0, tau, E, spherical, x0, warm,
                density_cap) -> MMStepResult:
    """Implicit step of either metric, by L-BFGS-B over u = log density.

    The squared-distance part of the gradient comes from the converged
    dual potentials, exact at the optimum by the envelope argument.  With
    spherical set, u maps to the unit-mass density e^u / (w . e^u) and
    HK^2 to SHK^2.  A density cap is a box constraint on u.  Distance solves
    are warm-started from the last one (the first from warm).  As u hides
    the gradient where rho is about 0, convergence also asks the
    rho-problem's sign condition there: dJ/drho_j / w_j >= -1e3
    STEP_GRAD_TOL, less the mass multiplier rho . dJ/drho when
    spherical."""
    dom = mu0.domain
    w = dom.weights
    g_warm = None if warm is None else warm[0]

    def density(u):
        if not spherical:
            return np.exp(u)
        e = np.exp(u - np.max(u))
        return e / float(w @ e)

    def solve(rho):
        nonlocal g_warm
        res = hk_distance_squared(mu0, DiscreteMeasure(dom, rho),
                                  warm_start=g_warm)
        g_warm = res.potential_target
        return res

    def objective(rho, res):
        """J = d^2 / (2 tau) + E at rho, and dJ/drho, from rho's solve."""
        d2, slope = _metric_d2(spherical, res.dual_value)
        g_rho = (slope * (w * res.target_slope) / (2.0 * tau)
                 + w * E.derivative(rho))
        return d2 / (2.0 * tau) + float(w @ E(rho)), g_rho

    def fun(u):
        rho = density(u)
        val, g_rho = objective(rho, solve(rho))
        grad_u = rho * g_rho
        if spherical:
            # chain rule through the normalization rho = e^u / (w . e^u)
            grad_u = grad_u - w * rho * float(rho @ g_rho)
        return val, grad_u

    u0 = np.log(np.maximum(mu0.density if x0 is None else x0, 1e-14))
    bounds = None
    if density_cap is not None:
        cap = math.log(density_cap)
        u0 = np.minimum(u0, cap)
        bounds = [(None, cap)] * u0.size
    out = minimize(fun, u0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": STEP_MAX_ITER, "gtol": STEP_GRAD_TOL,
                            "ftol": 1e-14})
    rho1 = density(out.x)
    final = solve(rho1)
    g_rho = objective(rho1, final)[1]
    slack = g_rho / w - (float(rho1 @ g_rho) if spherical else 0.0)
    empty = rho1 <= 1e-10 * float(np.max(rho1))
    grad_norm = float(np.max(np.abs(out.jac)))
    converged = bool((out.success or grad_norm < 10 * STEP_GRAD_TOL)
                     and np.all(slack[empty] >= -1e3 * STEP_GRAD_TOL)
                     and final.converged)
    return MMStepResult(DiscreteMeasure(dom, rho1), float(out.fun),
                        _metric_d2(spherical, final.hk_squared)[0],
                        grad_norm, int(out.nit), converged, final.plan,
                        (final.potential_target, 0.0, 1.0))


def mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
            x0: np.ndarray | None = None, warm=None,
            density_cap: float | None = None) -> MMStepResult:
    """Implicit step in the transport-growth metric.  A density cap bounds
    the new density from above, for hard-constrained functionals such as
    the linear-below-one limit energy.  x0 (default: mu0's density) is the
    starting density: the target of the first opening sweep on the dual
    path, the L-BFGS-B start otherwise.  warm is the previous step's
    ``warm`` (default None: a cold start)."""
    return _implicit_step(mu0, tau, E, False, x0, warm, density_cap)


def shk_mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                x0: np.ndarray | None = None, warm=None) -> MMStepResult:
    """Implicit step in the spherical metric over unit-mass measures; x0
    and warm as in mm_step."""
    if not has_unit_mass(mu0):
        raise ValueError("spherical step requires a unit-mass input")
    return _implicit_step(mu0, tau, E, True, x0, warm, None)


@dataclass
class MMTrajectory:
    tau: float
    measures: list
    distances_squared: list
    objectives: list

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(len(self.measures))

    @property
    def slope_surrogates(self) -> np.ndarray:
        """d(x_{k-1}, x_k) / tau per step."""
        return np.sqrt(np.maximum(self.distances_squared, 0.0)) / self.tau

    def densities(self) -> np.ndarray:
        return np.array([m.density for m in self.measures])

    def energy(self, E: EntropySpec) -> np.ndarray:
        return np.array([eval_functional(E, m) for m in self.measures])


def mm_trajectory(mu0: DiscreteMeasure, tau: float, n_steps: int,
                  E: EntropySpec, metric: str = "hk",
                  density_cap: float | None = None) -> MMTrajectory:
    """Iterate implicit steps from mu0; metric is "hk" or "shk".  Distance
    solves are warm-started across steps; density_cap (HK only) bounds
    every iterate as in mm_step.  Solver accuracy is fixed:
    STEP_EPS_SCHEDULE, STEP_GRAD_TOL and STEP_MAX_ITER here, the Newton
    settings in hk."""
    spherical = is_spherical(metric)
    if spherical and density_cap is not None:
        raise ValueError("density_cap applies to the HK step only")
    measures = [mu0]
    d2 = []
    objs = []
    warm = None
    cur = mu0
    for k in range(n_steps):
        if spherical:
            res = shk_mm_step(cur, tau, E, warm=warm)
        else:
            res = mm_step(cur, tau, E, warm=warm, density_cap=density_cap)
        warm = res.warm
        if not res.converged:
            raise RuntimeError(f"implicit step {k + 1} did not converge: "
                               f"grad norm {res.grad_norm:.2e}, or its "
                               "final distance solve failed")
        measures.append(res.measure)
        d2.append(res.distance_squared)
        objs.append(res.objective)
        cur = res.measure
    return MMTrajectory(tau, measures, d2, objs)


def restart_agreement(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                      metric: str = "hk") -> float:
    """Largest pairwise objective gap of the step output from mu0's density
    and two seeded random perturbations of it as x0, which seeds the dual
    step's first opening sweep (the L-BFGS-B start without a conjugate)."""
    rng = np.random.default_rng(0)
    step = shk_mm_step if is_spherical(metric) else mm_step
    outs = [step(mu0, tau, E).objective]
    base = np.maximum(mu0.density, 1e-8)
    for _ in range(2):
        x0 = base * np.exp(rng.normal(0.0, 0.3, base.shape))
        outs.append(step(mu0, tau, E, x0=x0).objective)
    return float(max(outs) - min(outs))


# ---------------------------------------------------------------------------
# a-priori density bounds along the flow


def iterate_upper_bound(rho_max0: float, k: int, tau: float,
                        E: EntropySpec) -> float:
    """Exponential bound rho_max0 * exp(8 max{-S, 0} k tau) with
    S = inf{E'(c) : c >= rho_max0}; requires tau * S >= -1/4."""
    grid = np.geomspace(max(rho_max0, 1e-12), 1e6, 256)
    S = float(np.min(E.derivative(grid)))
    if tau * S < -0.25:
        raise ValueError("step size too large for the exponential bound")
    return rho_max0 * math.exp(8.0 * max(-S, 0.0) * k * tau)


def iterate_lower_bound(rho_min0: float, c_low: float) -> float:
    """Persistent floor min{rho_min0, c_low} when E' is negative at and
    below the reference level c_low."""
    return min(rho_min0, c_low)


def iterate_sqrt_growth_bound(rho_max0: float, k: int, tau: float,
                              e_star: float, c_star: float) -> float:
    """Quadratic-in-time bound (sqrt(max{rho_max0, c_star, 4 tau^2
    e_star^2}) + 4 e_star k tau)^2 under E'(c) >= -e_star / sqrt(c) for
    c >= c_star."""
    base = max(rho_max0, c_star, 4.0 * tau * tau * e_star * e_star)
    return (math.sqrt(base) + 4.0 * e_star * k * tau) ** 2


def check_density_bounds(traj: MMTrajectory, E: EntropySpec,
                         metric: str = "hk", slack: float = 1e-9) -> dict:
    """Verify the per-step comparison bounds along a trajectory.

    Transport-growth flow: each iterate's max (min) is controlled by the
    scalar upper (lower) bound seeded at the previous iterate's extremes.
    Spherical flow: the running max never rises, the running min never
    falls."""
    dens = traj.densities()
    ok = True
    records = []
    for k in range(1, dens.shape[0]):
        prev_max = float(np.max(dens[k - 1]))
        prev_min = float(np.min(dens[k - 1]))
        cur_max = float(np.max(dens[k]))
        cur_min = float(np.min(dens[k]))
        if is_spherical(metric):
            up = prev_max
            lo = prev_min
        else:
            up = scalar_upper_bound(prev_max, traj.tau, E, prev_max)
            lo_ref = E.c_low if E.c_low is not None else prev_min
            lo = min(prev_min, lo_ref)
        step_ok = cur_max <= up + slack and cur_min >= lo - slack
        ok = ok and step_ok
        records.append({"step": k, "max": cur_max, "upper": up,
                        "min": cur_min, "lower": lo, "ok": step_ok})
    return {"ok": ok, "steps": records}


def plan_density_violation(step: MMStepResult, mu0: DiscreteMeasure) -> float:
    """Fraction of the step's plan mass sent to nodes where the new
    density exceeds the new density at the sending node by over 1e-9."""
    if step.plan is None:
        raise ValueError("step carries no transport plan")
    rho1 = step.measure.density
    total = float(step.plan.sum())
    if total <= 0:
        return 0.0
    bad = rho1[None, :] > rho1[:, None] + 1e-9
    return float(step.plan[bad].sum()) / total
