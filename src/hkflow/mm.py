"""Minimizing-movement (implicit Euler) steps for entropy functionals in
the transport-growth and spherical transport-growth metrics.

A single step from mu solves

    min_nu  d(mu, nu)^2 / (2 tau) + E-functional(nu),

with d either the transport-growth distance or its spherical version.
The scalar reduction (spatially constant densities, reaction only) has an
explicit first-order condition solved by bisection; the measure-valued
problem is optimized over log-densities with the exact value gradient of
the squared distance supplied by the converged dual potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .entropy import EntropySpec, eval_functional
from .hk import (hk_distance_squared, shk_from_hk_squared,
                 shk_squared_derivative)
from .measures import DiscreteMeasure


# ---------------------------------------------------------------------------
# scalar (reaction-only) steps


def scalar_mm_step(c0: float, tau: float, E: EntropySpec,
                   tol: float = 1e-12) -> float:
    """One implicit step of the scalar flow: the unique root of
    1 - sqrt(c0/c) + 2 tau E'(c) = 0, found by bisection.

    With no transport the squared distance between constant levels is the
    pure reaction cost c0 + c - 2 sqrt(c0 c), whose c-derivative gives the
    optimality condition above.
    """
    if c0 < 0 or tau <= 0:
        raise ValueError("needs nonnegative level and positive step")
    if c0 == 0.0:
        return 0.0

    def phi(c):
        return 1.0 - math.sqrt(c0 / c) + 2.0 * tau * float(E.derivative(c))

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
    while hi - lo > tol * max(1.0, hi):
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
                             E: EntropySpec, tol: float = 1e-9) -> dict:
    """Order relations between the input level, the output level, and the
    sign of E' at each: the step decreases the level exactly when E' at
    the output is nonnegative."""
    d1 = float(E.derivative(c1))
    d0 = float(E.derivative(c0))
    return {
        "decreases_iff_derivative_nonneg": (c1 <= c0 + tol) == (d1 >= -tol),
        "increases_iff_derivative_nonpos": (c1 >= c0 - tol) == (d1 <= tol),
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
    measure: DiscreteMeasure
    objective: float
    distance_squared: float
    grad_norm: float
    iterations: int
    converged: bool
    plan: np.ndarray | None = None


def _hk_value_and_grad(mu0, domain, rho, warm, solver_kw):
    """Smooth surrogate of the squared distance and its exact density
    gradient, from the regularized dual at the converged potentials."""
    nu = DiscreteMeasure(domain, rho)
    res = hk_distance_squared(mu0, nu, warm_start=warm[0], **solver_kw)
    warm[0] = (res.potential_source, res.potential_target)
    grad_rho = domain.weights * res.target_slope
    return res.dual_value, grad_rho


def _step_converged(out, grad_tol, final) -> bool:
    """The outer minimization converged and so did the final distance
    solve the step reports."""
    return bool((out.success or np.max(np.abs(out.jac)) < 10 * grad_tol)
                and final.converged)


def mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
            grad_tol: float = 1e-7, max_iter: int = 500,
            x0: np.ndarray | None = None, warm=None,
            density_cap: float | None = None, **solver_kw) -> MMStepResult:
    """Implicit step in the transport-growth metric.

    Optimizes over u = log density; the squared-distance part of the
    gradient comes from the converged dual potentials, exact at the
    optimum by the envelope argument.  A density cap turns into a simple
    box constraint on u, which handles hard-constrained functionals such
    as the linear-below-one limit energy.
    """
    if tau <= 0:
        raise ValueError("step size must be positive")
    dom = mu0.domain
    w = dom.weights
    if warm is None:
        warm = [None]
    floor = 1e-14

    def fun(u):
        rho = np.exp(u)
        hk2, grad_rho = _hk_value_and_grad(mu0, dom, rho, warm, solver_kw)
        val = hk2 / (2.0 * tau) + float(w @ E(rho))
        grad_u = rho * (grad_rho / (2.0 * tau) + w * E.derivative(rho))
        return val, grad_u

    u0 = np.log(np.maximum(mu0.density if x0 is None else x0, floor))
    bounds = None
    if density_cap is not None:
        cap = math.log(density_cap)
        u0 = np.minimum(u0, cap)
        bounds = [(None, cap)] * u0.size
    out = minimize(fun, u0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": max_iter, "gtol": grad_tol,
                            "ftol": 1e-14})
    rho1 = np.exp(out.x)
    final = hk_distance_squared(mu0, DiscreteMeasure(dom, rho1),
                                warm_start=warm[0], **solver_kw)
    warm[0] = (final.potential_source, final.potential_target)
    return MMStepResult(DiscreteMeasure(dom, rho1), float(out.fun),
                        final.hk_squared,
                        float(np.max(np.abs(out.jac))), int(out.nit),
                        _step_converged(out, grad_tol, final), final.plan)


def shk_mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                grad_tol: float = 1e-7, max_iter: int = 500,
                x0: np.ndarray | None = None, warm=None,
                **solver_kw) -> MMStepResult:
    """Implicit step in the spherical metric over unit-mass measures.

    Optimizes unnormalized log-densities and renormalizes inside the
    objective, so the probability constraint is built in.
    """
    if tau <= 0:
        raise ValueError("step size must be positive")
    if abs(mu0.mass - 1.0) > 1e-8:
        raise ValueError("spherical step requires a unit-mass input")
    dom = mu0.domain
    w = dom.weights
    if warm is None:
        warm = [None]
    floor = 1e-14

    def fun(u):
        e = np.exp(u - np.max(u))
        m = float(w @ e)
        rho = e / m
        hk2, grad_rho_hk = _hk_value_and_grad(mu0, dom, rho, warm, solver_kw)
        val = shk_from_hk_squared(hk2) ** 2 / (2.0 * tau) + float(w @ E(rho))
        g_rho = (shk_squared_derivative(hk2) * grad_rho_hk / (2.0 * tau)
                 + w * E.derivative(rho))
        # chain rule through the normalization rho = e^u / (w . e^u)
        grad_u = rho * g_rho - w * rho * float(rho @ g_rho)
        return val, grad_u

    u0 = np.log(np.maximum(mu0.density if x0 is None else x0, floor))
    out = minimize(fun, u0, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "gtol": grad_tol,
                            "ftol": 1e-14})
    e = np.exp(out.x - np.max(out.x))
    rho1 = e / float(w @ e)
    final = hk_distance_squared(mu0, DiscreteMeasure(dom, rho1),
                                warm_start=warm[0], **solver_kw)
    warm[0] = (final.potential_source, final.potential_target)
    return MMStepResult(DiscreteMeasure(dom, rho1), float(out.fun),
                        shk_from_hk_squared(final.hk_squared) ** 2,
                        float(np.max(np.abs(out.jac))), int(out.nit),
                        _step_converged(out, grad_tol, final), final.plan)


@dataclass
class MMTrajectory:
    tau: float
    measures: list
    distances_squared: list
    objectives: list
    plans: list = field(default_factory=list)

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
                  grad_tol: float = 1e-7, **solver_kw) -> MMTrajectory:
    """Iterate implicit steps from mu0; metric is "hk" or "shk"."""
    step = {"hk": mm_step, "shk": shk_mm_step}[metric]
    measures = [mu0]
    d2 = []
    objs = []
    plans = []
    warm = [None]
    cur = mu0
    for k in range(n_steps):
        res = step(cur, tau, E, grad_tol=grad_tol, warm=warm, **solver_kw)
        if not res.converged:
            raise RuntimeError(f"implicit step {k + 1} did not converge: "
                               f"grad norm {res.grad_norm:.2e}, or its "
                               "final distance solve failed")
        measures.append(res.measure)
        d2.append(res.distance_squared)
        objs.append(res.objective)
        plans.append(res.plan)
        cur = res.measure
    return MMTrajectory(tau, measures, d2, objs, plans)


def restart_agreement(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                      metric: str = "hk", n_restarts: int = 3,
                      seed: int = 0, **kw) -> float:
    """Largest pairwise objective gap of the step output over randomly
    perturbed initial guesses."""
    rng = np.random.default_rng(seed)
    step = {"hk": mm_step, "shk": shk_mm_step}[metric]
    outs = [step(mu0, tau, E, **kw).objective]
    base = np.maximum(mu0.density, 1e-8)
    for _ in range(n_restarts - 1):
        x0 = base * np.exp(rng.normal(0.0, 0.3, base.shape))
        outs.append(step(mu0, tau, E, x0=x0, **kw).objective)
    return float(max(outs) - min(outs))


# ---------------------------------------------------------------------------
# a-priori density bounds along the flow


def iterate_upper_bound(rho_max0: float, k: int, tau: float,
                        E: EntropySpec, search_hi: float = 1e6) -> float:
    """Exponential bound rho_max0 * exp(8 max{-S, 0} k tau) with
    S = inf{E'(c) : c >= rho_max0}; requires tau * S >= -1/4."""
    grid = np.geomspace(max(rho_max0, 1e-12), search_hi, 256)
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
        if metric == "shk":
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


def plan_density_violation(step: MMStepResult, mu0: DiscreteMeasure,
                           tol: float = 1e-9) -> float:
    """Fraction of the step's plan mass sent to nodes where the new
    density exceeds the new density at the sending node."""
    if step.plan is None:
        raise ValueError("step carries no transport plan")
    rho1 = step.measure.density
    total = float(step.plan.sum())
    if total <= 0:
        return 0.0
    bad = rho1[None, :] > rho1[:, None] + tol
    return float(step.plan[bad].sum()) / total
