"""Minimizing-movement (implicit Euler) steps for entropy functionals in
the transport-growth and spherical transport-growth metrics.

A single step from mu solves

    min_nu  d(mu, nu)^2 / (2 tau) + E-functional(nu),

with d either the transport-growth distance or its spherical version.
The scalar reduction (spatially constant densities, reaction only) has an
explicit first-order condition solved by bisection.  Both metrics share
one measure-valued step, L-BFGS-B over log-densities with exact gradients
from the dual potentials; hk.is_spherical picks the step a name selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .entropy import EntropySpec, eval_functional
from .hk import (has_unit_mass, hk_distance_squared, is_spherical,
                 shk_from_hk_squared, shk_squared_derivative)
from .measures import DiscreteMeasure

# L-BFGS-B settings of every implicit step: gradient tolerance on the
# log-densities, iteration cap
STEP_GRAD_TOL = 1e-7
STEP_MAX_ITER = 500


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


def _implicit_step(mu0, tau, E, spherical, x0, warm,
                   density_cap) -> MMStepResult:
    """Implicit step of either metric, by L-BFGS-B over u = log density.

    The squared-distance part of the gradient comes from the converged
    dual potentials, exact at the optimum by the envelope argument.  With
    spherical set, u maps to the unit-mass density e^u / (w . e^u) and
    HK^2 to SHK^2.  A density cap is a box constraint on u."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    dom = mu0.domain
    w = dom.weights
    if warm is None:
        warm = [None]

    def density(u):
        if not spherical:
            return np.exp(u)
        e = np.exp(u - np.max(u))
        return e / float(w @ e)

    def metric_d2(hk2):  # squared step distance, its derivative in HK^2
        if spherical:
            return shk_from_hk_squared(hk2) ** 2, shk_squared_derivative(hk2)
        return hk2, 1.0

    def solve(rho):
        res = hk_distance_squared(mu0, DiscreteMeasure(dom, rho),
                                  warm_start=warm[0])
        warm[0] = (res.potential_source, res.potential_target)
        return res

    def fun(u):
        rho = density(u)
        res = solve(rho)
        d2, slope = metric_d2(res.dual_value)
        val = d2 / (2.0 * tau) + float(w @ E(rho))
        g_rho = (slope * (w * res.target_slope) / (2.0 * tau)
                 + w * E.derivative(rho))
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
    grad_norm = float(np.max(np.abs(out.jac)))
    converged = bool((out.success or grad_norm < 10 * STEP_GRAD_TOL)
                     and final.converged)
    return MMStepResult(DiscreteMeasure(dom, rho1), float(out.fun),
                        metric_d2(final.hk_squared)[0], grad_norm,
                        int(out.nit), converged, final.plan)


def mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
            x0: np.ndarray | None = None, warm=None,
            density_cap: float | None = None) -> MMStepResult:
    """Implicit step in the transport-growth metric.  A density cap bounds
    the new density from above, for hard-constrained functionals such as
    the linear-below-one limit energy."""
    return _implicit_step(mu0, tau, E, False, x0, warm, density_cap)


def shk_mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                x0: np.ndarray | None = None, warm=None) -> MMStepResult:
    """Implicit step in the spherical metric over unit-mass measures; the
    log-densities are renormalized inside the objective."""
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
    every iterate as in mm_step.  Solver accuracy is fixed: STEP_GRAD_TOL
    and STEP_MAX_ITER here, the distance solve's defaults in hk."""
    spherical = is_spherical(metric)
    if spherical and density_cap is not None:
        raise ValueError("density_cap applies to the HK step only")
    measures = [mu0]
    d2 = []
    objs = []
    warm = [None]
    cur = mu0
    for k in range(n_steps):
        if spherical:
            res = shk_mm_step(cur, tau, E, warm=warm)
        else:
            res = mm_step(cur, tau, E, warm=warm, density_cap=density_cap)
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
                      metric: str = "hk", n_restarts: int = 3,
                      seed: int = 0) -> float:
    """Largest pairwise objective gap of the step output over randomly
    perturbed initial guesses."""
    rng = np.random.default_rng(seed)
    step = shk_mm_step if is_spherical(metric) else mm_step
    outs = [step(mu0, tau, E).objective]
    base = np.maximum(mu0.density, 1e-8)
    for _ in range(n_restarts - 1):
        x0 = base * np.exp(rng.normal(0.0, 0.3, base.shape))
        outs.append(step(mu0, tau, E, x0=x0).objective)
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
