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
Imaging Sci. 2015).  The steps of the other cases have closed forms and
solve nothing: from the zero measure the HK step is separable, and an
energy without a conjugate is linear, E = gamma c, so it depends on the
mass alone and its HK step scales the input (its SHK step keeps it).
hk.is_spherical picks the step a name selects."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, eval_functional
from .hk import (DEFAULT_EPS_SCHEDULE, NEWTON_MAX_ITER, NEWTON_TOL,
                 _dual_newton, _in_reach, has_unit_mass,
                 hk_distance_squared, is_spherical, mass_gap_lower_bound,
                 metric_squared, regularized_dual, shk_squared_derivative)
from .measures import DiscreteMeasure

log = logging.getLogger(__name__)

# eps schedule of the dual step: the distance solve's, continued to 1e-8.
# At a final eps of 1e-6 the regularized minimizer moves uniform SHK data by
# 4.8e-7 per step at the half-weight end nodes, at 1e-8 by 4.8e-9; a step
# density on 33 nodes at tau = 0.02 sits 2.3e-4 off its eps -> 0 limit at
# 1e-6, 2.1e-6 at 1e-8.
STEP_EPS_SCHEDULE = DEFAULT_EPS_SCHEDULE + (1e-7, 1e-8)
# cap on the re-solves of the step-scale fixed point s = Phi'(HK^2): a
# step makes at most 1 + STEP_SCALE_MAX_ITER dual solves, and is
# unconverged if s has not settled by then.  One loop serves both metrics:
# HK is the case s = 1, settled after its first solve, and a solve that
# does not converge ends the step.  s settles once it moves by at most
# NEWTON_TOL relative: the step's target masses then move by less than the
# solve's own tolerance, and s itself is known only to about 1e-12
# relative, so a tighter test stops by chance (see _dual_step)
STEP_SCALE_MAX_ITER = 20


# ---------------------------------------------------------------------------
# scalar (reaction-only) steps


def scalar_mm_step(c0: float, tau: float, E: EntropySpec) -> float:
    """One implicit step of the scalar flow: the unique root of
    1 - sqrt(c0/c) + 2 tau E'(c) = 0, found by bisection to 1e-12 relative.

    With no transport the squared distance between constant levels is the
    pure reaction cost c0 + c - 2 sqrt(c0 c), whose c-derivative gives the
    optimality condition above.  From c0 = 0 the cost is c, and the step is
    0 unless E'(0) < -1 / (2 tau).  A level that grows without bound (E'
    below -1 / (2 tau) at every level) has no step: the objective is
    unbounded below, and the step raises ValueError.
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
            raise ValueError(f"the step objective is unbounded below at "
                             f"tau = {tau:g}: 1 + 2 tau E' < 0 at every "
                             "level")
    while hi - lo > 1e-12 * hi and hi > 1e-300:
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_shk_mm_step(c0: float, tau: float) -> float:
    """The spherical scalar flow fixes the mass, so a constant level is
    stationary under every energy: the step returns the input."""
    if c0 < 0 or tau <= 0:
        raise ValueError("needs nonnegative level and positive step")
    return c0


def scalar_step_monotonicity(c0: float, c1: float, E: EntropySpec) -> dict:
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
    measure.  On the dual path d^2 is the dual value of the step's final
    distance solve, whose ``distance_squared`` and ``plan`` the step
    returns; ``iterations`` counts the step's Newton iterations,
    ``grad_norm`` is the max-norm of the dual gradient at its end, and
    ``warm`` = (g, lam, s) is the state the next step starts from: the
    target potentials over all nodes, the spherical mass multiplier and
    step scale.  A closed-form step solves nothing: its squared distance
    is the mass bound, which its diagonal plan attains, so its objective
    is exact; its ``iterations`` and ``grad_norm`` are 0 and its ``warm``
    is None.  ``factor_fallbacks`` sums the factorization failures of the
    step's solves (see HKResult)."""

    measure: DiscreteMeasure
    objective: float
    distance_squared: float
    grad_norm: float
    iterations: int
    converged: bool
    plan: np.ndarray | None = None
    warm: tuple | None = None
    factor_fallbacks: int = 0


def _implicit_step(mu0, tau, E, spherical, warm) -> MMStepResult:
    """Implicit step of either metric from warm, a previous step's ``warm``
    or None.  An energy with a conjugate takes the concave dual step from a
    source with mass; every other step has a closed form:

    * from the zero measure HK^2 = mass(nu), so each node minimizes
      rho / (2 tau) + E(rho) on its own: rho = scalar_mm_step(0, tau, E);
    * a linear energy depends on the mass alone, and HK^2(mu0, nu) >=
      (sqrt m0 - sqrt m1)^2 with equality at nu = c mu0, so its HK step is
      c mu0 with c = scalar_mm_step(1, tau, E); its SHK step is mu0.

    A closed form solves nothing.  Both steps attain the mass bound
    (sqrt m0 - sqrt m1)^2, in the discrete entropy-transport program too:
    the diagonal plan H = diag(sqrt(a b)) of the node masses a, b costs
    nothing and pays exactly the bound in its marginal terms, and the
    bound holds by Jensen.  That bound, mapped to the metric, is the
    step's distance; warm is not read.
    An HK step whose energy falls at least as fast as -mass / (2 tau)
    (1 + 2 tau E'(inf) <= 0) has no minimizer and raises ValueError."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    if not spherical and 1.0 + 2.0 * tau * E.recession_slope <= 0:
        raise ValueError(f"the step objective is unbounded below at tau = "
                         f"{tau:g}: 1 + 2 tau E'(inf) <= 0")
    if mu0.mass == 0:
        rho = np.full(mu0.density.size, scalar_mm_step(0.0, tau, E))
    elif E.conjugate is None:
        if np.any(E.second_derivative(np.geomspace(1e-3, 1e3, 7)) != 0):
            raise ValueError("an energy without a conjugate must be linear "
                             "(E'' = 0)")
        rho = (1.0 if spherical else scalar_mm_step(1.0, tau, E)) * mu0.density
    else:
        return _dual_step(mu0, tau, E, spherical, warm)
    nu = DiscreteMeasure(mu0.domain, rho)
    w = mu0.domain.weights
    d2 = metric_squared("shk" if spherical else "hk")(
        mass_gap_lower_bound(mu0, nu))
    return MMStepResult(nu, d2 / (2.0 * tau) + float(w @ E(rho)), d2, 0.0, 0,
                        True, np.diag(w * np.sqrt(mu0.density * rho)))


class _ConjugateTerm:
    """The step's target term of hk._dual_newton: with p = -k / (2 tau),

        F(k) = -2 tau sum_j w_j E*(p_j),

    whose k-gradient w E*'(p) = w rho gives the target masses.  The
    spherical term adds the mass multiplier lam as theta:
    F(k, lam) = -2 tau (sum_j w_j E*(p_j - lam) + lam), concave in both.
    At each eps-level E* is rounded at its kinks with delta = eps / (2 tau),
    which gives them the stiffness of the level's transport term.

    The solve's slopes k are those of the nodes in ``reach``, the targets
    some source node reaches (within pi/2).  A node beyond pi/2 of every
    source node carries no plan: its g is +inf at the optimum, so its
    slope is fixed at 1 + eps sa, sa the source mass, and F sums over
    every node."""

    def __init__(self, E, w, two_tau, spherical, reach, sa):
        self.E, self.w, self.two_tau = E, w, two_tau
        self.spherical, self.reach, self.sa = spherical, reach, sa

    def density(self, kappa, theta, eps):
        """(rho, E*(p), E*''(p)) at every node, p = -k / (2 tau) - lam, at
        the slopes kappa of the nodes in reach."""
        k = np.full(self.w.size, 1.0 + eps * self.sa)
        k[self.reach] = kappa
        lam = theta[0] if self.spherical else 0.0
        return self.E.conjugate(-k / self.two_tau - lam, eps / self.two_tau)

    def value(self, kappa, theta, eps):
        w, two_tau, reach = self.w, self.two_tau, self.reach
        lam = theta[0] if self.spherical else 0.0
        rho, estar, curv = self.density(kappa, theta, eps)
        F = -two_tau * (float(w @ estar) + lam)
        b = w * rho
        d = (w * curv / two_tau)[reach]
        if not self.spherical:
            return F, b[reach], (), d, np.empty((0, d.size))
        # dF/dlam = 2 tau (mass - 1); lam enters every p_j with weight 2 tau
        # relative to k_j
        return (F, b[reach], (two_tau * (float(b.sum()) - 1.0),), d,
                np.full((1, d.size), two_tau))

    def opening(self, kappa, theta, eps):
        """The lam of unit mass at these slopes, by Newton's method kept
        inside a bracket: mass(lam) = sum w E*'(p - lam) falls as lam
        grows, and is +inf where some p - lam leaves the domain of E*."""
        if not self.spherical:
            return theta
        lam = float(theta[0])
        lo, hi = -math.inf, math.inf
        for _ in range(200):
            rho, _, curv = self.density(kappa, (lam,), eps)
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
        if math.isinf(lo) and excess < -1e-15:
            # the mass stays below 1 however low lam goes: a table with
            # E = +inf above c_max may hold no unit-mass density
            raise ValueError("no unit-mass density within the energy's "
                             "domain: the spherical step has no admissible "
                             "measure")
        return np.array([lam])


def _dual_step(mu0, tau, E, spherical, warm) -> MMStepResult:
    """Implicit step as one concave maximization over dual potentials.

    The regularized dual of the distance solve is linear in the target
    masses b = w rho, so minimizing it over rho together with the energy
    gives, through the conjugate E*,

        max_{f,g}  sum a (1 - e^-f) - 2 tau sum_j w_j E*(-k_j / (2 tau)),

    with k_j the dual's slope in b_j (see hk._dual_newton), solved by the
    distance solve's own Newton loop.  The new density is
    rho = E*'(-k / (2 tau)).  Both metrics solve at tau / s, in one loop.
    The spherical step adds the mass multiplier lam as one more concave
    variable (E -> E + lam c, plus -2 tau lam) and takes s = Phi'(HK^2),
    Phi(x) = 4 arcsin^2(sqrt(x)/2), by a scalar fixed point on warm
    re-solves, HK^2 being the dual distance at the step's own potentials;
    rho is then renormalized.  HK is the case s = 1, which its first solve
    leaves as it is.  The fixed point stops once s moves by at most
    NEWTON_TOL relative, or at the first solve that does not converge, and
    the step then fails.  An s that close moves the step's target masses by
    less than the solve's own tolerance, and below it the updates of s are
    roundoff (up to about 1e-12 relative), so a tighter stop would end by
    chance.

    Each solve is one _dual_newton call over STEP_EPS_SCHEDULE with the
    cold seed b0 = w rho0, mu0's node masses, at tolerance NEWTON_TOL per
    unit of their mass, warm-started from the previous step's warm =
    (g, lam, s) and, in the fixed point, from the previous solve;
    _dual_newton falls back to the cold seed on its own.  The step ends
    with one distance solve from mu0 to the new measure, warm-started from
    the step's target potentials, which supplies the distance, objective
    and plan.

    The solves run over the target nodes some source node reaches (see
    hk._in_reach); the others carry no plan, and the term holds their fixed
    slopes (see _ConjugateTerm).  Their g is 0 in the warm state and the
    final solve's start, which need finite potentials at every node.  Logs
    one debug line per step.
    """
    dom = mu0.domain
    w = dom.weights
    b0 = mu0.density * w
    # every node can take mass: the targets are the nodes a source reaches
    src, reach, cost, _ = _in_reach(dom, b0, w)
    a = b0[src]
    sa = float(a.sum())
    theta0 = (0.0,) if spherical else ()
    # every solve ends at the schedule's last eps
    eps = STEP_EPS_SCHEDULE[-1]
    s, start = 1.0, None
    if warm is not None:
        g_prev, lam_prev, s = warm
        start = (b0[reach], g_prev[reach], (lam_prev,) if spherical else ())
    counts, fallbacks = [], 0
    for _ in range(1 + STEP_SCALE_MAX_ITER):
        term = _ConjugateTerm(E, w, 2.0 * tau / s, spherical, reach, sa)
        sol = _dual_newton(a, b0[reach], cost, STEP_EPS_SCHEDULE,
                           NEWTON_MAX_ITER, NEWTON_TOL, term, theta0, start)
        counts.append(sum(sol.levels))
        fallbacks += sol.fallbacks
        # the density at every node: that of the fixed slope out of reach
        far = np.full(sol.g.size, 1.0 + eps * sa)
        rho = term.density(far, sol.theta, eps)[0]
        rho[reach] = sol.b / w[reach]
        # SHK: Phi' of the dual distance at the solve's potentials, where a
        # node out of reach adds b_j k_j at its fixed slope; HK keeps s
        s_new = shk_squared_derivative(
            regularized_dual(a, sol.b, sol.f, sol.g, sol.K * sol.b, eps)
            + far[0] * float(w[~reach] @ rho[~reach])) if spherical else s
        settled = abs(s_new - s) <= NEWTON_TOL * s
        if settled or not sol.converged:
            break
        s, start = s_new, (sol.b, sol.g, sol.theta)
    log.debug("dual step: Newton steps %s per dual solve, step scale s %.12g "
              "settled %s", counts, s, settled)

    if spherical:
        rho = rho / float(w @ rho)
    nu = DiscreteMeasure(dom, rho)
    # a finite g over all nodes; the nodes out of reach take 0
    g = np.zeros(w.size)
    g[reach] = sol.g
    final = hk_distance_squared(mu0, nu, warm_start=g)
    d2 = metric_squared("shk" if spherical else "hk")
    lam = float(sol.theta[0]) if spherical else 0.0
    return MMStepResult(nu, d2(final.dual_value) / (2.0 * tau)
                        + float(w @ E(rho)), d2(final.hk_squared),
                        sol.gnorm, sum(counts),
                        settled and sol.converged and final.converged,
                        final.plan, (g, lam, s),
                        fallbacks + final.factor_fallbacks)


def mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
            warm=None) -> MMStepResult:
    """Implicit step in the transport-growth metric.  warm is the previous
    step's ``warm`` (default None: a cold start)."""
    return _implicit_step(mu0, tau, E, False, warm)


def shk_mm_step(mu0: DiscreteMeasure, tau: float, E: EntropySpec,
                warm=None) -> MMStepResult:
    """Implicit step in the spherical metric over unit-mass measures; warm
    as in mm_step."""
    if not has_unit_mass(mu0):
        raise ValueError("spherical step requires a unit-mass input")
    return _implicit_step(mu0, tau, E, True, warm)


@dataclass
class MMTrajectory:
    """One flow's iterates at step tau, with the metric and energy E it ran,
    which the checks of a trajectory read from here."""

    tau: float
    measures: list
    distances_squared: list
    metric: str
    E: EntropySpec

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(len(self.measures))

    @property
    def slope_surrogates(self) -> np.ndarray:
        """d(x_{k-1}, x_k) / tau per step."""
        return np.sqrt(np.maximum(self.distances_squared, 0.0)) / self.tau

    def densities(self) -> np.ndarray:
        return np.array([m.density for m in self.measures])

    def energy(self) -> np.ndarray:
        return np.array([eval_functional(self.E, m) for m in self.measures])


def mm_trajectory(mu0: DiscreteMeasure, tau: float, n_steps: int,
                  E: EntropySpec, metric: str = "hk") -> MMTrajectory:
    """Iterate implicit steps from mu0; metric is "hk" or "shk".  Distance
    solves are warm-started across steps.  Solver accuracy is fixed:
    STEP_EPS_SCHEDULE here, the Newton settings in hk."""
    step = shk_mm_step if is_spherical(metric) else mm_step
    measures = [mu0]
    d2 = []
    warm = None
    for k in range(n_steps):
        res = step(measures[-1], tau, E, warm=warm)
        warm = res.warm
        if not res.converged:
            raise RuntimeError(f"implicit step {k + 1} did not converge: "
                               f"grad norm {res.grad_norm:.2e}, or its "
                               "final distance solve failed")
        measures.append(res.measure)
        d2.append(res.distance_squared)
    return MMTrajectory(tau, measures, d2, metric, E)


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


def check_density_bounds(traj: MMTrajectory, slack: float = 1e-9) -> dict:
    """Verify the per-step comparison bounds along a trajectory, in its
    metric and for its energy.

    Transport-growth flow: each iterate's max (min) is controlled by the
    scalar upper (lower) bound seeded at the previous iterate's extremes.
    Spherical flow: the running max never rises, the running min never
    falls."""
    dens = traj.densities()
    E, spherical = traj.E, is_spherical(traj.metric)
    ok = True
    records = []
    for k in range(1, dens.shape[0]):
        prev_max = float(np.max(dens[k - 1]))
        prev_min = float(np.min(dens[k - 1]))
        cur_max = float(np.max(dens[k]))
        cur_min = float(np.min(dens[k]))
        if spherical:
            up = prev_max
            lo = prev_min
        else:
            up = scalar_upper_bound(prev_max, traj.tau, E, prev_max)
            lo = iterate_lower_bound(
                prev_min, E.c_low if E.c_low is not None else prev_min)
        step_ok = cur_max <= up + slack and cur_min >= lo - slack
        ok = ok and step_ok
        records.append({"step": k, "max": cur_max, "upper": up,
                        "min": cur_min, "lower": lo, "ok": step_ok})
    return {"ok": ok, "steps": records}


def plan_density_violation(step: MMStepResult) -> float:
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
