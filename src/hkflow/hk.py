"""Hellinger-Kantorovich distances on discrete grids.

The squared distance is computed through the convex entropy-transport
program

    min_H  sum_i F(s0_i) a_i + sum_j F(s1_j) b_j + sum_ij cost_ij H_ij

over nonnegative coupling matrices H, where a, b are the node masses of
the two inputs, s0 = H 1 / a and s1 = H^T 1 / b are the marginal density
ratios, F(r) = r log r - r + 1, and cost(R) = -2 log cos R for R < pi/2
(infinite otherwise).

Two solvers are provided.

``hk_distance_squared`` (any support size) adds an entropic penalty of
weight eps to the program and maximizes its smooth, strictly concave dual
over potentials (f, g) with damped Newton steps: each step solves the
dense (n + m) Hessian system by Cholesky and halves the step until the
dual gains more than its roundoff band, or stays inside that band while
the gradient's max-norm falls.  eps is continued along a decreasing
schedule (1e-1 down to 1e-6).  Each level starts from the previous
level's potentials and opens with one closed-form unbalanced-Sinkhorn
sweep (exact block ascent in f, then in g; Chizat, Peyre, Schmitzer &
Vialard, Math. Comp. 2018), which removes the overshoot of the previous
level's plan before Newton takes over.  A warm start from given
potentials solves at the final eps only, and redoes the full
continuation if its result would not count as converged.

``hk_exact_small`` (supports of at most eight nodes) solves the primal
program itself with a damped Newton interior-point method on a vanishing
log barrier; it is the high-precision cross-check of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import xlogy

from .measures import DiscreteMeasure, GridDomain

HALF_PI = 0.5 * math.pi

DEFAULT_EPS_SCHEDULE = tuple(np.geomspace(1e-1, 1e-6, 11))

METRICS = ("hk", "shk")  # is_spherical below is the one test of a name


@lru_cache(maxsize=32)
def _domain_cost(domain: GridDomain) -> np.ndarray:
    return transport_cost(domain.distance_matrix())


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of x along an axis, shifted by the maximum.  -inf
    entries drop out; every slice needs one finite entry."""
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + top.squeeze(axis)


def transport_cost(distances: np.ndarray) -> np.ndarray:
    """-2 log cos d for d below pi/2, +inf at and beyond it."""
    d = np.asarray(distances, dtype=float)
    out = np.full(d.shape, np.inf)
    ok = d < HALF_PI - 1e-15
    out[ok] = -2.0 * np.log(np.cos(d[ok]))
    return out


def let_cost(plan: np.ndarray, a: np.ndarray, b: np.ndarray,
             cost: np.ndarray) -> float:
    """Entropy-transport objective of a coupling against node masses a, b."""
    r = plan.sum(axis=1)
    s = plan.sum(axis=0)
    val = float(np.sum(xlogy(r, r) - xlogy(r, a) - r) + a.sum()
                + np.sum(xlogy(s, s) - xlogy(s, b) - s) + b.sum())
    finite = np.isfinite(cost)
    val += float(np.sum(plan[finite] * cost[finite]))
    if np.any(plan[~finite] > 0):
        return math.inf
    return val


@dataclass
class HKResult:
    """Solver output: squared distance plus certificates.

    ``dual_value`` is the regularized dual objective at the returned
    potentials (a smooth surrogate of the squared distance) and
    ``target_slope`` its exact derivative with respect to each target
    node mass; together they give consistent value/gradient pairs for
    outer optimizations over the target measure.  ``level_iterations``
    holds the Newton count of each regularization level that ran, in
    order; they sum to ``iterations``.
    """

    hk_squared: float
    plan: np.ndarray
    potential_source: np.ndarray
    potential_target: np.ndarray
    marginal_error: float
    iterations: int
    converged: bool
    eps_final: float = 0.0
    dual_value: float = 0.0
    target_slope: np.ndarray | None = None
    level_iterations: tuple = ()

    @property
    def hk(self) -> float:
        return math.sqrt(max(self.hk_squared, 0.0))


def _dual_newton(a, b, cost, eps_schedule, max_iter, tol, g0=None):
    """Damped Newton maximization of the regularized dual

        D(f, g) = sum a (1 - e^-f) + sum b (1 - e^-g)
                  - eps (sum H - sum a sum b),
        H_ij = a_i b_j exp((f_i + g_j - c_ij) / eps),

    continued along a decreasing regularization schedule.  The dual is
    smooth and strictly concave.

    Every level opens with one unbalanced-Sinkhorn sweep: exact block
    maximization in closed form, first over f with g fixed, then over g
    with f fixed,

        f_i = -eps/(1+eps) LSE_j(log b_j + (g_j - c_ij)/eps),
        g_j = -eps/(1+eps) LSE_i(log a_i + (f_i - c_ij)/eps),

    each of which zeroes its half of the gradient.  Block ascent never
    lowers the dual, and it removes the overshoot of the previous level's
    Gibbs plan at the smaller eps, which full Newton steps would otherwise
    shrink only linearly.  As the sweep computes f from g, a warm start
    needs only the target potentials g0.

    A trial step is accepted when the dual gains more than the roundoff
    band 1e-14 (sum a + sum b).  Near the optimum the true gain of a
    Newton step (about gradient^2 eps) falls below that band, so there a
    trial whose dual stays inside the band is accepted when the max-norm
    of its gradient falls.  Otherwise the step is halved.

    Returns the final plan, potentials, per-level Newton counts, eps and
    gradient max-norm, then the dual value and plan column sums there.
    """
    n, m = cost.shape
    log_a = np.log(a)
    log_b = np.log(b)
    ab = float(a.sum() * b.sum())

    def plan_of(f, g, eps):
        log_plan = (log_a[:, None] + log_b[None, :]
                    + (f[:, None] + g[None, :] - cost) / eps)
        return np.exp(np.minimum(log_plan, 500.0))

    def dual(f, g, eps, H):
        return (float(a @ (1.0 - np.exp(-f)) + b @ (1.0 - np.exp(-g)))
                - eps * (float(H.sum()) - ab))

    def gradient(f, g, H):
        r = H.sum(axis=1)
        s = H.sum(axis=0)
        ea = a * np.exp(-f)
        eb = b * np.exp(-g)
        grad = np.concatenate([ea - r, eb - s])
        return r, s, ea, eb, grad, float(np.max(np.abs(grad)))

    # dual values closer than this differ by roundoff only
    noise = 1e-14 * float(a.sum() + b.sum())
    g = np.zeros(m) if g0 is None else np.asarray(g0, float)
    levels = []
    eps = eps_schedule[-1]
    gnorm = math.inf
    for eps in eps_schedule:
        shrink = -eps / (1.0 + eps)
        f = shrink * _lse((g - cost) / eps + log_b, axis=1)
        g = shrink * _lse((f[:, None] - cost) / eps + log_a[:, None], axis=0)
        H = plan_of(f, g, eps)
        val = dual(f, g, eps, H)
        r, s, ea, eb, grad, gnorm = gradient(f, g, H)
        levels.append(0)
        for _ in range(max_iter):
            if gnorm < tol:
                break
            M = np.zeros((n + m, n + m))
            M[:n, :n] = np.diag(ea + r / eps)
            M[n:, n:] = np.diag(eb + s / eps)
            M[:n, n:] = H / eps
            M[n:, :n] = H.T / eps
            try:
                step = cho_solve(cho_factor(M), grad)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(M + 1e-12 * np.eye(n + m), grad)
            t = 1.0
            while t > 1e-13:
                fn = f + t * step[:n]
                gn = g + t * step[n:]
                Hn = plan_of(fn, gn, eps)
                vn = dual(fn, gn, eps, Hn)
                trial = gradient(fn, gn, Hn)
                # a gain beyond roundoff decides; inside the roundoff band
                # the dual cannot, so the gradient norm must fall instead
                if math.isfinite(vn) and (
                        vn > val + noise
                        or (vn >= val - noise and trial[-1] < gnorm)):
                    break
                t *= 0.5
            else:
                break
            # the accepted trial's plan, dual value and gradient are the
            # next iterate's, so an accepted step computes nothing twice
            f, g, H, val = fn, gn, Hn, vn
            r, s, ea, eb, grad, gnorm = trial
            levels[-1] += 1
    return H, f, g, tuple(levels), eps, gnorm, val, s


def hk_distance_squared(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                        max_iter: int = 60, tol: float = 1e-11,
                        warm_start=None) -> HKResult:
    """Squared Hellinger-Kantorovich distance between two grid measures.

    A cold solve runs all of DEFAULT_EPS_SCHEDULE, with at most max_iter
    Newton steps per level and gradient tolerance tol per unit mass.
    ``warm_start`` is the (source, target) potential pair of an earlier
    solve; the target's seed the final level, whose opening sweep
    recomputes the source's.  Mass with no transport partner (all of it,
    for a zero measure) costs itself and needs no Newton step.
    """
    if not mu0.same_domain(mu1):
        raise ValueError("measures live on different grids")
    dom = mu0.domain
    w = dom.weights
    a_full = mu0.density * w
    b_full = mu1.density * w
    m0, m1 = float(a_full.sum()), float(b_full.sum())

    n = dom.n_nodes
    src = np.where(a_full > 0)[0]
    tgt = np.where(b_full > 0)[0]
    a = a_full[src]
    b = b_full[tgt]
    cost = _domain_cost(dom)[np.ix_(src, tgt)]
    reachable_src = np.isfinite(cost).any(axis=1)
    reachable_tgt = np.isfinite(cost).any(axis=0)
    base = float(a[~reachable_src].sum() + b[~reachable_tgt].sum())
    a_r, b_r = a[reachable_src], b[reachable_tgt]
    rows, cols = src[reachable_src], tgt[reachable_tgt]

    plan = np.zeros((n, n))
    f_full = np.zeros(n)
    g_full = np.zeros(n)
    slope = np.ones(n)  # slope 1 where no transport partner exists
    value = dual = base
    levels, eps, gnorm = (), float(DEFAULT_EPS_SCHEDULE[-1]), 0.0
    scaled_tol = tol * max(1.0, m0 + m1)
    # a reachable source has a reachable target and vice versa, so a_r and
    # b_r are empty together
    if a_r.size:
        cost_r = cost[np.ix_(reachable_src, reachable_tgt)]
        g0 = None
        sched = DEFAULT_EPS_SCHEDULE
        if warm_start is not None:
            g0 = warm_start[1][cols]
            sched = DEFAULT_EPS_SCHEDULE[-1:]
        plan_r, f_r, g_r, levels, eps, gnorm, dual_r, s_r = _dual_newton(
            a_r, b_r, cost_r, sched, max_iter, scaled_tol, g0)
        if warm_start is not None and gnorm > 1e3 * scaled_tol:
            # stale warm start; redo the full continuation from scratch
            plan_r, f_r, g_r, cold, eps, gnorm, dual_r, s_r = _dual_newton(
                a_r, b_r, cost_r, DEFAULT_EPS_SCHEDULE, max_iter,
                scaled_tol)
            levels += cold
        plan[np.ix_(rows, cols)] = plan_r
        f_full[rows] = f_r
        g_full[cols] = g_r
        value = base + let_cost(plan_r, a_r, b_r, cost_r)
        dual = base + dual_r
        # exact derivative of the regularized dual value with respect to
        # each target node mass
        slope[cols] = ((1.0 - np.exp(-g_r))
                       - eps * (s_r / b_r - float(a_r.sum())))
    converged = gnorm <= 1e3 * scaled_tol
    return HKResult(float(value), plan, f_full, g_full, float(gnorm),
                    sum(levels), converged, eps, float(dual), slope, levels)


def hk_distance(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> float:
    return hk_distance_squared(mu0, mu1).hk


def hk_exact_small(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                   kkt_tol: float = 1e-10, max_newton: int = 2000) -> HKResult:
    """Interior-point solve of the entropy-transport program, tiny supports.

    Minimizes the objective plus a vanishing log barrier on the coupling
    entries with damped Newton steps; the barrier weight is driven to
    1e-14 so the complementarity residual falls below the tolerance.
    """
    if not mu0.same_domain(mu1):
        raise ValueError("measures live on different grids")
    dom = mu0.domain
    w = dom.weights
    a_full = mu0.density * w
    b_full = mu1.density * w
    src = np.where(a_full > 0)[0]
    tgt = np.where(b_full > 0)[0]
    if src.size > 8 or tgt.size > 8:
        raise ValueError("exact solver limited to supports of eight nodes")
    if src.size == 0 or tgt.size == 0:
        return hk_distance_squared(mu0, mu1)
    a = a_full[src]
    b = b_full[tgt]
    cost = _domain_cost(dom)[np.ix_(src, tgt)]
    pairs = np.argwhere(np.isfinite(cost))
    base = float(a.sum() + b.sum())
    f_full = np.zeros(dom.n_nodes)
    g_full = np.zeros(dom.n_nodes)
    if pairs.shape[0] == 0:
        return HKResult(base, np.zeros((dom.n_nodes, dom.n_nodes)),
                        f_full, g_full, 0.0, 0, True)

    c = cost[pairs[:, 0], pairs[:, 1]]
    A = np.zeros((src.size, pairs.shape[0]))
    B = np.zeros((tgt.size, pairs.shape[0]))
    A[pairs[:, 0], np.arange(pairs.shape[0])] = 1.0
    B[pairs[:, 1], np.arange(pairs.shape[0])] = 1.0

    def value_grad_hess(h, barrier):
        r = A @ h
        s = B @ h
        val = (float(np.sum(xlogy(r, r / a) - r) + np.sum(xlogy(s, s / b) - s))
               + base + float(c @ h) - barrier * float(np.sum(np.log(h))))
        grad = (A.T @ np.log(r / a) + B.T @ np.log(s / b) + c - barrier / h)
        hess = (A.T * (1.0 / r) @ A + B.T * (1.0 / s) @ B
                + np.diag(barrier / h**2))
        return val, grad, hess

    h = np.outer(a, b)[pairs[:, 0], pairs[:, 1]] / max(base, 1.0) + 1e-3
    # follow the barrier central path: at weight b the complementarity
    # products grad_i * h_i equal b, so driving b below the tolerance
    # certifies the KKT system
    barrier = 1e-2
    it = 0
    while barrier > 0.005 * kkt_tol and it < max_newton:
        barrier = max(barrier * 0.2, 0.005 * kkt_tol)
        for _ in range(80):
            it += 1
            _, grad, hess = value_grad_hess(h, barrier)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = grad / np.diag(hess)
            t = 1.0
            while np.any(h - t * step <= 0):
                t *= 0.5
            gnorm = float(np.linalg.norm(grad))
            g_new = grad
            while t > 1e-16:
                h_new = h - t * step
                g_new = value_grad_hess(h_new, barrier)[1]
                if float(np.linalg.norm(g_new)) <= (1.0 - 0.1 * t) * gnorm:
                    break
                t *= 0.5
            else:
                break
            h = h_new
            if float(np.linalg.norm(g_new * h)) < 0.1 * barrier:
                break

    r = A @ h
    s = B @ h
    grad = A.T @ np.log(r / a) + B.T @ np.log(s / b) + c
    kkt = float(np.max(np.abs(grad * h)))
    plan = np.zeros((dom.n_nodes, dom.n_nodes))
    plan[src[pairs[:, 0]], tgt[pairs[:, 1]]] = h
    f_full[src] = -np.log(r / a)
    g_full[tgt] = -np.log(s / b)
    dense = np.zeros_like(cost)
    dense[pairs[:, 0], pairs[:, 1]] = h
    value = let_cost(dense, a, b, cost)
    return HKResult(float(value), plan, f_full, g_full, kkt, it,
                    kkt < kkt_tol)


def hk_two_diracs(mass0: float, mass1: float, distance: float) -> float:
    """Closed-form squared distance between two weighted point masses."""
    if mass0 < 0 or mass1 < 0 or distance < 0:
        raise ValueError("masses and distance must be nonnegative")
    return mass0 + mass1 - 2.0 * math.sqrt(mass0 * mass1) * math.cos(
        min(distance, HALF_PI))


def scaling_identity_gap(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                         t0: float, t1: float) -> dict:
    """Residual of HK^2(t0^2 mu0, t1^2 mu1) against its dilation formula."""
    from .measures import scale_measure

    hk2 = hk_distance_squared(mu0, mu1).hk_squared
    lhs = hk_distance_squared(scale_measure(mu0, t0),
                              scale_measure(mu1, t1)).hk_squared
    rhs = (t0 * t1 * hk2 + (t0 * t0 - t0 * t1) * mu0.mass
           + (t1 * t1 - t0 * t1) * mu1.mass)
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "hk_squared": hk2}


def mass_gap_lower_bound(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> float:
    """(sqrt m0 - sqrt m1)^2, always below the squared distance."""
    return (math.sqrt(mu0.mass) - math.sqrt(mu1.mass)) ** 2


# ---------------------------------------------------------------------------
# spherical variant


def shk_from_hk_squared(hk2: float) -> float:
    """Spherical distance 2 arcsin(HK / 2) from the squared distance."""
    hk = math.sqrt(max(hk2, 0.0))
    if hk > 2.0 + 1e-9:
        raise ValueError("squared distance exceeds 4; inputs not probabilities")
    return 2.0 * math.asin(min(hk / 2.0, 1.0))


def has_unit_mass(mu: DiscreteMeasure) -> bool:
    """The spherical metric's domain test: total mass 1 within 1e-8."""
    return abs(mu.mass - 1.0) <= 1e-8


def shk_distance(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> float:
    """Spherical Hellinger-Kantorovich distance between unit-mass measures."""
    if not (has_unit_mass(mu0) and has_unit_mass(mu1)):
        raise ValueError("spherical distance requires unit total mass")
    return shk_from_hk_squared(hk_distance_squared(mu0, mu1).hk_squared)


def shk_squared_derivative(hk2: float) -> float:
    """d(SHK^2)/d(HK^2) evaluated at a squared distance value."""
    if hk2 <= 0:
        return 1.0
    hk = math.sqrt(min(hk2, 4.0))
    x = hk / 2.0
    if x >= 1.0:
        return math.inf
    return 2.0 * math.asin(x) / (hk * math.sqrt(1.0 - x * x))


def is_spherical(metric: str) -> bool:
    """False for "hk", True for "shk"; ValueError for any other name."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}: expected {METRICS}")
    return metric == "shk"


def metric_squared(metric: str):
    """Map from HK^2 to the squared distance of the named metric."""
    if is_spherical(metric):
        return lambda hk2: shk_from_hk_squared(hk2) ** 2
    return lambda hk2: hk2


# ---------------------------------------------------------------------------
# cone geometry over the base domain


def cone_distance(x0, r0, x1, r1, base_distance) -> float:
    """Distance on the metric cone: law of cosines with angles capped at pi."""
    if r0 < 0 or r1 < 0:
        raise ValueError("cone radii must be nonnegative")
    d = min(float(base_distance), math.pi)
    val = r0 * r0 + r1 * r1 - 2.0 * r0 * r1 * math.cos(d)
    return math.sqrt(max(val, 0.0))


def dilation_cost(mu0: DiscreteMeasure, dilation: np.ndarray,
                  target_positions: np.ndarray | None = None) -> float:
    """Transport-growth cost of moving mu0 by a dilation field.

    Each node carries factor q_i and lands at position index p_i; the cost
    integrates 1 + q^2 - 2 q cos(min(d, pi/2)) against mu0.
    """
    q = np.asarray(dilation, dtype=float)
    if np.any(q < 0):
        raise ValueError("dilation factors must be nonnegative")
    masses = mu0.node_masses
    if target_positions is None:
        d = np.zeros(mu0.domain.n_nodes)
    else:
        d = mu0.domain.distance_matrix()[
            np.arange(mu0.domain.n_nodes), np.asarray(target_positions)]
    return float(np.sum(masses * (1.0 + q * q
                                  - 2.0 * q * np.cos(np.minimum(d, HALF_PI)))))
