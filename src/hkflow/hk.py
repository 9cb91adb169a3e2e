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
(n + m) Hessian system and halves the step until the dual gains more than
its roundoff band, or stays inside that band while the gradient's max-norm
falls.  The system is dense and solved by Cholesky on small grids; on
large ones (2-D grids), where at small eps nearly all of the plan is
roundoff, Newton runs on a kept support of the plan with a sparse LU
solve, and each level is checked on the full plan before it ends
(truncated eps-scaling, Schmitzer, SIAM J. Sci. Comput. 2019).  eps is
continued along a decreasing schedule (1e-1 down to 1e-6).  Each level
starts from the previous level's potentials and opens with one
closed-form unbalanced-Sinkhorn sweep (exact block ascent in f, then in
g; Chizat, Peyre, Schmitzer & Vialard, Math. Comp. 2018), which removes
the overshoot of the previous level's plan before Newton takes over.  A
warm start from target potentials solves at the final eps only, and
``_dual_newton`` reruns the full continuation if that does not converge.
The same Newton loop solves the minimizing-movement step of ``mm``: the
dual is linear in the target masses, which it then maximizes over jointly,
through the convex conjugate of the energy.

``hk_exact_small`` (supports of at most eight nodes) solves the primal
program itself with a damped Newton interior-point method on a vanishing
log barrier; it is the high-precision cross-check of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu
from scipy.special import xlogy

from .measures import DiscreteMeasure, GridDomain

HALF_PI = 0.5 * math.pi

DEFAULT_EPS_SCHEDULE = tuple(np.geomspace(1e-1, 1e-6, 11))

# Newton settings of every dual solve: iteration cap per eps-level, and
# gradient tolerance per unit of total mass
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-11

# The distance solve runs Newton on a kept part of the plan (the sparse
# path) when the system has at least SPARSE_MIN_SIZE unknowns and at most
# SPARSE_MAX_FILL of the plan is kept.  An entry H_ij is kept when its
# kernel H_ij / (a_i b_j) exceeds SPARSE_KEEP tol / (max(n, m) max a max b)
# at the point the support is chosen, so each dropped entry is below
# SPARSE_KEEP tol / max(n, m), far below the gradient tolerance.  Below
# about 80 nodes, or where most of the plan is kept, dense Cholesky is
# faster.
SPARSE_MIN_SIZE = 160
SPARSE_MAX_FILL = 0.15
SPARSE_KEEP = 1e-3 * math.exp(-10.0)

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
    order; they sum to ``iterations``.  ``level_support`` holds, per level
    in the same order, the kept plan entries of each support the level
    chose: one entry n m on a dense level, and one more entry for each time
    a sparse level chose its support again.
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
    level_support: tuple = ()

    @property
    def hk(self) -> float:
        return math.sqrt(max(self.hk_squared, 0.0))


def regularized_dual(a, b, f, g, H, eps) -> float:
    """The regularized dual D(f, g) of _dual_newton at the plan H of (f, g)
    between node masses a and b."""
    return (float(a @ (1.0 - np.exp(-f)) + b @ (1.0 - np.exp(-g)))
            - eps * (float(H.sum()) - float(a.sum() * b.sum())))


class DualSolve(NamedTuple):
    """Final state of _dual_newton: the plan H_ij = a_i b_j exp((f_i + g_j -
    c_ij) / eps), the potentials, the extra dual variables and target masses
    b of a conjugate term, per-level Newton counts and kept supports (of a
    warm attempt, then of the cold rerun if one followed), the last eps, the
    gradient max-norm, the converged verdict, the dual value and the plan's
    column sums."""

    plan: np.ndarray
    f: np.ndarray
    g: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    levels: tuple
    supports: tuple
    eps: float
    gnorm: float
    converged: bool
    value: float
    col_sums: np.ndarray


class _Point(NamedTuple):
    """One iterate of _dual_newton: variables, target masses, plan, dual
    value, row and column sums, a e^-f, b e^-g, gradient and its max-norm,
    the term's Hessian addition, and whether all of these are finite.  On a
    kept support H holds the kept entries only."""

    f: np.ndarray
    g: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    H: np.ndarray
    val: float
    r: np.ndarray
    s: np.ndarray
    ea: np.ndarray
    eb: np.ndarray
    grad: np.ndarray
    gnorm: float
    extra: np.ndarray | None
    finite: bool


class _Support(NamedTuple):
    """Kept plan entries (rows, cols) and their costs, with the CSC pattern
    (indices, indptr) of the Newton matrix on them: its data are the
    diagonal, then H, then H^T, taken in the order ``order``."""

    rows: np.ndarray
    cols: np.ndarray
    cost: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _kept_support(slack, cost, kernel_min):
    """The plan entries whose kernel exp(slack) = H_ij / (a_i b_j) exceeds
    kernel_min, or None when they are more than SPARSE_MAX_FILL of the
    plan.  The test is on the kernel, not on H, so rows and columns of
    small mass keep their nearly tight entries too."""
    n, m = slack.shape
    rows, cols = np.nonzero(slack > math.log(kernel_min))
    if rows.size > SPARSE_MAX_FILL * n * m:
        return None
    diag = np.arange(n + m)
    i = np.concatenate([diag, rows, n + cols])
    j = np.concatenate([diag, n + cols, rows])
    order = np.lexsort((i, j))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n + m))])
    return _Support(rows, cols, cost[rows, cols], order, i[order], indptr)


def _newton_direction(pt, eps, support):
    """Solve M x = grad for the Newton matrix M (minus the dual's Hessian)
    at pt: dense Cholesky on the full plan, sparse LU on a kept support.
    M is positive definite, so LU needs no pivoting and the natural order
    keeps its fill small."""
    n, m = pt.r.size, pt.s.size
    if support is None:
        M = np.zeros((pt.grad.size, pt.grad.size))
        M[:n, :n] = np.diag(pt.ea + pt.r / eps)
        M[n:n + m, n:n + m] = np.diag(pt.eb + pt.s / eps)
        M[:n, n:n + m] = pt.H / eps
        M[n:n + m, :n] = pt.H.T / eps
        if pt.extra is not None:
            M += pt.extra
        try:
            return cho_solve(cho_factor(M, check_finite=False), pt.grad,
                             check_finite=False)
        except np.linalg.LinAlgError:
            return np.linalg.solve(M + 1e-12 * np.eye(M.shape[0]), pt.grad)
    h = pt.H / eps
    data = np.concatenate([pt.ea + pt.r / eps, pt.eb + pt.s / eps, h, h])
    M = csc_matrix((data[support.order], support.indices, support.indptr),
                   shape=(n + m, n + m))
    try:
        return splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}).solve(pt.grad)
    except RuntimeError:  # an exactly singular factor
        return np.linalg.solve(M.toarray() + 1e-12 * np.eye(n + m), pt.grad)


def _dual_newton(a, b, cost, eps_schedule, max_iter, tol, term=None,
                 theta0=(), warm=None):
    """Damped Newton maximization of the regularized dual

        D(f, g) = sum a (1 - e^-f) + sum b (1 - e^-g)
                  - eps (sum H - sum a sum b),
        H_ij = a_i b_j exp((f_i + g_j - c_ij) / eps),

    continued along a decreasing regularization schedule.  The dual is
    smooth and strictly concave.

    D is linear in the target masses: D = sum a (1 - e^-f) + sum_j b_j k_j
    with slopes k_j = 1 - e^-g_j - eps (u_j - sum a) and
    u_j = sum_i a_i exp((f_i + g_j - c_ij) / eps).  Given a ``term``, the
    second sum becomes a concave function F(k, theta) of the slopes and of
    extra variables theta (start theta0), maximized jointly with (f, g).
    term.value(k, theta) returns (F, b, dF/dtheta, d, Z): b = dF/dk are the
    target masses, and -F'' = W diag(d) W^T in the coordinates (k, theta),
    with W = [I; Z].  Gradient and Hessian keep the form of the fixed-b
    case, with the Hessian raised by V diag(d) V^T, where V stacks the
    gradients of the k_j over the rows Z.  ``b`` then only seeds the first
    opening sweep, and term.opening(k, theta) returns the maximizing theta
    at given slopes.

    Every level opens with one unbalanced-Sinkhorn sweep at the current
    target masses: exact block maximization in closed form, first over f
    with g fixed, then over g with f fixed,

        f_i = -eps/(1+eps) LSE_j(log b_j + (g_j - c_ij)/eps),
        g_j = -eps/(1+eps) LSE_i(log a_i + (f_i - c_ij)/eps),

    each of which zeroes its half of the gradient.  Block ascent never
    lowers the dual, and it removes the overshoot of the previous level's
    Gibbs plan at the smaller eps, which full Newton steps would otherwise
    shrink only linearly.  With a term, the g-sweep still maximizes every
    slope k_j, and theta opens at term.opening; should the opening point
    leave the term's domain (dual -inf), f is lowered until it is back
    inside.

    A trial step is accepted when its dual value, gradient and Hessian are
    finite and the dual gains more than the roundoff band
    1e-14 (sum a + sum b).  Near the optimum the true gain of a Newton step
    (about gradient^2 eps) falls below that band, so there a trial whose
    dual stays inside the band is accepted when the max-norm of its
    gradient falls.  Otherwise the step is halved.

    The Newton step solves the dense (n + m) system by Cholesky, except on
    large plain distance solves (no term, n + m >= SPARSE_MIN_SIZE), where
    at small eps almost all of the plan is roundoff.  There each level
    chooses a kept support at its opening point (see _kept_support and
    SPARSE_KEEP; Schmitzer, SIAM J. Sci. Comput. 2019, truncates the kernel
    the same way), and Newton evaluates the plan on the kept entries only
    and solves a sparse system by LU.  A level whose support would keep more
    than SPARSE_MAX_FILL of the plan stays dense.  A sparse pass ends with
    one evaluation on the full plan: if its gradient exceeds the kept one by
    more than 1e-3 tol, the support is chosen again from there and the
    level goes on; if it exceeds the pass's first gradient, the level
    restarts from that first point on the full plan.  Every level thus ends
    on a full evaluation, and the returned plan, gradient, dual value and
    column sums are those of the full plan.

    A cold solve runs the schedule from the seed (b, g = 0, theta0).  A warm
    start (b, g, theta) solves the final level only (the sweep computes f
    from g); should that not converge, the cold solve follows, and both
    runs' levels and supports are returned.  Converged means a gradient
    max-norm within 1e3 tol, as the line search can run out at the
    roundoff floor a little above the tolerance itself.
    """
    levels = supports = ()
    if warm is not None:
        sol = _continuation(a, cost, eps_schedule[-1:], max_iter, tol, term,
                            *warm)
        if sol.converged:
            return sol
        levels, supports = sol.levels, sol.supports
    sol = _continuation(a, cost, eps_schedule, max_iter, tol, term, b,
                        np.zeros(cost.shape[1]), theta0)
    return sol._replace(levels=levels + sol.levels,
                        supports=supports + sol.supports)


def _continuation(a, cost, eps_schedule, max_iter, tol, term, b, g0, theta0):
    """_dual_newton's loop over one eps schedule from (b, g0, theta0)."""
    n, m = cost.shape
    log_a = np.log(a)
    sa = float(a.sum())

    def evaluate(f, g, theta, eps, b, opening=False, support=None):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if term is None:
                if support is None:
                    log_plan = (log_a[:, None] + np.log(b)[None, :]
                                + (f[:, None] + g[None, :] - cost) / eps)
                    H = np.exp(np.minimum(log_plan, 500.0))
                    r = H.sum(axis=1)
                    s = H.sum(axis=0)
                else:
                    i, j = support.rows, support.cols
                    H = np.exp(np.minimum(
                        log_a[i] + np.log(b)[j]
                        + (f[i] + g[j] - support.cost) / eps, 500.0))
                    r = np.bincount(i, H, n)
                    s = np.bincount(j, H, m)
                val = regularized_dual(a, b, f, g, H, eps)
                grad_theta, extra, finite = (), None, True
            else:
                K = np.exp(np.minimum(
                    log_a[:, None] + (f[:, None] + g[None, :] - cost) / eps,
                    500.0))
                u = K.sum(axis=0)
                e_g = np.exp(-g)
                kappa = 1.0 - e_g - eps * (u - sa)
                if opening:
                    theta = term.opening(kappa, theta)
                F, b, grad_theta, d, Z = term.value(kappa, theta)
                H = K * b
                val = float(a @ (1.0 - np.exp(-f))) + F
                W = np.vstack([-K, np.diag(e_g - u), Z])
                extra = (W * d) @ W.T
                finite = bool(np.isfinite(d).all())
                r = H.sum(axis=1)
                s = H.sum(axis=0)
            ea = a * np.exp(-f)
            eb = b * np.exp(-g)
            grad = np.concatenate([ea - r, eb - s, grad_theta])
            gnorm = float(np.max(np.abs(grad)))
        finite = finite and math.isfinite(val) and math.isfinite(gnorm)
        return _Point(f, g, np.asarray(theta, dtype=float), b, H, val, r, s,
                      ea, eb, grad, gnorm, extra, finite)

    # dual values closer than this differ by roundoff only
    noise = 1e-14 * float(a.sum() + b.sum())
    g = np.asarray(g0, dtype=float)
    theta = np.asarray(theta0, dtype=float)
    sparse = term is None and n + m >= SPARSE_MIN_SIZE
    kernel_min = SPARSE_KEEP * tol / (max(n, m) * a.max() * b.max())
    levels, supports = [], []
    for eps in eps_schedule:
        shrink = -eps / (1.0 + eps)
        with np.errstate(divide="ignore"):
            f = shrink * _lse((g - cost) / eps + np.log(b), axis=1)
        for _ in range(64):
            g = shrink * _lse((f[:, None] - cost) / eps + log_a[:, None],
                              axis=0)
            pt = evaluate(f, g, theta, eps, b, opening=True)
            if pt.finite or term is None:
                break
            # outside the domain of the term (dual -inf): a lower f lowers
            # every u_j, so the g-sweep raises every slope k_j toward
            # 1 + eps sum a
            f = f - 1.0
        levels.append(0)
        supports.append(())
        sparse_level = sparse
        while True:
            support = None
            if sparse_level:
                support = _kept_support(
                    (pt.f[:, None] + pt.g[None, :] - cost) / eps, cost,
                    kernel_min)
            supports[-1] += (n * m if support is None else support.rows.size,)
            opened = pt
            if support is not None:
                pt = evaluate(pt.f, pt.g, pt.theta, eps, pt.b, support=support)
            start = levels[-1]
            for _ in range(max_iter - start):
                if pt.gnorm < tol:
                    break
                step = _newton_direction(pt, eps, support)
                t = 1.0
                while t > 1e-13:
                    trial = evaluate(pt.f + t * step[:n],
                                     pt.g + t * step[n:n + m],
                                     pt.theta + t * step[n + m:], eps, pt.b,
                                     support=support)
                    # a gain beyond roundoff decides; inside the roundoff
                    # band the dual cannot, so the gradient norm must fall
                    # instead
                    if trial.finite and (
                            trial.val > pt.val + noise
                            or (trial.val >= pt.val - noise
                                and trial.gnorm < pt.gnorm)):
                        break
                    t *= 0.5
                else:
                    break
                # the accepted trial's plan, dual value and gradient are the
                # next iterate's, so an accepted step computes nothing twice
                pt = trial
                levels[-1] += 1
            if support is None:
                break
            # mass the support dropped shows in the full gradient.  A pass
            # that ends worse than it began has let potentials drift until
            # dropped entries dominate: a cluster of tiny masses can move
            # freely on its kept entries.
            kept_gnorm = pt.gnorm
            pt = evaluate(pt.f, pt.g, pt.theta, eps, pt.b)
            if pt.gnorm > opened.gnorm:
                pt, sparse_level = opened, False
            elif pt.gnorm <= kept_gnorm + 1e-3 * tol or levels[-1] == start:
                break
            if levels[-1] == max_iter:
                break
        g, theta, b = pt.g, pt.theta, pt.b
    return DualSolve(pt.H, pt.f, pt.g, pt.theta, pt.b, tuple(levels),
                     tuple(supports), eps, pt.gnorm, pt.gnorm <= 1e3 * tol,
                     pt.val, pt.s)


def hk_distance_squared(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                        max_iter: int = NEWTON_MAX_ITER,
                        tol: float = NEWTON_TOL,
                        warm_start=None) -> HKResult:
    """Squared Hellinger-Kantorovich distance between two grid measures.

    A cold solve runs all of DEFAULT_EPS_SCHEDULE, with at most max_iter
    Newton steps per level and gradient tolerance tol per unit mass.
    ``warm_start``, an earlier solve's ``potential_target``, seeds the
    final level; _dual_newton reruns the full schedule if that fails.  Mass
    with no transport partner (all of it, for a zero measure) costs itself
    and needs no Newton step.
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
    levels = supports = ()
    eps, gnorm, converged = float(DEFAULT_EPS_SCHEDULE[-1]), 0.0, True
    scaled_tol = tol * max(1.0, m0 + m1)
    # a reachable source has a reachable target and vice versa, so a_r and
    # b_r are empty together
    if a_r.size:
        cost_r = cost[np.ix_(reachable_src, reachable_tgt)]
        warm = None if warm_start is None else (b_r, warm_start[cols], ())
        sol = _dual_newton(a_r, b_r, cost_r, DEFAULT_EPS_SCHEDULE, max_iter,
                           scaled_tol, warm=warm)
        levels, supports, converged = sol.levels, sol.supports, sol.converged
        plan_r, f_r, g_r = sol.plan, sol.f, sol.g
        eps, gnorm, dual_r, s_r = sol.eps, sol.gnorm, sol.value, sol.col_sums
        plan[np.ix_(rows, cols)] = plan_r
        f_full[rows] = f_r
        g_full[cols] = g_r
        value = base + let_cost(plan_r, a_r, b_r, cost_r)
        dual = base + dual_r
        # exact derivative of the regularized dual value with respect to
        # each target node mass
        slope[cols] = ((1.0 - np.exp(-g_r))
                       - eps * (s_r / b_r - float(a_r.sum())))
    return HKResult(float(value), plan, f_full, g_full, float(gnorm),
                    sum(levels), converged, eps, float(dual), slope, levels,
                    supports)


def hk_distance(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> float:
    return hk_distance_squared(mu0, mu1).hk


def hk_exact_small(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> HKResult:
    """Interior-point solve of the entropy-transport program, tiny supports.

    Minimizes the objective plus a vanishing log barrier on the coupling
    entries with damped Newton steps; the barrier weight is driven to
    5e-13 so the complementarity residual falls below 1e-10.
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
    while barrier > 5e-13 and it < 2000:
        barrier = max(barrier * 0.2, 5e-13)
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
    return HKResult(float(value), plan, f_full, g_full, kkt, it, kkt < 1e-10)


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
