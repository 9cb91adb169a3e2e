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
over potentials (f, g) by damped Newton steps, continued along a
decreasing eps schedule (DEFAULT_EPS_SCHEDULE, 1e-1 down to 1e-6).  The
same loop, ``_dual_newton``, solves every minimizing-movement step of
``mm`` that has no closed form (there eps continues to 1e-8,
mm.STEP_EPS_SCHEDULE); its docstring is the one full description of the
solver: the opening sweeps, the eps-predictor, the kept supports, the
coarse head and the triage of warm starts.

``hk_exact_small`` (any support size, at a cost cubic in the node count)
solves the primal program itself with a damped Newton interior-point
method on a vanishing log barrier, each step one solve of the normal
equations on the marginals; it is the high-precision cross-check of the
first and shares none of its eps, kept-support or Newton code.

The closed forms are the two-Dirac distance (``hk_two_diracs``), the
dilation identity (``dilated_hk_squared``), the mass-gap lower bound, the
spherical distance of a squared HK distance and its derivative, and the
cone geometry over the base domain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs

from .measures import DiscreteMeasure, GridDomain

log = logging.getLogger(__name__)

HALF_PI = 0.5 * math.pi

DEFAULT_EPS_SCHEDULE = tuple(np.geomspace(1e-1, 1e-6, 11))

# Newton settings of every dual solve: iteration cap per eps-level, and
# gradient tolerance per unit of total mass.  A solve is converged when its
# gradient max-norm is within NEWTON_SLACK times its tolerance, as the line
# search can run out at the roundoff floor a little above the tolerance
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-11
NEWTON_SLACK = 1e3

# An eps-level above DEFAULT_EPS_SCHEDULE[-1] ends once its gradient
# max-norm is within max(tol, NEWTON_LEVEL_TOL eps (sum a + sum b)): the
# next level needs no more (see _dual_newton)
NEWTON_LEVEL_TOL = 3e-2

# exp of an argument below this is subnormal, which np.exp and the Schur
# GEMM run several times slower on; plan-sized exps take such arguments
# to -inf (exp 0), far below any tolerance
LOG_TINY = math.log(np.finfo(float).tiny)

# Every dual solve runs Newton on a kept part of the plan (the sparse
# path) when the system has at least SPARSE_MIN_SIZE unknowns and at most
# SPARSE_MAX_FILL of the plan is kept.  An entry H_ij is kept when its
# kernel H_ij / (a_i b_j) exceeds SPARSE_KEEP tol / (max(n, m) max a max b)
# at the point the support is chosen, so each dropped entry is below
# SPARSE_KEEP tol / max(n, m), far below the gradient tolerance.  Below
# about 80 nodes, or where most of the plan is kept, the full plan is
# faster.  The margin e^-14 leaves room for the iterates of a level to
# raise dropped entries: at e^-10 the cold 17 x 17 Gaussian neg_power step
# (test_sparse_newton) converged on its kept entries at eps = 1e-7 and
# then left E*'s domain on the full plan, and the level reran dense, 29
# Newton steps against 15 (at e^-12 the step took 75 against 73 on the
# full plan, at e^-14 as many, 73)
SPARSE_MIN_SIZE = 160
SPARSE_MAX_FILL = 0.15
SPARSE_KEEP = 1e-3 * math.exp(-14.0)

# A warm distance start whose full first Newton step is rejected, and whose
# opening point's marginal mismatch |grad_(f, g)|_1 exceeds WARM_MISMATCH
# (sum a + sum b), is handed to the cold schedule at once.  On the distance
# chains of the 1-D benchmark verbs the warm starts that fail open at
# 2.0-4.2 % and none takes its full step.  Those that converge open at
# 0.63 % or less (one at 2.2 %, whose cold solve is no costlier), or take
# their full step (the certification solves after a cold SHK step open at
# 1.5-7.7 %).  The gradient's max-norm does not separate the two groups.
WARM_MISMATCH = 1e-2

METRICS = ("hk", "shk")  # the names is_spherical and the CLI accept


@lru_cache(maxsize=32)
def _domain_cost(domain: GridDomain) -> np.ndarray:
    """The cost between every two nodes of domain, cached: one array shared
    by every solve on the domain, so it is read-only."""
    cost = transport_cost(domain.distance_matrix())
    cost.setflags(write=False)
    return cost


def _in_reach(domain, a, b):
    """Which nodes of a grid pair enter its dual solve, between node masses
    a and b at every node of domain: the masks rows and cols of the nodes
    that carry mass and reach a node of mass on the other side within pi/2,
    the cost between them, and the mass of the other nodes.  That mass has
    no transport partner (the cost is +inf), so it costs itself and takes
    no potential (Liero, Mielke & Savare, Invent. Math. 211, 2018).  The
    cost is the cached _domain_cost itself when every node is kept, else
    one np.ix_ slice of it.  A reached source has a reached target and vice
    versa, so rows and cols are empty together."""
    cost = _domain_cost(domain)
    finite = np.isfinite(cost)
    has_a, has_b = a > 0, b > 0
    rows = has_a & finite.any(axis=1, where=has_b)
    cols = has_b & finite.any(axis=0, where=has_a[:, None])
    unreached = float(a[has_a & ~rows].sum() + b[has_b & ~cols].sum())
    if not (rows.all() and cols.all()):
        cost = cost[np.ix_(rows, cols)]
    return rows, cols, cost, unreached


def _reached_pair(mu0, mu1):
    """The dual problem of two measures on one grid (ValueError otherwise):
    the node masses a and b of the nodes that enter it, the cost between
    them, grid = (domain, rows, cols) with rows and cols their masks, and
    the mass of the other nodes (see _in_reach)."""
    if not mu0.same_domain(mu1):
        raise ValueError("measures live on different grids")
    dom = mu0.domain
    a, b = mu0.density * dom.weights, mu1.density * dom.weights
    rows, cols, cost, unreached = _in_reach(dom, a, b)
    return a[rows], b[cols], cost, (dom, rows, cols), unreached


def _on_grid(grid, value, plan, f, g, *stats):
    """The HKResult, on every node of grid = (domain, rows, cols), of a
    solve on the nodes of masks rows and cols: its plan and potentials
    there, 0 at every other node."""
    _, rows, cols = grid
    n = rows.size
    H, F, G = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    H[np.ix_(rows, cols)] = plan
    F[rows], G[cols] = f, g
    return HKResult(value, H, F, G, *stats)


def _sweep(x, log_mass, cost, eps, axis):
    """Exact maximization of the dual over one potential at the other, x: f
    from g and log b (axis 1), or g from f and log a (axis 0); see
    _dual_newton.  Its log-sum-exp is shifted by the maximum and runs in
    place on one array the size of cost.  -inf entries drop out; every sum
    needs one finite entry."""
    along = (None, slice(None)) if axis else (slice(None), None)
    y = x[along] - cost
    y /= eps
    y += log_mass[along]
    top = y.max(axis=axis, keepdims=True)
    y -= top
    y[y < LOG_TINY] = -np.inf
    np.exp(y, out=y)
    return -eps / (1.0 + eps) * (np.log(y.sum(axis=axis)) + top.squeeze(axis))


def _grouped_sweep(x, log_mass, cost, eps, index, count):
    """_sweep over kept plan entries only: the entries, of costs cost, come
    in runs of count[k] >= 1 entries, one run per potential computed, and
    index holds each entry's node of x and log_mass."""
    y = x[index] - cost
    y /= eps
    y += log_mass[index]
    start = np.cumsum(count) - count
    top = np.maximum.reduceat(y, start)
    y -= np.repeat(top, count)
    np.exp(y, out=y)
    return -eps / (1.0 + eps) * (np.log(np.add.reduceat(y, start)) + top)


def _xlogy(x, y):
    """x log y, exactly 0 where x = 0 (also at y = 0)."""
    with np.errstate(all="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


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
    val = float(np.sum(_xlogy(r, r) - _xlogy(r, a) - r) + a.sum()
                + np.sum(_xlogy(s, s) - _xlogy(s, b) - s) + b.sum())
    finite = np.isfinite(cost)
    val += float(np.sum(plan[finite] * cost[finite]))
    if np.any(plan[~finite] > 0):
        return math.inf
    return val


@dataclass
class HKResult:
    """Solver output: squared distance plus certificates.

    ``dual_value`` is the dual objective at the returned potentials plus
    the unreached mass (see _in_reach).  In hk_distance_squared it is the
    regularized dual of _dual_newton, a smooth surrogate of the squared
    distance.  In hk_exact_small it is sum a (1 - e^-f) + sum b (1 - e^-g)
    at potentials with f_i + g_j <= c_ij on every pair in reach, so a
    lower end of the squared distance, about 1e-13 below ``hk_squared``
    (the barrier's share).  ``level_iterations`` holds the Newton count of
    each regularization level that ran, in order; they sum to
    ``iterations``.  A warm solve holds one entry when the warm start held;
    otherwise the warm attempt's count (0 when it was triaged, see
    WARM_MISMATCH) followed by the cold schedule's counts.
    ``level_support`` holds, per level in the same order, the kept plan
    entries of each support the level chose: one entry n m on a dense
    level, and one more entry for each time a sparse level chose its
    support again or restarted on the full plan.  ``factor_fallbacks``
    counts the Newton directions whose Schur complement failed to factor:
    solved with 1e-12 I added on the full plan, and on a kept support
    restarted on the full plan (or given up in a warm attempt whose pass
    took steps).  ``coarse_levels`` counts the levels of the cold schedule
    that ran on the nested coarser grid, those before the first whose
    coarse opening keeps a support (0 on any other solve); they keep their
    place in both tuples, with the coarse Newton counts and supports (n m
    of the coarse node masses), and ``iterations`` counts both grids.
    """

    hk_squared: float
    plan: np.ndarray
    potential_source: np.ndarray
    potential_target: np.ndarray
    marginal_error: float
    iterations: int
    converged: bool
    dual_value: float = 0.0
    level_iterations: tuple = ()
    level_support: tuple = ()
    factor_fallbacks: int = 0
    coarse_levels: int = 0

    @property
    def hk(self) -> float:
        return math.sqrt(max(self.hk_squared, 0.0))


def regularized_dual(a, b, f, g, H, eps) -> float:
    """The regularized dual D(f, g) of _dual_newton at the plan H of (f, g)
    between node masses a and b."""
    return (float(a @ (1.0 - np.exp(-f)) + b @ (1.0 - np.exp(-g)))
            - eps * (float(H.sum()) - float(a.sum() * b.sum())))


class _Point(NamedTuple):
    """One iterate of _dual_newton: variables, target masses, kernel
    K_ij = a_i exp((f_i + g_j - c_ij) / eps) (the plan is K diag(b)), dual
    value, the plan's row and column sums r = K b and s = b u (u the
    column sums of K), a e^-f, b e^-g, gradient and its max-norm, the
    Hessian factors (e^-g - u, Z, d) (Z empty and d = 0 in a distance
    solve), and whether all of these are finite.  On a kept support K
    holds the kept entries only.

    _dual_newton returns its last iterate, always on the full plan, with
    the solve's tallies filled in: per-level Newton counts and kept
    supports (of a warm attempt, then of the cold rerun if one followed),
    the converged verdict, the number of Newton directions whose Schur
    complement failed to factor (solved with 1e-12 I added, or on a kept
    support by a restart or a warm attempt's give-up) and the number of
    leading levels of the cold schedule that ran on the coarser grid (see
    _coarse_head).  The
    coarse head itself returns such a point of the coarse problem, where
    its last level ended."""

    f: np.ndarray
    g: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    K: np.ndarray
    val: float
    r: np.ndarray
    s: np.ndarray
    ea: np.ndarray
    eb: np.ndarray
    grad: np.ndarray
    gnorm: float
    extra: tuple
    finite: bool
    levels: tuple = ()
    supports: tuple = ()
    converged: bool = False
    fallbacks: int = 0
    coarse: int = 0


class _Support(NamedTuple):
    """Kept plan entries (rows, cols), row-major, their costs, the stable
    order that sorts them by column, and the pair plan of S's band: pairs
    (p, q) of entries in one column, rows[p] >= rows[q], their slots in
    LAPACK lower band storage, and the half-bandwidth kd; None (S is dense)
    where it exceeds n m pairs.  Indices are np.intp, as numpy indexes
    with."""

    rows: np.ndarray
    cols: np.ndarray
    cost: np.ndarray
    order: np.ndarray
    pairs: tuple | None

    @classmethod
    def build(cls, rows, cols, cost, n, m):
        order = np.argsort(cols, kind="stable")
        count = np.bincount(cols, minlength=m)
        if count @ (count + 1) // 2 > n * m:
            return cls(rows, cols, cost, order, None)
        start = np.repeat(np.cumsum(count) - count, count)
        reps = np.arange(rows.size) - start + 1
        p = np.repeat(order, reps)
        q = order[np.arange(p.size)
                  + np.repeat(start - np.cumsum(reps) + reps, reps)]
        kd = int((rows[p] - rows[q]).max(initial=0))
        return cls(rows, cols, cost, order, (p, q, rows[p] + kd * rows[q], kd))


def _kept_support(f, g, cost, eps, kernel_min):
    """The entries whose kernel H_ij / (a_i b_j) = exp((f_i + g_j - c_ij) /
    eps) exceeds kernel_min, with their pair plan, or None when they are
    more than SPARSE_MAX_FILL of the plan.  The test is on the kernel, not
    on H, so rows and columns of small mass keep their tight entries too."""
    n, m = cost.shape
    rows, cols = np.nonzero((f[:, None] + g[None, :] - cost) / eps
                            > math.log(kernel_min))
    if rows.size > SPARSE_MAX_FILL * n * m:
        return None
    return _Support.build(rows, cols, cost[rows, cols], n, m)


def _support_opening(g, log_a, log_b, eps, kernel_min, support):
    """A level's opening at eps on the kept support the last level ended on:
    the f-sweep from g, grouped by row, and the g-sweep, grouped by column,
    over the support's entries only, and the kept support there, those of
    its entries whose kernel still exceeds kernel_min (see _kept_support).
    None when a row or column has no entry on the support."""
    i, j, c, order, _ = support
    n, m = log_a.size, log_b.size
    in_row, in_col = np.bincount(i, minlength=n), np.bincount(j, minlength=m)
    if not (in_row.all() and in_col.all()):
        return None
    f = _grouped_sweep(g, log_b, c, eps, j, in_row)
    g = _grouped_sweep(f, log_a, c[order], eps, i[order], in_col)
    keep = (f[i] + g[j] - c) / eps > math.log(kernel_min)
    return f, g, _Support.build(i[keep], j[keep], c[keep], n, m)


def _newton_direction(pt, eps, support):
    """Solve M x = grad for the Newton matrix M (minus the dual's Hessian)
    at pt.  With w = e^-g - u and the term's (Z, d) (Z empty and d = 0 in a
    distance solve), M = [[A, B], [B^T, diag(D)]] in the order (f, theta,
    g), where D = eb + s / eps + d w^2, B = [K diag(beta); Z diag(d w)]
    with beta = b / eps - d w, and A = diag(ea + r / eps, 0) + V diag(d)
    V^T with V = [-K; Z].  g is eliminated, which leaves the Schur
    complement [[S, C], [C^T, S_theta]] on (f, theta): S = diag(ea + r /
    eps) + K diag(d - beta^2 / D) K^T, C = K diag(-d - beta d w / D) Z^T
    and S_theta = Z diag(d - d^2 w^2 / D) Z^T.  Cholesky factors S alone,
    banded (pbtrf) on a kept support with a pair plan, else dense (potrf;
    on a kept support from K scattered into n x m), and solves S [y, X] =
    [rhs_f, C].  theta then takes the k x k correction x_theta = T^-1
    (rhs_theta - C^T y) with T = S_theta - C^T X, the last pivot of the
    bordered Cholesky, and x_f = y - X x_theta, x_g = D^-1 (grad_g - beta
    K^T x_f - d w Z^T x_theta).  A node with D_j = 0 (no mass, no
    curvature) has step 0.  Returns x and whether the factorization
    failed; x then solves S + 1e-12 I in place of S, or is None on a kept
    support.  It runs inside _continuation's np.errstate: a step that
    overflows is rejected by the line search."""
    w, Z, d = pt.extra
    n, m, k = pt.r.size, pt.s.size, Z.shape[0]
    grad_g = pt.grad[n:n + m]
    band = support is not None and support.pairs is not None
    K = pt.K if support is None or band else np.bincount(
        support.rows * m + support.cols, pt.K, n * m).reshape(n, m)
    if band:
        (p, q, slot, kd), i, j = support.pairs, support.rows, support.cols
    K_dot = (lambda v: np.bincount(i, K * v[j], n)) if band else K.__matmul__
    dw = d * w
    D = pt.eb + pt.s / eps + dw * w
    inv = np.divide(1.0, D, out=np.zeros(m), where=D > 0)
    beta = pt.b / eps - dw
    coef = d - beta * beta * inv
    S = (np.bincount(slot, (K * coef[j])[p] * K[q],
                     (kd + 1) * n).reshape(n, kd + 1).T
         if band else (K * coef) @ K.T)
    S[0 if band else np.diag_indices(n)] += pt.ea + pt.r / eps
    rhs = pt.grad[:n] - K_dot(beta * inv * grad_g)
    if k:
        # the columns of C join rhs_f: S [y, X] = [rhs_f, C], one solve
        rhs = np.array([rhs, *map(K_dot, Z * (-d - beta * dw * inv))]).T
        S_theta = (Z * (d - dw * dw * inv)) @ Z.T
    c, info = dpbtrf(S, lower=1) if band else dpotrf(S, lower=0, clean=0)
    if info != 0 and support is not None:
        return None, True
    x = (dpbtrs(c, rhs, lower=1)[0] if band
         else dpotrs(c, rhs, lower=0)[0] if info == 0
         else np.linalg.solve(S + 1e-12 * np.eye(n), rhs))
    x_theta = pt.grad[n + m:]  # empty unless the solve carries theta
    if k:
        C, y, X = rhs[:, 1:], x[:, 0], x[:, 1:]
        x_theta = np.linalg.solve(
            S_theta - C.T @ X, x_theta - Z @ (dw * inv * grad_g) - C.T @ y)
        x = y - X @ x_theta
    Kt_x = np.bincount(j, K * x[i], m) if band else K.T @ x
    x_g = inv * (grad_g - beta * Kt_x - (dw * (Z.T @ x_theta) if k else 0))
    return np.concatenate([x, x_g, x_theta]), info != 0


def _dual_newton(a, b, cost, eps_schedule, max_iter, tol, term=None,
                 theta0=(), warm=None, grid=None):
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
    term.value(k, theta, eps) returns (F, b, dF/dtheta, d, Z) at the
    level's eps: b = dF/dk are the target masses, and -F'' = W diag(d) W^T
    in the coordinates (k, theta), with W = [I; Z].  Without a term the
    solve is a distance solve, F = b.k with d = 0 and no theta, so every
    solve evaluates its iterates the same way (the kernel K, the slopes k,
    then F) and takes its Newton steps from one Schur complement (see
    _newton_direction).  With a term ``b`` only seeds the first opening
    sweep, and term.opening(k, theta, eps) returns the maximizing theta at
    given slopes.

    A level opens from the g the last level ended on; from the third level
    of a loop on (the coarse head below and the fine levels after it are
    two loops), from the line through the g at the ends of that loop's
    last two levels instead,

        g = g_k + (eps - eps_k) / (eps_k - eps_(k-1)) (g_k - g_(k-1)),

    as the optimal potentials move linearly in eps as eps -> 0 (Cominetti
    & San Martin, Math. Programming 67, 1994): on a geometric schedule the
    factor is the schedule's ratio.  Opened from the previous g alone, a
    level at small eps takes damped steps first (t = 2^-k, k growing by
    one per level).

    Every level opens with one unbalanced-Sinkhorn sweep (Chizat, Peyre,
    Schmitzer & Vialard, Math. Comp. 2018) at the current target masses:
    exact block maximization in closed form, first over f with g fixed,
    then over g with f fixed (LSE over the kept entries only when the level
    opens on a kept support, see below),

        f_i = -eps/(1+eps) LSE_j(log b_j + (g_j - c_ij)/eps),
        g_j = -eps/(1+eps) LSE_i(log a_i + (f_i - c_ij)/eps),

    each of which zeroes its half of the gradient.  Block ascent never
    lowers the dual, and it removes the overshoot of the previous level's
    Gibbs plan at the smaller eps, which full Newton steps would otherwise
    shrink only linearly.  With a term, the g-sweep still maximizes every
    slope k_j, and theta opens at term.opening; should the opening point
    leave the term's domain (dual -inf), f is lowered until it is back
    inside.

    A trial step is judged on its dual value first: one below the current
    value less the roundoff band 1e-14 (sum a + sum b), or NaN, is rejected
    before its gradient is formed.  Otherwise it is accepted when it is
    finite and the dual gains more than the band; near the optimum the true
    gain of a Newton step (about gradient^2 eps) falls below that band, so
    there a trial inside the band is accepted when the max-norm of its
    gradient falls.  Otherwise the step is halved.  The term's Hessian is
    formed only where a Newton direction is taken.

    The Newton step eliminates g, whose Hessian block is diagonal, factors
    the Schur complement on f by Cholesky and corrects for theta after it
    (see _newton_direction).  On large solves (n + m >= SPARSE_MIN_SIZE),
    with or without a term, at small eps almost all of the plan is
    roundoff.  There each level chooses a kept support at its opening point
    (see _kept_support and SPARSE_KEEP; Schmitzer, SIAM J. Sci. Comput.
    2019, truncates the kernel the same way), and Newton evaluates the plan
    on the kept entries only, where the Schur complement on f is banded (see
    _Support), with theta or without.  A level whose support would keep more
    than SPARSE_MAX_FILL of the plan stays dense.  A level that follows one
    ended on a kept support opens on it (see _support_opening): both sweeps
    run over its entries, grouped by row and by column, and the new support
    is those of its entries whose kernel still passes the keep test at the
    new eps.  A level opens on the full plan, as above, as the first of a
    loop, after a dense level or a restart, and when a row or column has no
    kept entry.  Either way, an opening that keeps a support is evaluated on
    it only, and the full plan is not read until the pass ends.

    A Newton pass on a kept support ends with one evaluation on the full
    plan, from which one policy (_pass_end) decides how the level goes on,
    as Schmitzer (2019) keeps truncation apart from eps-scaling.  "done":
    the level ends there, as its gradient exceeds the kept one by at most
    1e-3 tol, the pass took no step, or the gradient meets the level
    tolerance (below).  "re-choose": the support is chosen again there and
    the level goes on.  "restart": the gradient exceeds the pass's first
    gradient, is not finite (outside the term's domain), or S failed to
    factor on the support; the level goes on from that first point on the
    full plan.  A cold level keeps this restart, which guards against
    clusters of tiny mass that drift on their own kept entries.  In a warm
    attempt whose pass took steps, "give up" takes its place: the attempt
    ends unconverged and the cold solve follows.  A warm level chooses its
    support at a stale opening and can converge on its entries far from the
    full-plan optimum (on 33 x 33 the dropped entries reach the exp cap of
    500), where the dense restart ran up to 60 Newton steps: the 33 x 33 SHK
    evi_check of an A = 0.5 sinusoid (tau = 0.01, 16 steps) took 93 s with
    it and 15 s without, at one BLAS thread.  Every level thus ends on a
    full evaluation, and the returned plan, gradient and dual value are
    those of the full plan.  A distance solve then closes with one f-sweep
    at the last g, so that each plan row holds exactly a e^-f, and returns
    that point: the primal value of its plan does not depend on where Newton
    stopped in rows of tiny mass.

    A cold solve runs the schedule from the seed (b, g = 0, theta0).  A cold
    distance solve given its ``grid`` = (domain, rows, cols), the masks of
    the nodes of a and b (see _in_reach), first runs the schedule but its
    last level on the coarser grid (see _coarse_head) when the grid nests
    one and a or b has SPARSE_MIN_SIZE nodes or more.  That coarse head
    hands over before the first level whose coarse opening keeps a support:
    the levels before it would factor a dense n x n Schur complement per
    Newton direction on the fine grid.  The fine loop then runs the
    remaining levels from the coarse g interpolated to the fine targets
    (from g = 0 when no coarse level ran).  On smaller grids (9 x 9,
    11 x 11) the first fine level, opened from an interpolated g that misses
    the node-scale ratio of the masses, takes more Newton steps than the
    coarse levels save.  A warm start (b, g, theta) solves the final level only
    (the sweep computes f from g); should that not converge, or give up
    (above), the cold solve follows, and both runs' levels and supports are
    returned.  A warm distance solve also gives up at its first line search
    (triage): if the full step is rejected and the opening point's marginal
    mismatch |grad_(f, g)|_1 exceeds WARM_MISMATCH (sum a + sum b), the warm
    attempt ends there with 0 steps and the cold solve follows, so its
    result is the cold solve's.  Steps (with a term) are not triaged: an SHK
    step warm from the previous step can meet the same test and still
    converge at the final level.

    tol is per unit of mass: the solve scales it by max(1, sum a + sum b)
    of the masses it is given (with a term, b is the cold seed).
    Converged means a gradient max-norm within NEWTON_SLACK times the
    scaled tolerance, judged where the final level ended.

    A level runs Newton until its gradient max-norm is below its level
    tolerance.  A level above the distance schedule's last eps needs no
    more than a point the next level can open from: its opening sweeps and
    the eps-predictor move g by O(delta eps) anyway (Cominetti & San Martin
    1994), and other eps-scaling solvers stop each level on a coarser
    marginal error (Schmitzer, SIAM J. Sci. Comput. 2019).  Such a level
    ends at max(tol, NEWTON_LEVEL_TOL eps (sum a + sum b)), and so does a
    sparse pass whose full-plan gradient meets it; the keep threshold of
    the kept supports stays at tol.  Every level at or below eps =
    DEFAULT_EPS_SCHEDULE[-1] ends at tol.  The rule is the same in every
    solve, a distance solve's or a step's, cold, warm or on the coarse
    head; it is marked by eps, not by the level's place in the schedule,
    so a warm attempt solves its level to tol, and the first k + 1
    levels of a schedule, run alone, end level k where the whole schedule
    does.  With NEWTON_LEVEL_TOL = 1e-1 the 17 x 17 solve of
    test_levels_open_from_the_line_through_the_last_two_ends moves g by
    less than eps from one level's end to the next level's opening, the
    test's guard that the predictor acts.
    """
    tol = tol * max(1.0, float(a.sum()) + float(b.sum()))
    levels, supports, fallbacks = (), (), 0
    if warm is not None:
        sol = _continuation(a, cost, eps_schedule[-1:], max_iter, tol, term,
                            *warm, warm=True)
        if sol.converged:
            return sol
        levels, supports, fallbacks = sol.levels, sol.supports, sol.fallbacks
    g0, head, coarse = np.zeros(cost.shape[1]), None, 0
    if (grid is not None and max(cost.shape) >= SPARSE_MIN_SIZE
            and grid[0].coarser() is not None):
        head = _coarse_head(a, b, eps_schedule[:-1], max_iter, tol, *grid)
    if head is not None:
        head, g0 = head
        coarse = len(head.levels)
        eps_schedule = eps_schedule[coarse:]
        levels, supports = levels + head.levels, supports + head.supports
        fallbacks += head.fallbacks
    sol = _continuation(a, cost, eps_schedule, max_iter, tol, term, b, g0,
                        theta0)
    return sol._replace(levels=levels + sol.levels,
                        supports=supports + sol.supports,
                        fallbacks=fallbacks + sol.fallbacks, coarse=coarse)


def _coarse_head(a, b, eps_schedule, max_iter, tol, domain, rows, cols):
    """The leading levels of _dual_newton's cold distance solve between the
    node masses a and b at the nodes of masks rows and cols of a grid that
    nests a coarser one, run on that coarser grid (multiscale eps-scaling,
    Schmitzer, SIAM J. Sci. Comput. 2019).  Both mass vectors are summed
    onto the coarse nodes by full weighting, and one cold _continuation
    over eps_schedule, on the coarse nodes _in_reach keeps, hands over
    before the first level whose coarse opening keeps a support.  Returns
    that solve, ended where its last level ended, and its g interpolated
    linearly to the fine targets; None when no level ran or no coarse
    source reaches a coarse target.  The solved coarse targets carry their
    g, every other coarse node the seed 0.  No fine target reads a coarse
    node of no mass: full weighting is the transpose of the interpolation,
    so each coarse node in the stencil of a fine target takes a share of
    its mass, positive unless that mass is below about 2e-323 and its share
    rounds to 0."""
    coarse = domain.coarser()
    a_c, b_c = (domain.coarsen_masses(np.bincount(k.nonzero()[0], x, k.size))
                for k, x in ((rows, a), (cols, b)))
    src, tgt, cost, _ = _in_reach(coarse, a_c, b_c)
    if not src.any():
        return None
    a_c, b_c = a_c[src], b_c[tgt]
    head = _continuation(a_c, cost, eps_schedule, max_iter, tol, None, b_c,
                         np.zeros(b_c.size), (), handover=True)
    if head is None:
        return None
    g = np.zeros(tgt.size)
    g[tgt] = head.g
    return head, domain.prolong(g)[cols]


def _pass_end(end, kept, opened, steps, failed, tol, stop, warm):
    """How a Newton pass on a kept support ends (see _dual_newton), judged at
    end, its last point evaluated on the full plan.  kept is the gradient
    max-norm of that point on the support, opened the one where the pass
    opened (on its support at the level's opening, on the full plan where
    the support was chosen again), steps the pass's Newton steps, failed
    whether S failed to factor, tol the solve's tolerance and stop the level
    tolerance of a level above DEFAULT_EPS_SCHEDULE[-1] (0 on finer
    levels).  Mass the support dropped shows in the full gradient: a cluster
    of tiny masses tied only to itself by its kept entries can drift on them
    until dropped entries dominate (the pass ends worse than it began) or
    make S fail to factor, and the dropped entries lower the slopes k, so a
    point inside a term's domain on the kept entries can be outside it on
    the full plan.  "restart": the level goes on on the full plan from where
    the pass opened, as S failed, end is not finite (outside the term's
    domain) or its gradient exceeds the opening's.  On a warm attempt (warm)
    whose pass took steps, "give up" in its place: the attempt ends
    unconverged and the cold schedule follows.  A cold level keeps its
    restart, which guards against clusters of tiny mass that drift on their
    own kept entries.  "done": the level ends at end, as the dropped entries
    add at most 1e-3 tol to the gradient, the pass took no step, or end
    meets stop.  Otherwise "re-choose": the support is chosen again at end
    and the level goes on."""
    if failed or not end.finite or end.gnorm > opened:
        return "give up" if warm and steps else "restart"
    done = end.gnorm <= kept + 1e-3 * tol or not steps or end.gnorm < stop
    return "done" if done else "re-choose"


def _continuation(a, cost, eps_schedule, max_iter, tol, term, b, g0, theta0,
                  warm=False, handover=False):
    """_dual_newton's loop over one eps schedule from (b, g0, theta0).  From
    the third level on, a level opens from the linear extrapolation in eps
    of the g at the ends of the last two levels.  Each level then runs
    Newton passes (the level routine newton below) on its kept support or
    the full plan, and _pass_end decides how each pass on a kept support
    ends; the loop keeps the tallies of every pass.  With ``warm`` (the
    warm attempt of _dual_newton), the level gives up, ending unconverged,
    when a kept pass that took steps would restart, and in a distance
    solve when its opening mismatch exceeds WARM_MISMATCH and its first
    full step is rejected (triage, with no step taken).  With
    ``handover`` (the coarse head of a distance solve, see _coarse_head),
    the loop ends before the first level whose full-plan opening keeps a
    support, at any problem size, and returns the point where the last level
    ended, with no closing sweep; None when no level ran."""
    n, m = cost.shape
    log_a = np.log(a)
    sa = float(a.sum())
    empty = np.empty((0, m))
    # the floating-point state of evaluate and _newton_direction, entered
    # once per level's Newton loop; the sweeps keep their own
    quiet = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

    def evaluate(f, g, theta, eps, b, opening=False, support=None,
                 bar=None):
        # a trial valued below bar (or NaN) is rejected: None, no gradient.
        # Overflow and NaN are judged by finite and bar, so callers run this
        # inside np.errstate(**quiet).  K = exp(min(log a + (f + g - c) /
        # eps, 500)), in place, with 0 for arguments below LOG_TINY on the
        # full plan (kept entries are far above it)
        if support is None:
            K, c, log_ai = f[:, None] + g[None, :], cost, log_a[:, None]
        else:
            i, j = support.rows, support.cols
            K, c, log_ai = f[i] + g[j], support.cost, log_a[i]
        K -= c
        K /= eps
        K += log_ai
        np.minimum(K, 500.0, out=K)
        if support is None:
            K[K < LOG_TINY] = -np.inf
        np.exp(K, out=K)
        u = K.sum(axis=0) if support is None else np.bincount(j, K, m)
        e_f, e_g = np.exp(-f), np.exp(-g)
        kappa = 1.0 - e_g - eps * (u - sa)
        if term is None:
            # a distance solve: the linear term F = b.kappa
            F, grad_theta, d, Z = b @ kappa, (), 0.0, empty
        else:
            theta = term.opening(kappa, theta, eps) if opening else theta
            F, b, grad_theta, d, Z = term.value(kappa, theta, eps)
        val = float(a @ (1.0 - e_f) + F)
        if bar is not None and not val >= bar:
            return None
        r = K @ b if support is None else np.bincount(i, K * b[j], n)
        s = b * u
        ea, eb = a * e_f, b * e_g
        grad = np.concatenate([ea - r, eb - s, grad_theta])
        gnorm = float(np.max(np.abs(grad)))
        finite = (bool(np.isfinite(d).all()) and math.isfinite(val)
                  and math.isfinite(gnorm))
        return _Point(f, g, np.asarray(theta, dtype=float), b, K, val, r, s,
                      ea, eb, grad, gnorm, (e_g - u, Z, d), finite)

    def solved(pt, converged):
        return pt._replace(levels=tuple(levels), supports=tuple(supports),
                           converged=converged, fallbacks=fallbacks)

    def newton(pt, support, level_tol, budget, hopeless):
        # the level routine: damped Newton at the level's eps on support from
        # pt until the gradient max-norm is below level_tol, within budget
        # steps.  Returns the end point, the steps taken and the Newton
        # directions whose S failed to factor (a pass on a kept support ends
        # at the first); with hopeless, None in place of the end point once
        # the first full step is rejected: too far off for damped Newton at
        # this eps
        steps = failed = 0
        while steps < budget and not pt.gnorm < level_tol:
            step, fail = _newton_direction(pt, eps, support)
            failed += fail
            if fail and support is not None:
                break
            t = 1.0
            while t > 1e-13:
                trial = evaluate(pt.f + t * step[:n], pt.g + t * step[n:n + m],
                                 pt.theta + t * step[n + m:], eps, pt.b,
                                 support=support, bar=pt.val - noise)
                # a gain beyond roundoff decides; inside the roundoff band the
                # dual cannot, so the gradient norm must fall instead
                if trial is not None and trial.finite and (
                        trial.val > pt.val + noise or trial.gnorm < pt.gnorm):
                    break
                if hopeless and t == 1.0 and not steps:
                    return None, 0, failed
                t *= 0.5
            else:
                break
            # the accepted trial's plan, dual value and gradient are the next
            # iterate's, so an accepted step computes nothing twice
            pt, steps = trial, steps + 1
        return pt, steps, failed

    total = float(a.sum() + b.sum())
    # dual values closer than this differ by roundoff only
    noise = 1e-14 * total
    g = np.asarray(g0, dtype=float)
    theta = np.asarray(theta0, dtype=float)
    # the kernel below which _kept_support drops a plan entry
    kernel_min = SPARSE_KEEP * tol / (max(n, m) * a.max() * b.max())
    levels, supports, fallbacks = [], [], 0
    # the kept support the last level ended on (None: the full plan), and
    # (eps, g) where the last two levels ended
    support, ends = None, []
    for eps in eps_schedule:
        if len(ends) == 2:
            # open from the line through the last two ends (see _dual_newton)
            (eps1, g1), (eps2, g2) = ends
            g = g2 + (eps - eps2) / (eps2 - eps1) * (g2 - g1)
        kept = None if support is None else _support_opening(
            g, log_a, np.log(b), eps, kernel_min, support)
        if kept is not None:
            f, g, support = kept
        else:
            with np.errstate(divide="ignore"):
                f = _sweep(g, np.log(b), cost, eps, axis=1)
            g = _sweep(f, log_a, cost, eps, axis=0)
            support = (_kept_support(f, g, cost, eps, kernel_min)
                       if handover or n + m >= SPARSE_MIN_SIZE else None)
            if handover and support is not None:
                break
        # on a kept support, the full plan is first evaluated where the
        # pass ends
        for _ in range(64):
            with np.errstate(**quiet):
                opened = pt = evaluate(f, g, theta, eps, b, opening=True,
                                       support=support)
            if pt.finite or term is None:
                break
            # outside the domain of the term (dual -inf): a lower f lowers
            # every u_j, so the g-sweep raises every slope k_j toward
            # 1 + eps sum a
            f = f - 1.0
            g = _sweep(f, log_a, cost, eps, axis=0)
        levels.append(0)
        supports.append(())
        # on a kept support the mismatch misses the dropped entries, far
        # below WARM_MISMATCH
        hopeless = warm and term is None and float(
            np.abs(opened.grad).sum()) > WARM_MISMATCH * total
        # a level above the distance schedule's last eps stops at what the
        # next level needs, early; every finer level at tol (see _dual_newton)
        early = (max(tol, NEWTON_LEVEL_TOL * eps * total)
                 if eps > DEFAULT_EPS_SCHEDULE[-1] else 0.0)
        with np.errstate(**quiet):
            while True:
                supports[-1] += (n * m if support is None
                                 else support.rows.size,)
                pt, steps, failed = newton(pt, support, max(tol, early),
                                           max_iter - levels[-1],
                                           hopeless and not levels[-1])
                levels[-1] += steps
                fallbacks += failed
                if pt is None or support is None:
                    break
                end = evaluate(pt.f, pt.g, pt.theta, eps, pt.b)
                verdict = _pass_end(end, pt.gnorm, opened.gnorm, steps, failed,
                                    tol, early, warm)
                if verdict == "give up":
                    pt = None
                    break
                pt = end if verdict != "restart" else evaluate(
                    opened.f, opened.g, opened.theta, eps, opened.b)
                if verdict == "done" or levels[-1] == max_iter:
                    break
                # the next pass: dense after a restart, else on the support
                # chosen again at end
                opened = pt
                support = None if verdict == "restart" else _kept_support(
                    pt.f, pt.g, cost, eps, kernel_min)
                if support is not None:
                    pt = evaluate(pt.f, pt.g, pt.theta, eps, pt.b,
                                  support=support)
        if pt is None:
            # a warm attempt gives up: the caller's cold schedule continues
            # into it instead
            return solved(opened, False)
        g, theta, b = pt.g, pt.theta, pt.b
        ends = ends[-1:] + [(eps, g)]
    if term is None and not handover:
        # a closing f-sweep, exact maximization over f at the last g, so
        # that each plan row holds a e^-f.  Newton stops on the gradient's
        # max-norm, and a source node of tiny mass (down to 1e-90 in a
        # narrow Gaussian's tail) may keep plan mass near the tolerance, far
        # above its own, whose term r log(r / a) would move the primal
        # value by about tol log(tol / a)
        f = _sweep(pt.g, np.log(b), cost, eps, axis=1)
        with np.errstate(**quiet):
            pt = evaluate(f, pt.g, pt.theta, eps, b)
    return solved(pt, pt.gnorm <= NEWTON_SLACK * tol) if ends else None


def hk_distance_squared(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                        max_iter: int = NEWTON_MAX_ITER,
                        tol: float = NEWTON_TOL,
                        warm_start=None) -> HKResult:
    """Squared Hellinger-Kantorovich distance between two grid measures.

    A cold solve runs all of DEFAULT_EPS_SCHEDULE, with at most max_iter
    Newton steps per level and gradient tolerance tol per unit of sum a +
    sum b, the node masses of the solved nodes, at its final level; the
    levels before it stop at max(tol, NEWTON_LEVEL_TOL eps (sum a + sum
    b)) (see _dual_newton).  It is converged within NEWTON_SLACK times tol.
    At one BLAS thread a cold smooth solve on 17 x 17 takes about 45
    Newton steps and 0.035 s, on 33 x 33 35 steps and 0.45 s, on 49 x 49 47
    steps and 4 s, and on 65 x 65 49 steps and 12 s (peak RSS about 1
    GB).
    ``warm_start``, an earlier solve's ``potential_target`` (a finite array
    of one value per grid node, else ValueError), seeds the final level;
    _dual_newton reruns the full schedule if that fails, at once when the
    warm point is far off (see WARM_MISMATCH).  Mass with no transport
    partner within pi/2 (all of it, for a zero measure) costs itself, takes
    potential 0 and no plan, and needs no Newton step (see _in_reach).
    Logs one debug line per solve.
    """
    a, b, cost, grid, unreached = _reached_pair(mu0, mu1)
    if warm_start is not None:
        n = grid[0].n_nodes
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (n,) or not np.isfinite(warm_start).all():
            raise ValueError(f"warm_start must be a finite array of shape "
                             f"({n},), got one of shape {warm_start.shape}")
    if not a.size:
        return _on_grid(grid, unreached, 0.0, 0.0, 0.0, 0.0, 0, True,
                        unreached)
    warm = None if warm_start is None else (b, warm_start[grid[2]], ())
    sol = _dual_newton(a, b, cost, DEFAULT_EPS_SCHEDULE, max_iter, tol,
                       warm=warm, grid=grid)
    H = sol.K * sol.b
    log.debug("distance solve: %d Newton steps, levels %s, converged %s, "
              "gradient %.3g, warm start held %s, %d factor fallbacks",
              sum(sol.levels), sol.levels, sol.converged, sol.gnorm,
              warm is not None and len(sol.levels) == 1, sol.fallbacks)
    return _on_grid(grid, unreached + let_cost(H, a, b, cost), H, sol.f,
                    sol.g, sol.gnorm, sum(sol.levels), sol.converged,
                    unreached + sol.val, sol.levels, sol.supports,
                    sol.fallbacks, sol.coarse)


def hk_distance(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> float:
    return hk_distance_squared(mu0, mu1).hk


def hk_exact_small(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> HKResult:
    """Interior-point solve of the entropy-transport program on all pairs.

    Minimizes the objective plus a log barrier on the P coupling entries h
    of the pairs within pi/2, by damped Newton steps along the barrier path
    (x0.2 per round, at most 80 steps a round and 2000 in all).  The path
    ends at the floor 1e-13 / P, so the barrier's share of the value,
    weight times P, stays below 1e-13 at any support size; the solve is
    converged when the complementarity residual falls below 1e-10.

    The Hessian is diag(barrier / h^2) + M^T diag(1 / r, 1 / s) M, with M
    the (n + m) x P incidence of each pair to its source and target and r,
    s the plan's row and column sums.  By the Woodbury identity each Newton
    step is then one dense solve of the (n + m) normal equations

        (diag(r, s) + M diag(h^2 / barrier) M^T) y = M (h^2 / barrier) grad

    (Wright, Primal-Dual Interior-Point Methods, SIAM 1997), whose matrix
    is positive definite.  There is no cap on the support.  A round also
    ends when an accepted step leaves h unchanged: near the floor its exit
    test cannot be met in floating point, and the line search would halve
    each later step some 45 times for nothing.  A solve takes at most
    about 150 steps, each O((n + m)^3) for the solve plus O(P) per
    gradient of the line search: at one BLAS thread, 1-D pairs of 33, 65
    and 129 nodes take about 0.03, 0.05 and 0.25 s, and a 17 x 17 pair
    about 2 s.  As in hk_distance_squared, mass with no transport partner
    within pi/2 costs itself and stays out of the program (see
    _in_reach).
    """
    a, b, cost, grid, unreached = _reached_pair(mu0, mu1)
    if not a.size:
        return _on_grid(grid, unreached, 0.0, 0.0, 0.0, 0.0, 0, True,
                        unreached)
    ab = np.concatenate([a, b])
    # each finite pair's source i and target j; j is node J of the marginals
    i, j = np.nonzero(np.isfinite(cost))
    J = a.size + j
    ends = np.concatenate([i, J])
    c = cost[i, j]
    floor = 1e-13 / c.size

    def sums(h):
        """M h: the row sums r of the plan entries h, then the column sums s."""
        return np.bincount(ends, np.concatenate([h, h]), ab.size)

    def gradient(h, barrier):
        y = np.log(sums(h) / ab)
        return y[i] + y[J] + c - barrier / h

    h = a[i] * b[j] / max(float(ab.sum()), 1.0) + 1e-3
    # follow the barrier central path: at weight barrier the complementarity
    # products grad_p * h_p equal it, so driving it below the tolerance
    # certifies the KKT system
    barrier, it = 1e-2, 0
    while barrier > floor and it < 2000:
        barrier = max(barrier * 0.2, floor)
        for _ in range(80):
            it += 1
            grad = gradient(h, barrier)
            # the Newton step H^-1 grad by the Woodbury identity, with H =
            # diag(1 / d) + M^T diag(1 / r, 1 / s) M
            d = h * h / barrier
            normal = np.diag(sums(h + d))
            normal[i, J] = normal[J, i] = d
            y = np.linalg.solve(normal, sums(d * grad))
            step = d * (grad - y[i] - y[J])
            t = 1.0
            while np.any(h - t * step <= 0):
                t *= 0.5
            gnorm = float(np.linalg.norm(grad))
            while t > 1e-16:
                h_new = h - t * step
                g_new = gradient(h_new, barrier)
                if float(np.linalg.norm(g_new)) <= (1.0 - 0.1 * t) * gnorm:
                    break
                t *= 0.5
            else:
                break
            if np.array_equal(h_new, h):
                # a step below roundoff: the round's exit test can no longer
                # be met, so the next barrier takes over
                break
            h = h_new
            if float(np.linalg.norm(g_new * h)) < 0.1 * barrier:
                break

    y = np.log(sums(h) / ab)
    kkt = float(np.max(np.abs((y[i] + y[J] + c) * h)))
    dense = np.zeros_like(cost)
    dense[i, j] = h
    # the potentials are f = -y[:n], g = -y[n:], and the dual value there,
    # sum a (1 - e^-f) + sum b (1 - e^-g), is ab (1 - e^y)
    return _on_grid(grid, unreached + let_cost(dense, a, b, cost), dense,
                    -y[:a.size], -y[a.size:], kkt, it, kkt < 1e-10,
                    unreached + float(ab @ (1.0 - np.exp(y))))


def hk_two_diracs(mass0: float, mass1: float, distance: float) -> float:
    """Closed-form squared distance between two weighted point masses."""
    if mass0 < 0 or mass1 < 0 or distance < 0:
        raise ValueError("masses and distance must be nonnegative")
    return mass0 + mass1 - 2.0 * math.sqrt(mass0 * mass1) * math.cos(
        min(distance, HALF_PI))


def dilated_hk_squared(hk2, m0, m1, t0: float, t1: float):
    """HK^2(t0^2 mu0, t1^2 mu1) from hk2 = HK^2(mu0, mu1) and the masses
    m0 = mu0(X), m1 = mu1(X), by the dilation identity

        t0 t1 hk2 + (t0^2 - t0 t1) m0 + (t1^2 - t0 t1) m1

    (Liero, Mielke & Savare 2018), elementwise on arrays.  It holds exactly
    for the discrete entropy-transport program too: potentials (f, g) of
    (mu0, mu1) shifted to (f + log(t0/t1), g - log(t0/t1)) are those of the
    dilated pair.  Solved values differ from it by the solver's entropic
    bias and tolerance only."""
    return t0 * t1 * hk2 + (t0 * t0 - t0 * t1) * m0 + (t1 * t1 - t0 * t1) * m1


def scaling_identity_gap(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                         t0: float, t1: float) -> dict:
    """Residual of HK^2(t0^2 mu0, t1^2 mu1), solved directly, against
    dilated_hk_squared applied to the solved HK^2(mu0, mu1).  This is the
    identity that gives evi_check its HK default-observer distances from
    one solve chain per trajectory."""
    from .measures import scale_measure

    hk2 = hk_distance_squared(mu0, mu1).hk_squared
    lhs = hk_distance_squared(scale_measure(mu0, t0),
                              scale_measure(mu1, t1)).hk_squared
    rhs = dilated_hk_squared(hk2, mu0.mass, mu1.mass, t0, t1)
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


def cone_distance(r0, r1, base_distance) -> float:
    """Distance on the metric cone between points of radii r0, r1 whose base
    points lie base_distance apart: law of cosines with angles capped at
    pi."""
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
        x = mu0.domain.coordinates
        d = np.sqrt(((x - x[np.asarray(target_positions)]) ** 2).sum(-1))
    return float(np.sum(masses * (1.0 + q * q
                                  - 2.0 * q * np.cos(np.minimum(d, HALF_PI)))))
