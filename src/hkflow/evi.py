"""Integrated evolution-variational-inequality residuals, discrete error
budgets for minimizing-movement trajectories, contraction checks between
approximate flows, and step-size convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, eval_functional
from .hk import (dilated_hk_squared, hk_distance_squared, is_spherical,
                 metric_squared)
from .measures import DiscreteMeasure, scale_measure, uniform_measure
from .mm import MMTrajectory, mm_trajectory


def lambda_star(lam: float) -> float:
    """Corrected convexity parameter used by the discrete estimates."""
    return 2.0 * min(lam, 0.0) - 2.0


def distances_squared_along(measures, others,
                            metric: str = "hk") -> np.ndarray:
    """Squared metric distances from measures[k] to others[k], where others
    is a list of the same length or one fixed measure.

    Consecutive pairs along a trajectory lie one step apart, so each solve
    is warm-started from the previous pair's dual potentials.  Where the
    pairs lie too far apart for that, the solve notices at its first Newton
    step and runs the cold schedule instead (see hk.WARM_MISMATCH), with
    the cold solve's result.  An unconverged solve raises RuntimeError."""
    to_metric = metric_squared(metric)
    if isinstance(others, DiscreteMeasure):
        others = [others] * len(measures)
    d2 = np.empty(len(measures))
    warm = None
    for k, (m, o) in enumerate(zip(measures, others, strict=True)):
        res = hk_distance_squared(m, o, warm_start=warm)
        if not res.converged:
            raise RuntimeError(f"distance solve for pair {k} did not "
                               f"converge (marginal error "
                               f"{res.marginal_error:.2e})")
        warm = res.potential_target
        d2[k] = to_metric(res.hk_squared)
    return d2


# mass factors s^2 of the default HK observers s^2 mu0
HK_OBSERVER_MASS_FACTORS = (0.5, 1.0, 2.0)


def default_observers(mu0: DiscreteMeasure, metric: str = "hk") -> list:
    """Finite-energy observers at nontrivial distances from the data:
    mass rescalings s^2 mu0, s^2 in HK_OBSERVER_MASS_FACTORS, for the
    transport-growth metric, blends with the uniform probability for the
    spherical one.  evi_check gets the distances to the HK ones from one
    solve chain to mu0 through the dilation identity; the SHK blends
    satisfy no such identity and are solved one chain each."""
    if not is_spherical(metric):
        return [scale_measure(mu0, math.sqrt(c))
                for c in HK_OBSERVER_MASS_FACTORS]
    unif = uniform_measure(mu0.domain, 1.0 / mu0.domain.volume)
    return [DiscreteMeasure(mu0.domain,
                            (1.0 - w) * unif.density + w * mu0.density)
            for w in (0.25, 0.5, 0.75)]


@dataclass
class EVIReport:
    times: np.ndarray
    # residuals[k][i, j]: observer k, time pair (t_i, t_j), i <= j
    residuals_lambda_star: list
    residuals_lambda: list
    worst_residual: float
    worst_residual_lambda: float


def evi_residual_matrix(times: np.ndarray, phis: np.ndarray,
                        dists2: np.ndarray, phi_obs: float,
                        lam: float) -> np.ndarray:
    """All-pairs integrated residuals

        R(s,t) = d2(t)/2 - d2(s)/2
                 + int_s^t (phi(x(r)) + lam/2 d2(r)) dr - (t-s) phi(o)

    with trapezoid quadrature on the sample grid.  Additive by
    construction: R(s,u) + R(u,t) = R(s,t)."""
    n = len(times)
    integrand = phis + 0.5 * lam * dists2
    cum = np.zeros(n)
    if n > 1:
        dt = np.diff(times)
        cum[1:] = np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))
    # row i is s = times[i], column j is t = times[j]
    t = np.asarray(times, dtype=float)
    R = (0.5 * dists2 - 0.5 * dists2[:, None] + (cum - cum[:, None])
         - (t - t[:, None]) * phi_obs)
    R[np.tril_indices(n, k=-1)] = np.nan
    return R


def evi_check(traj: MMTrajectory, lam: float, observers=None) -> EVIReport:
    """Integrated EVI residuals of a trajectory, in its metric and for its
    energy, against a set of observers, reported both with the corrected
    parameter and with lam itself.

    Without observers, the default ones are used.  For HK their squared
    distances come from one solve chain per trajectory, to its first sample
    x0, through the dilation identity (hk.dilated_hk_squared) with the
    sample masses and x0's mass; SHK default observers and explicitly
    passed ones are solved directly, one chain each."""
    E, metric = traj.E, traj.metric
    dilated = observers is None and not is_spherical(metric)
    if observers is None:
        observers = default_observers(traj.measures[0], metric)
    times = traj.times
    phis = traj.energy()
    if not np.all(np.isfinite(phis)):
        raise ValueError("trajectory sample with infinite energy")
    if dilated:
        x0 = traj.measures[0]
        hk2 = distances_squared_along(traj.measures, x0, metric)
        masses = np.array([m.mass for m in traj.measures])
        dists = [dilated_hk_squared(hk2, masses, x0.mass, 1.0, math.sqrt(c))
                 for c in HK_OBSERVER_MASS_FACTORS]
    else:
        dists = [distances_squared_along(traj.measures, obs, metric)
                 for obs in observers]
    lam_s = lambda_star(lam)
    mats_star, mats_lam = [], []
    worst_star = worst_lam = -math.inf
    for obs, d2 in zip(observers, dists):
        phi_o = eval_functional(E, obs)
        Rs = evi_residual_matrix(times, phis, d2, phi_o, lam_s)
        Rl = evi_residual_matrix(times, phis, d2, phi_o, lam)
        mats_star.append(Rs)
        mats_lam.append(Rl)
        iu = np.triu_indices(Rs.shape[0], k=1)  # diagonal is 0 by identity
        if iu[0].size:
            worst_star = max(worst_star, float(np.max(Rs[iu])))
            worst_lam = max(worst_lam, float(np.max(Rl[iu])))
    return EVIReport(times, mats_star, mats_lam, worst_star, worst_lam)


@dataclass
class ErrorBudget:
    deltas: np.ndarray          # per-step budget values, clamped at zero
    slope_surrogate: float      # d(x0, x1) / tau
    weighted_l1: float          # sum tau e^{2 lam* t_n} Delta_n
    l1_bound: float             # tau (4 + tau kappa) slope^2
    bound_holds: bool


def direction_gap_surrogates(d2_steps: np.ndarray,
                             d2_skips: np.ndarray) -> np.ndarray:
    """Comparison surrogate for the squared gap between the backward and
    forward directions at each interior iterate:
    2 d2(n,n-1) + 2 d2(n,n+1) - d2(n-1,n+1), clamped at zero."""
    gaps = (2.0 * d2_steps[:-1] + 2.0 * d2_steps[1:] - d2_skips)
    return np.maximum(gaps, 0.0)


def error_budget(traj: MMTrajectory, kappa: float, lam: float) -> ErrorBudget:
    """Per-step incremental errors of the implicit scheme, in the
    trajectory's metric.

    Step zero uses (1 - 2 lam) d2(x0,x1) + (1 + 1/(1 + lam tau)) slope^2;
    later steps use (1 - 2 lam + kappa/tau) d2(xn,xn+1) plus the
    direction-gap surrogate divided by tau^2.  The weighted L1 norm is
    compared against the a-priori bound tau (4 + tau kappa) slope^2, with
    slope = d(x0, x1) / tau.
    """
    tau = traj.tau
    ms = traj.measures
    n_steps = len(ms) - 1
    if n_steps < 1:
        raise ValueError("trajectory needs at least one step")
    if 1.0 + lam * tau <= 0:
        raise ValueError("step size too large for this convexity parameter")
    d2_steps = np.asarray(traj.distances_squared, dtype=float)
    d2_skips = distances_squared_along(ms[:-2], ms[2:], traj.metric)
    slope = float(traj.slope_surrogates[0])
    deltas = np.zeros(n_steps)
    deltas[0] = ((1.0 - 2.0 * lam) * d2_steps[0]
                 + (1.0 + 1.0 / (1.0 + lam * tau)) * slope * slope)
    if n_steps > 1:
        gaps = direction_gap_surrogates(d2_steps, d2_skips)
        core = (1.0 - 2.0 * lam + kappa / tau) * d2_steps[1:]
        deltas[1:] = np.maximum(core + gaps / tau**2, 0.0)
    deltas = np.maximum(deltas, 0.0)
    times = tau * np.arange(n_steps)
    lam_s = lambda_star(lam)
    l1 = float(np.sum(tau * np.exp(2.0 * lam_s * times) * deltas))
    bound = tau * (4.0 + tau * kappa) * slope * slope
    return ErrorBudget(deltas, slope, l1, bound,
                       l1 <= bound * (1.0 + 1e-9) + 1e-12)


@dataclass
class ContractionReport:
    distances: np.ndarray
    lhs: np.ndarray   # e^{lam* t} d(x1(t), x2(t))
    rhs: float        # d(0) + budget slack
    ok: bool


def contraction_check(traj_a: MMTrajectory, traj_b: MMTrajectory,
                      lam: float, budget_a: ErrorBudget,
                      budget_b: ErrorBudget) -> ContractionReport:
    """Budgeted non-expansion between two approximate flows in one metric:
    sup_t e^{lam* t} d(x1(t), x2(t)) <= d(0) + || 2 e^{2 lam* t}
    (Delta_1 + Delta_2) ||_{L1}^{1/2}."""
    if abs(traj_a.tau - traj_b.tau) > 1e-15 \
            or len(traj_a.measures) != len(traj_b.measures):
        raise ValueError("trajectories live on different time grids")
    if traj_a.metric != traj_b.metric:
        raise ValueError(f"trajectories of different metrics: "
                         f"{traj_a.metric!r} and {traj_b.metric!r}")
    d = np.sqrt(np.maximum(distances_squared_along(
        traj_a.measures, traj_b.measures, traj_a.metric), 0.0))
    lam_s = lambda_star(lam)
    lhs = np.exp(lam_s * traj_a.times) * d
    step_times = traj_a.tau * np.arange(len(budget_a.deltas))
    l1 = float(np.sum(traj_a.tau * 2.0 * np.exp(2.0 * lam_s * step_times)
                      * (budget_a.deltas + budget_b.deltas)))
    rhs = d[0] + math.sqrt(max(l1, 0.0))
    return ContractionReport(d, lhs, rhs, bool(np.all(lhs <= rhs + 1e-9)))


def interpolate_constant_left(traj: MMTrajectory, t: float) -> DiscreteMeasure:
    """Piecewise-constant-in-time interpolant at the left grid node."""
    k = min(int(math.floor(t / traj.tau + 1e-12)), len(traj.measures) - 1)
    return traj.measures[max(k, 0)]


def step_counts(t_final: float, tau_list) -> list:
    """Steps of each tau in tau_list to t_final; ValueError naming
    tau_list[i] unless t_final / tau is whole to 1e-9 relative."""
    ratios = [t_final / tau for tau in tau_list]
    for i, r in enumerate(ratios):
        if abs(r - round(r)) > 1e-9 * r:
            raise ValueError(f"tau_list[{i}]: {tau_list[i]} does not divide "
                             f"t_final {t_final}")
    return [round(r) for r in ratios]


def convergence_study(mu0: DiscreteMeasure, E: EntropySpec,
                      metric: str, tau_list, T: float) -> list:
    """Sup-distance between interpolants at consecutive step sizes, each of
    which must divide T (see step_counts).

    Returns one row per consecutive (tau, tau_next) pair with the sup of
    the metric distance over the finer time grid on [0, T], and the
    coarser trajectory under "trajectory" for callers that check it
    further.
    """
    trajs = [mm_trajectory(mu0, tau, n, E, metric=metric)
             for tau, n in zip(tau_list, step_counts(T, tau_list))]
    rows = []
    for ta, tb in zip(trajs[:-1], trajs[1:]):
        d2 = distances_squared_along(
            [interpolate_constant_left(ta, t) for t in tb.times],
            [interpolate_constant_left(tb, t) for t in tb.times], metric)
        gap = math.sqrt(max(float(np.max(d2)), 0.0))
        rows.append({"tau": ta.tau, "tau_next": tb.tau, "sup_gap": gap,
                     "trajectory": ta})
    return rows
