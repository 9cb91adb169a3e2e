"""Inputs and output checkers of the benchmark workloads.

Only numpy is used here, never hkflow: the checkers compare the program's
outputs with formulas evaluated by the benchmark itself (closed forms,
bounds from node masses, a trapezoid quadrature of the entropy) or with
properties the minimizing-movement scheme must have.  Each checker returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

WORKLOADS = ("distance-2d", "hk-evi-1d", "shk-convergence-1d")

GRID_2D = 17
GRID_1D = 33
ENTROPY = {"family": "power_mass", "alpha": 1.0, "m": 2.0, "gamma": -1.0}
INITIAL = {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2}
EVI_TAU = 0.005
SHK_TAUS = (0.02, 0.01, 0.005)
SHK_T_FINAL = 0.04

# Nominal length of one round in seconds on the reference machine (see
# README.md).  A run measures rounds(workload, seconds) rounds, a number
# fixed by --seconds alone, so that a faster or slower program is timed
# over the same number of rounds as its parent.
ROUND_S = {"distance-2d": 12.0, "hk-evi-1d": 9.5, "shk-convergence-1d": 16.0}


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_S[workload]))

# distance-2d: four smooth pairs, density 1 + 0.2 sum cos(2 pi k.x + phase)
# over the modes below with one phase triple per measure, and two two-Dirac
# pairs ((row, column) node, mass).  No input depends on the seed: the
# Newton iteration count of a cold solve is decided by roundoff (the same
# pair mapped by a symmetry of the square takes 173 to 241 iterations), so
# seeded smooth pairs spread wall_s by +-15 % across seeds; and seeded
# two-Dirac pairs are flagged unconverged on some seeds only.  The first
# two-Dirac pair is flagged unconverged on every run, so each round counts
# one failed operation out of six; its value is still checked.
MODES = ((1, 0), (0, 1), (1, 1))
SMOOTH_PAIRS = (
    ((0.3, 1.0, 2.0), (2.5, 4.0, 5.0)),
    ((1.2, 5.1, 0.4), (4.4, 2.2, 3.3)),
    ((5.9, 0.7, 3.8), (1.9, 3.6, 0.9)),
    ((2.8, 4.6, 1.5), (0.1, 1.4, 4.7)),
)
DIRAC_PAIRS = (
    (((4, 8), 0.8), ((12, 8), 1.2)),
    (((2, 2), 1.5), ((10, 14), 0.5)),
)


def evi_config() -> dict:
    return {"domain": {"lower": [0.0], "upper": [1.0], "nodes": [GRID_1D]},
            "initial": INITIAL, "entropy": ENTROPY, "tau": EVI_TAU,
            "n_steps": 8, "metric": "hk", "lambda": 0.0, "kappa": 0.0}


def convergence_config() -> dict:
    return {"domain": {"lower": [0.0], "upper": [1.0], "nodes": [GRID_1D]},
            "initial": INITIAL, "entropy": ENTROPY, "metric": "shk",
            "tau_list": list(SHK_TAUS), "t_final": SHK_T_FINAL,
            "lambda": 0.0}


# ---------------------------------------------------------------------------
# grid helpers, computed apart from hkflow.measures


def trapezoid_weights(nodes: int, dim: int) -> np.ndarray:
    """Trapezoid weights of the unit interval or square, C-order."""
    w1 = np.full(nodes, 1.0 / (nodes - 1))
    w1[[0, -1]] *= 0.5
    return w1 if dim == 1 else np.outer(w1, w1).ravel()


def grid_2d() -> np.ndarray:
    axis = np.linspace(0.0, 1.0, GRID_2D)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def smooth_density(phases) -> np.ndarray:
    """Strictly positive (>= 0.4) smooth density on the 17x17 grid."""
    x = grid_2d()
    rho = np.ones(len(x))
    for (kx, ky), ph in zip(MODES, phases):
        rho += 0.2 * np.cos(2.0 * math.pi * (kx * x[:, 0] + ky * x[:, 1])
                            + ph)
    return rho


def distance_pairs() -> list:
    """The inputs of distance-2d, as (kind, density0, density1, info)."""
    pairs = [("smooth", smooth_density(p0), smooth_density(p1), {})
             for p0, p1 in SMOOTH_PAIRS]
    w = trapezoid_weights(GRID_2D, 2)
    for ((i0, j0), m0), ((i1, j1), m1) in DIRAC_PAIRS:
        a = np.zeros(GRID_2D * GRID_2D)
        b = np.zeros(GRID_2D * GRID_2D)
        a[i0 * GRID_2D + j0] = m0 / w[i0 * GRID_2D + j0]
        b[i1 * GRID_2D + j1] = m1 / w[i1 * GRID_2D + j1]
        d = math.hypot(i0 - i1, j0 - j1) / (GRID_2D - 1)
        pairs.append(("dirac", a, b,
                      {"mass0": m0, "mass1": m1, "distance": d}))
    return pairs


# ---------------------------------------------------------------------------
# checkers


def two_dirac_closed_form(m0: float, m1: float, d: float) -> float:
    return m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(min(d, 0.5 * math.pi))


def check_two_dirac(hk2: float, m0: float, m1: float, d: float) -> list:
    closed = two_dirac_closed_form(m0, m1, d)
    if not abs(hk2 - closed) <= 1e-6 * (1.0 + closed):
        return [f"two-Dirac distance {hk2!r} off the closed form {closed!r}"]
    return []


def check_hk_bounds(hk2: float, a: np.ndarray, b: np.ndarray) -> list:
    """(sqrt m0 - sqrt m1)^2 <= HK^2 <= sum_i (sqrt a_i - sqrt b_i)^2 for
    node masses a, b: the mass bound and the pure-growth (Hellinger) cost."""
    m0, m1 = float(a.sum()), float(b.sum())
    lower = (math.sqrt(m0) - math.sqrt(m1)) ** 2
    upper = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
    slack = 1e-9 * (m0 + m1)
    if not lower - slack <= hk2 <= upper + slack:
        return [f"distance {hk2!r} outside [{lower!r}, {upper!r}]"]
    return []


def entropy_value(density: np.ndarray, weights: np.ndarray) -> float:
    """Trapezoid quadrature of E(c) = alpha c^m + gamma c."""
    c = np.asarray(density, dtype=float)
    e = ENTROPY["alpha"] * c ** ENTROPY["m"] + ENTROPY["gamma"] * c
    return float(weights @ e)


def check_descent(densities, distances_squared, tau: float,
                  weights: np.ndarray) -> list:
    """E(x_k) + d^2(x_{k-1}, x_k) / (2 tau) <= E(x_{k-1}) at every step:
    x_k minimizes the left side, and x_{k-1} itself scores E(x_{k-1})."""
    energies = [entropy_value(rho, weights) for rho in densities]
    if len(distances_squared) != len(energies) - 1:
        return ["trajectory has mismatched step distances"]
    errors = []
    for k, d2 in enumerate(distances_squared, start=1):
        lhs = energies[k] + d2 / (2.0 * tau)
        if not lhs <= energies[k - 1] + 1e-9 * max(1.0, abs(energies[k - 1])):
            errors.append(f"step {k}: E + d2/(2 tau) = {lhs!r} exceeds "
                          f"previous energy {energies[k - 1]!r}")
    return errors


def check_unit_mass(densities, weights: np.ndarray) -> list:
    errors = []
    for k, rho in enumerate(densities):
        mass = float(weights @ rho)
        if not abs(mass - 1.0) <= 1e-9:
            errors.append(f"spherical iterate {k} has mass {mass!r}")
    return errors


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_evi(summary: dict, residual_rows: list, tau: float,
              step_distance0: float) -> list:
    """EVI-check outputs: the residual with lambda* is at most the one with
    lambda, both everywhere and at their worst, the worst is at most
    4 sqrt(tau), and the error budget holds with the bound recomputed from
    the trajectory's first step distance."""
    errors = []
    tol = 4.0 * math.sqrt(tau)
    off = [r for r in residual_rows if r["t"] > r["s"]]
    if not off:
        return ["no off-diagonal EVI residuals"]
    if any(r["residual_lambda_star"] > r["residual_lambda"] + 1e-12
           for r in off):
        errors.append("a residual with lambda* exceeds the one with lambda")
    worst_star = max(r["residual_lambda_star"] for r in off)
    worst_lam = max(r["residual_lambda"] for r in off)
    for key, worst in (("worst_residual_lambda_star", worst_star),
                       ("worst_residual_lambda", worst_lam)):
        if not abs(summary[key] - worst) <= 1e-9 * (1.0 + abs(worst)):
            errors.append(f"{key} {summary[key]!r} is not the worst residual "
                          f"{worst!r} of the table")
    if not summary["worst_residual_lambda_star"] <= \
            summary["worst_residual_lambda"]:
        errors.append("worst residual with lambda* exceeds the one with "
                      "lambda")
    worst = summary["worst_residual_lambda_star"]
    if not worst <= tol:
        errors.append(f"worst EVI residual {worst!r} above 4 sqrt(tau) = "
                      f"{tol!r}")
    # kappa = 0: bound = 4 tau slope^2 with slope = d(x0, x1) / tau
    bound = 4.0 * step_distance0 / tau
    if not abs(summary["budget_bound"] - bound) <= 1e-6 * bound:
        errors.append(f"budget bound {summary['budget_bound']!r} differs "
                      f"from 4 d2(x0,x1)/tau = {bound!r}")
    if not (summary["budget_bound_holds"]
            and summary["budget_l1"] <= summary["budget_bound"]):
        errors.append(f"error budget {summary['budget_l1']!r} above its "
                      f"bound {summary['budget_bound']!r}")
    return errors


def check_convergence(rows: list) -> list:
    """Convergence-study outputs: one row per consecutive tau pair, sup_gap
    positive and shrinking as tau halves, each EVI residual within
    4 sqrt(tau)."""
    errors = []
    if [r["tau"] for r in rows] != list(SHK_TAUS[:-1]):
        return [f"rows for tau {[r['tau'] for r in rows]}, expected "
                f"{list(SHK_TAUS[:-1])}"]
    gaps = [r["sup_gap"] for r in rows]
    if not all(g > 0.0 for g in gaps):
        errors.append(f"non-positive sup_gap in {gaps}")
    if not all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:])):
        errors.append(f"sup_gap does not shrink as tau halves: {gaps}")
    for r in rows:
        if not r["evi_worst_residual"] <= 4.0 * math.sqrt(r["tau"]):
            errors.append(f"EVI residual {r['evi_worst_residual']!r} at tau "
                          f"{r['tau']} above 4 sqrt(tau)")
    return errors
