"""Entropy densities E, the integral functional, and convexity certificates.

Two built-in families are provided:

* ``power_mass``:  E(c) = alpha * c**m + gamma * c  (alpha > 0, m > 1, gamma real),
  geodesically (2*gamma)-convex in the transport-growth metric;
* ``neg_power``:   E(c) = -beta * c**q  (beta >= 0, q in (0, 1)).

Custom tables interpolate (c, E(c)) samples with a monotone cubic.

``power_mass`` and ``neg_power`` with beta > 0 also carry their convex
conjugate E*(p) = sup_{c >= 0} (p c - E(c)) in closed form, through which
the minimizing-movement step is one concave maximization; tables, linear
and zero energies carry none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .config import REQUIRED, ConfigError, listed, number, read_tagged
from .measures import DiscreteMeasure


@dataclass(frozen=True)
class EntropySpec:
    """Convex density function with derivatives and recession slope."""

    e: Callable[[np.ndarray], np.ndarray]
    de: Callable[[np.ndarray], np.ndarray]
    d2e: Callable[[np.ndarray], np.ndarray]
    recession_slope: float  # lim E(t)/t, may be +inf
    c_low: Optional[float] = None  # witness with E'(c_low) < 0, if any
    # p -> (rho, E*(p), E*''(p)) with rho = E*'(p) the maximizing level and
    # E*'' = 1 / E''(rho); E* is +inf outside its domain.  None when E has
    # no closed-form conjugate or is not strictly convex.
    conjugate: Optional[Callable[[np.ndarray], tuple]] = None

    def __call__(self, c):
        return self.e(np.asarray(c, dtype=float))

    def derivative(self, c):
        return self.de(np.asarray(c, dtype=float))

    def second_derivative(self, c):
        return self.d2e(np.asarray(c, dtype=float))

    def validate(self, c_grid: np.ndarray | None = None) -> None:
        """Check convexity and E' monotonicity on a log-spaced grid."""
        if c_grid is None:
            c_grid = np.logspace(-3, 2, 64)
        vals = self(c_grid)
        # second differences on an uneven grid, normalized
        for i in range(1, len(c_grid) - 1):
            h0 = c_grid[i] - c_grid[i - 1]
            h1 = c_grid[i + 1] - c_grid[i]
            slope_l = (vals[i] - vals[i - 1]) / h0
            slope_r = (vals[i + 1] - vals[i]) / h1
            if slope_r - slope_l < -1e-10:
                raise ValueError(f"E is not convex near c={c_grid[i]:g}")
        dv = self.derivative(c_grid)
        if np.any(np.diff(dv) < -1e-10):
            raise ValueError("E' is not nondecreasing")
        if self.c_low is not None and not self.derivative(self.c_low) < 0:
            raise ValueError("declared c_low does not satisfy E'(c_low) < 0")


def zero_entropy() -> EntropySpec:
    z = lambda c: np.zeros_like(np.asarray(c, dtype=float))
    return EntropySpec(z, z, z, recession_slope=0.0)


def power_mass_entropy(alpha: float = 1.0, m: float = 2.0,
                       gamma: float = 0.0) -> EntropySpec:
    """E(c) = alpha c^m + gamma c; lambda = 2*gamma."""
    if alpha <= 0 or m <= 1:
        raise ValueError("power_mass requires alpha > 0 and m > 1")

    def e(c):
        return alpha * c**m + gamma * c

    def de(c):
        return alpha * m * c ** (m - 1) + gamma

    def d2e(c):
        return alpha * m * (m - 1) * c ** (m - 2)

    def conjugate(p):
        # E' maps c > 0 onto (gamma, inf); below gamma the supremum sits
        # at c = 0
        d = np.maximum(p - gamma, 0.0)
        rho = (d / (alpha * m)) ** (1.0 / (m - 1))
        curv = np.divide(rho, (m - 1) * d, out=np.zeros_like(d),
                         where=d > 0)
        return rho, d * rho * (m - 1) / m, curv

    c_low = None
    if gamma < 0:
        # E'(c) < 0 for c below (-gamma / (alpha m))^(1/(m-1))
        c_low = 0.5 * (-gamma / (alpha * m)) ** (1.0 / (m - 1))
    return EntropySpec(e, de, d2e, recession_slope=math.inf, c_low=c_low,
                       conjugate=conjugate)


def neg_power_entropy(q: float = 0.5, beta: float = 1.0) -> EntropySpec:
    """E(c) = -beta c^q with q in (0,1); E(0) = 0, E' < 0 everywhere."""
    if not 0 < q < 1 or beta < 0:
        raise ValueError("neg_power requires q in (0,1) and beta >= 0")

    def e(c):
        return -beta * np.power(c, q)

    def de(c):
        c = np.asarray(c, dtype=float)
        with np.errstate(divide="ignore"):
            return -beta * q * np.power(c, q - 1.0)

    def d2e(c):
        c = np.asarray(c, dtype=float)
        with np.errstate(divide="ignore"):
            return beta * q * (1.0 - q) * np.power(c, q - 2.0)

    def conjugate(p):
        # E' maps c > 0 onto (-inf, 0); E* is +inf on p >= 0
        inside = p < 0
        t = np.where(inside, -p, 1.0)
        rho = np.where(inside, (beta * q / t) ** (1.0 / (1.0 - q)), np.inf)
        return (rho, np.where(inside, t * rho * (1.0 - q) / q, np.inf),
                np.where(inside, rho / ((1.0 - q) * t), np.inf))

    return EntropySpec(e, de, d2e, recession_slope=0.0,
                       c_low=1.0 if beta > 0 else None,
                       conjugate=conjugate if beta > 0 else None)


def linear_entropy(gamma: float) -> EntropySpec:
    """E(c) = gamma c, the density of the mass functional gamma * mass."""
    def e(c):
        return gamma * np.asarray(c, dtype=float)

    def de(c):
        return np.full_like(np.asarray(c, dtype=float), gamma)

    z = lambda c: np.zeros_like(np.asarray(c, dtype=float))
    return EntropySpec(e, de, z, recession_slope=gamma,
                       c_low=1.0 if gamma < 0 else None)


def table_entropy(c_samples, e_samples, recession_slope: float) -> EntropySpec:
    """Monotone-cubic interpolation of (c, E(c)) samples."""
    interp = PchipInterpolator(np.asarray(c_samples, float),
                               np.asarray(e_samples, float))
    spec = EntropySpec(interp, interp.derivative(1), interp.derivative(2),
                       recession_slope=recession_slope)
    return replace(spec, c_low=find_c_low(spec, float(np.min(c_samples)),
                                          float(np.max(c_samples))))


# JSON family -> constructor and its fields, in the constructor's order
FAMILIES = {
    "power_mass": (power_mass_entropy, {"alpha": (number, 1.0),
                                        "m": (number, 2.0),
                                        "gamma": (number, 0.0)}),
    "neg_power": (neg_power_entropy, {"q": (number, 0.5),
                                      "beta": (number, 1.0)}),
    "custom_table": (table_entropy, {"c": (listed(number, 2), REQUIRED),
                                     "E": (listed(number, 2), REQUIRED),
                                     "recession_slope": (number, REQUIRED)}),
    "linear": (linear_entropy, {"gamma": (number, -1.0)}),
    "zero": (zero_entropy, {}),
}


def entropy_from_json(text_or_dict) -> EntropySpec:
    """The entropy of a JSON object {"family": ..., fields} or its text,
    read at the path "entropy"; FAMILIES lists each family's fields."""
    d = json.loads(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    family, values = read_tagged(d, "entropy", "family",
                                 {k: f for k, (_, f) in FAMILIES.items()})
    try:
        return FAMILIES[family][0](*values.values())
    except ValueError as exc:
        raise ConfigError(f"entropy: {exc}") from None


def eval_functional(E: EntropySpec, mu: DiscreteMeasure,
                    singular_mass: float = 0.0) -> float:
    """Weighted sum of E(rho) plus the recession slope times singular mass."""
    if singular_mass < 0:
        raise ValueError("singular mass must be nonnegative")
    value = float(mu.domain.weights @ E(mu.density))
    if singular_mass > 0:
        if math.isinf(E.recession_slope):
            return math.inf
        value += E.recession_slope * singular_mass
    return value


def eval_limit_functional(gamma: float, mu: DiscreteMeasure) -> float:
    """gamma * mass if the density stays below 1 + 1e-12, +inf otherwise."""
    if float(np.max(mu.density, initial=0.0)) > 1.0 + 1e-12:
        return math.inf
    return gamma * mu.mass


def find_c_low(E: EntropySpec, c_min: float = 1e-6,
               c_max: float = 1e3) -> Optional[float]:
    """Search a 64-point log grid for the largest point with E'(c) < 0."""
    c_min = max(c_min, 1e-12)
    grid = np.logspace(math.log10(c_min), math.log10(c_max), 64)
    dv = E.derivative(grid)
    neg = np.where(dv < 0)[0]
    if neg.size == 0:
        return None
    return float(grid[neg[-1]])


def check_NE_conditions(E: EntropySpec, lam: float, d: int) -> dict:
    """Grid certificate for geodesic lambda-convexity in dimension d.

    Tests convexity of N(rho, g) = (rho/g)^d E(g^(2+d)/rho^d) - lam/2 g^2
    through finite-difference Hessian eigenvalues, and (for d >= 2)
    non-increase of N in rho through first differences.
    """
    rho_grid = gamma_grid = np.logspace(-1, 1, 40)

    def N(rho, g):
        return (rho / g) ** d * E(g ** (2 + d) / rho**d) - 0.5 * lam * g * g

    R, G = np.meshgrid(rho_grid, gamma_grid, indexing="ij")
    with np.errstate(over="raise"):
        try:
            vals = N(R, G)
            overflow = False
        except FloatingPointError:
            return {"convex": False, "monotone": False, "overflow": True,
                    "worst_hessian_eig": math.nan, "worst_monotone": math.nan}

    # finite-difference Hessian on the (log-spaced) grid, interior points
    worst_eig = math.inf
    for i in range(1, len(rho_grid) - 1):
        hr0 = rho_grid[i] - rho_grid[i - 1]
        hr1 = rho_grid[i + 1] - rho_grid[i]
        for j in range(1, len(gamma_grid) - 1):
            hg0 = gamma_grid[j] - gamma_grid[j - 1]
            hg1 = gamma_grid[j + 1] - gamma_grid[j]
            frr = 2 * (
                (vals[i + 1, j] - vals[i, j]) / hr1
                - (vals[i, j] - vals[i - 1, j]) / hr0
            ) / (hr0 + hr1)
            fgg = 2 * (
                (vals[i, j + 1] - vals[i, j]) / hg1
                - (vals[i, j] - vals[i, j - 1]) / hg0
            ) / (hg0 + hg1)
            frg = (
                vals[i + 1, j + 1] - vals[i + 1, j - 1]
                - vals[i - 1, j + 1] + vals[i - 1, j - 1]
            ) / ((hr0 + hr1) * (hg0 + hg1))
            # smaller eigenvalue of the symmetric 2x2 [[frr, frg], [frg, fgg]]
            mean = 0.5 * (frr + fgg)
            rad = math.hypot(0.5 * (frr - fgg), frg)
            worst_eig = min(worst_eig, mean - rad)
    convex = worst_eig >= -1e-8

    worst_mono = -math.inf
    monotone = True
    if d >= 2:
        diffs = np.diff((d - 1) * vals, axis=0)
        worst_mono = float(np.max(diffs))
        monotone = worst_mono <= 1e-8
    return {"convex": bool(convex), "monotone": bool(monotone),
            "overflow": False, "worst_hessian_eig": float(worst_eig),
            "worst_monotone": float(worst_mono)}
