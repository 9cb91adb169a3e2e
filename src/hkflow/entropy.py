"""Entropy densities E, the integral functional, and convexity certificates.

Two built-in families are provided:

* ``power_mass``:  E(c) = alpha * c**m + gamma * c  (alpha > 0, m > 1, gamma real),
  geodesically (2*gamma)-convex in the transport-growth metric;
* ``neg_power``:   E(c) = -beta * c**q  (beta >= 0, q in (0, 1)).

Custom tables interpolate (c, E(c)) samples with a shape-preserving
quadratic spline, convex on convex samples.

``power_mass``, ``neg_power`` with beta > 0 and tables also carry their
convex conjugate E*(p) = sup_{c >= 0} (p c - E(c)), in closed form or (for
tables) piece by piece, through which the minimizing-movement step is one
concave maximization.  Linear and zero energies carry none: their steps
have closed forms.  A table's E* may have kinks, which conjugate(p, delta)
rounds over windows that vanish with delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

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
    # (p, delta=0) -> (rho, E*(p), E*''(p)) for a 1-D array p, with
    # rho = E*'(p) the maximizing level and E*'' = 1 / E''(rho); E* is +inf
    # outside its domain.  delta > 0 rounds each kink of E* (a jump of rho)
    # over a window of width delta times the jump; the strictly convex
    # families have none.  None exactly for the linear energies (E'' = 0).
    conjugate: Optional[Callable[..., tuple]] = None

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
        # an E that is +inf beyond some level is checked on its domain
        c_grid = c_grid[np.isfinite(self(c_grid))]
        # the rise of the secant slopes on an uneven grid
        bent = np.flatnonzero(np.diff(np.diff(self(c_grid)) / np.diff(c_grid))
                              < -1e-10)
        if bent.size:
            raise ValueError(f"E is not convex near c={c_grid[bent[0] + 1]:g}")
        dv = self.derivative(c_grid)
        if np.any(np.diff(dv) < -1e-10):
            raise ValueError("E' is not nondecreasing")
        if self.c_low is not None and not self.derivative(self.c_low) < 0:
            raise ValueError("declared c_low does not satisfy E'(c_low) < 0")


def zero_entropy() -> EntropySpec:
    """E = 0, the linear energy of slope 0."""
    return linear_entropy(0.0)


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

    def conjugate(p, delta=0.0):
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

    def conjugate(p, delta=0.0):
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
    """Shape-preserving quadratic spline of (c, E(c)) samples (Schumaker,
    SIAM J. Numer. Anal. 20 (1983) 854-864), continued down to 0 by its
    first piece and above c_max, the largest sample, by the line of slope
    r = recession_slope (+inf if r is), so lim E(t)/t = r; r must reach the
    end slope E'(c_max), as in any convex E.  The knot slopes are the
    3-point parabola's (reflected about the end secants), and each interval
    has one inner knot, where E' passes the secant slope (mid-interval at
    an inflection).  So E' is piecewise linear, convex samples give a
    convex E, and quadratic samples the quadratic.

    The conjugate is exact: over [0, c_max] the sup of p c - E(c) among 0,
    c_max and the root of E' = p on each piece, +inf above r.  Its argmax
    rho(p) is the convex hull's, which jumps across each linear bridge
    [c1, c2] of the hull (a kink of E* at the bridge's slope s; the
    constructor finds them as the jumps of rho) and from c_ray to +inf at
    p = r.  delta > 0 rounds each kink: on |p - s| < delta (c2 - c1) / 2 a
    cubic joins the exact E* at both ends, and above r E* is that of
    E + delta (c - c_ray)^2 / 2."""
    x, y = np.asarray(c_samples, float), np.asarray(e_samples, float)
    if x.ndim != 1 or not 1 < x.size == y.size or not np.all(np.diff(x) > 0):
        raise ValueError("c must be 2 or more increasing levels, one per E")
    dx, d = np.diff(x), np.diff(y) / np.diff(x)
    m = np.concatenate([d[:1], (dx[1:] * d[:-1] + dx[:-1] * d[1:])
                        / (dx[1:] + dx[:-1]), d[-1:]])
    m[0], m[-1] = 2.0 * d[0] - m[1], 2.0 * d[-1] - m[-2]
    # the inner knot at x + t dx, where E' = d; t within roundoff of [0, 1]
    # is clipped, so a linear run after a convex one stays convex
    t = np.divide(m[1:] - d, m[1:] - m[:-1], out=np.full_like(d, 0.5),
                  where=m[1:] != m[:-1])
    t = np.where(np.abs(t - 0.5) <= 0.5 + 1e-9, np.clip(t, 0.0, 1.0), 0.5)
    sigma = 2.0 * d - t * m[:-1] - (1.0 - t) * m[1:]  # E' at the inner knot
    # E and E' at every knot z; the line above c_max is the last piece
    weave = lambda u, v, last: np.append(np.column_stack([u, v]), last)
    z = weave(x[:-1], x[:-1] + t * dx, x[-1])
    ez = weave(y[:-1], y[:-1] + 0.5 * (m[:-1] + sigma) * t * dx, y[-1])
    knot_slopes = weave(m[:-1], sigma, m[-1])
    dz = np.diff(z)
    q = np.append(np.divide(np.diff(knot_slopes), dz, out=np.zeros_like(dz),
                            where=dz > 0), 0.0)
    c_max, r, end = float(x[-1]), float(recession_slope), float(m[-1])
    if not r >= end - 1e-9 * (1.0 + abs(end)):
        raise ValueError(f"recession_slope {r:g} is below the table's end "
                         f"slope E'(c_max) = {end:g}")
    g = np.append(knot_slopes[:-1], r)

    def spline(order):
        # E, E' or E'' on the piece of each c; a knot takes its left piece
        def f(c):
            k = np.maximum(np.searchsorted(z, c) - 1, 0)
            u = np.asarray(c, dtype=float) - z[k]
            return (ez[k] + u * (g[k] + 0.5 * q[k] * u), g[k] + q[k] * u,
                    q[k])[order]
        return f

    e, de, d2e = spline(0), spline(1), spline(2)
    # the pieces over [0, c_max], the first reaching down to 0
    lo, hi = np.append(0.0, np.maximum(z[1:-1], 0.0)), z[1:]
    keep = hi > lo
    zk, gk, qk, lo, hi = (v[keep] for v in (z[:-1], g[:-1], q[:-1], lo, hi))

    def argmax(p):
        # exact rho(p) and E*(p) over [0, c_max], and whether rho is a root
        # of E' = p; 0 and c_max come first, so a root there is a corner
        with np.errstate(divide="ignore", invalid="ignore"):
            c = zk + np.nan_to_num((p[:, None] - gk) / qk)
        rho = np.hstack([np.broadcast_to([0.0, c_max], (p.size, 2)),
                         np.clip(c, lo, hi)])
        root = np.hstack([np.zeros((p.size, 2), bool), (c >= lo) & (c <= hi)])
        best = np.argmax(p[:, None] * rho - e(rho), axis=1)[:, None]
        rho, root = (np.take_along_axis(v, best, 1)[:, 0] for v in (rho, root))
        return rho, p * rho - e(rho), root

    # hull bridges: between neighbouring knot slopes rho is linear in p
    # unless it jumps there; bisect each bracket whose midpoint leaves the
    # chord to roundoff, following the larger rise
    p = np.unique(np.append(knot_slopes, de(0.0)))
    p = np.concatenate([[p[0] - 1.0], p[p < r], [min(p[-1] + 1.0, r)]])
    rho = argmax(p)[0]
    bent = argmax(0.5 * (p[1:] + p[:-1]))[0] - 0.5 * (rho[1:] + rho[:-1])
    jump = np.flatnonzero(np.abs(bent) > 1e-9 * c_max)
    p0, p1, c1, c2 = p[jump], p[jump + 1], rho[jump], rho[jump + 1]
    for _ in range(64 if jump.size else 0):
        mid = 0.5 * (p0 + p1)
        c_mid = argmax(mid)[0]
        left = c_mid - c1 >= c2 - c_mid
        p1, c2 = np.where(left, mid, p1), np.where(left, c_mid, c2)
        p0, c1 = np.where(left, p0, mid), np.where(left, c1, c_mid)
    # a jump that ends at r is the ray's: rho runs from c_ray to +inf there
    bridge = c2 - c1 > 1e-9 * c_max
    ray = bridge & (p1 >= r)
    c_ray = float(c1[ray][0] if ray.any() else rho[-1])
    c1, c2 = c1[bridge & ~ray], c2[bridge & ~ray]
    s = (e(c2) - e(c1)) / (c2 - c1)

    def conjugate(p, delta=0.0):
        p, delta = np.asarray(p, dtype=float), np.float64(delta)
        rho, val, root = argmax(p)
        with np.errstate(divide="ignore"):
            curv = np.where(root, 1.0 / np.maximum(d2e(rho), delta), 0.0)
        h = 0.5 * delta * (c2 - c1)
        on = np.abs(p[:, None] - s) < h
        hit = on.any(axis=1)
        if hit.any():
            # inside a window the cubic Hermite joining the exact ends, its
            # secant kept within (m0 + m1) / 2 -+ (m1 - m0) / 6, which keeps
            # it convex where y1 - y0 is roundoff
            k = np.argmax(on[hit], axis=1)
            H = 2.0 * h[k]
            m, y, _ = argmax(np.concatenate([s[k] - h[k], s[k] + h[k]]))
            (m0, m1), (y0, y1) = m.reshape(2, -1), y.reshape(2, -1)
            u = (p[hit] - s[k] + h[k]) / H
            sec = np.clip((y1 - y0) / H, (2.0 * m0 + m1) / 3.0,
                          (m0 + 2.0 * m1) / 3.0)
            c2_, c3_ = 3.0 * sec - 2.0 * m0 - m1, m0 + m1 - 2.0 * sec
            val[hit] = y0 + u * H * (m0 + u * (c2_ + u * c3_))
            rho[hit] = m0 + u * (2.0 * c2_ + 3.0 * u * c3_)
            curv[hit] = (2.0 * c2_ + 6.0 * u * c3_) / H
        # above r: E + delta (c - c_ray)^2 / 2 on the ray (+inf at delta 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            up, above = np.maximum(p - r, 0.0), p > r
            return (np.where(above, c_ray + up / delta, rho),
                    np.where(above, r * c_ray - float(e(c_ray))
                             + c_ray * up + up * up / (2.0 * delta), val),
                    np.where(above, 1.0 / delta, curv))

    spec = EntropySpec(e, de, d2e, recession_slope=r, conjugate=conjugate)
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

    # finite-difference Hessian on the (log-spaced) grid, interior points:
    # h0, h1 are the steps below and above each, in rho (axis 0) and gamma
    hr0, hr1 = np.diff(rho_grid)[:-1, None], np.diff(rho_grid)[1:, None]
    hg0, hg1 = np.diff(gamma_grid)[:-1], np.diff(gamma_grid)[1:]
    mid = vals[1:-1, 1:-1]
    frr = 2 * ((vals[2:, 1:-1] - mid) / hr1
               - (mid - vals[:-2, 1:-1]) / hr0) / (hr0 + hr1)
    fgg = 2 * ((vals[1:-1, 2:] - mid) / hg1
               - (mid - vals[1:-1, :-2]) / hg0) / (hg0 + hg1)
    frg = (vals[2:, 2:] - vals[2:, :-2] - vals[:-2, 2:] + vals[:-2, :-2]
           ) / ((hr0 + hr1) * (hg0 + hg1))
    # smaller eigenvalue of the symmetric 2x2 [[frr, frg], [frg, fgg]]
    worst_eig = float(np.min(0.5 * (frr + fgg)
                             - np.hypot(0.5 * (frr - fgg), frg)))
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
