"""Metric-geometry probes: comparison angles, angle-sum conditions,
semi-concavity along geodesics, and the interpolation transfer estimates.

Probe spaces supply a distance and a geodesic; everything else is
computed metrically, so the same checks run on a Euclidean box, on a cone
over a segment, and on pairs of weighted point masses under the
transport-growth distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hk import hk_two_diracs

SHRINK_EXPONENTS = range(3, 15)
PROBE_TOL = 1e-6  # slack of the angle-sum and transfer probes' verdicts


def comparison_angle(d_xy: float, d_xz: float, d_yz: float) -> float:
    """Euclidean angle at x of a triangle with the given side lengths."""
    if d_xy <= 0 or d_xz <= 0:
        raise ValueError("comparison angle needs positive adjacent sides")
    cosv = (d_xy**2 + d_xz**2 - d_yz**2) / (2.0 * d_xy * d_xz)
    return math.acos(min(1.0, max(-1.0, cosv)))


@dataclass(frozen=True)
class ProbeSpace:
    """A metric space with constant-speed geodesics for angle probing."""

    name: str
    distance: Callable
    geodesic: Callable  # geodesic(p, q, t) -> point at parameter t


def euclidean_box(dim: int = 2) -> ProbeSpace:
    def dist(p, q):
        return float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float)))

    def geo(p, q, t):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return (1.0 - t) * p + t * q

    return ProbeSpace("euclidean", dist, geo)


def cone_over_segment(base_length: float = 2.0) -> ProbeSpace:
    """Cone over a segment of length at most pi, realized as a plane sector.

    Points are (x, r) with x in [0, base_length]; the map
    (x, r) -> r (cos x, sin x) is an isometry onto a Euclidean sector, so
    geodesics are straight chords pulled back to polar coordinates.
    """
    if not 0 < base_length <= math.pi:
        raise ValueError("sector embedding needs base length in (0, pi]")

    def embed(p):
        x, r = p
        return np.array([r * math.cos(x), r * math.sin(x)])

    def unembed(v):
        r = float(np.linalg.norm(v))
        x = math.atan2(v[1], v[0]) if r > 0 else 0.0
        return (min(max(x, 0.0), base_length), r)

    def dist(p, q):
        return float(np.linalg.norm(embed(p) - embed(q)))

    def geo(p, q, t):
        return unembed((1.0 - t) * embed(p) + t * embed(q))

    return ProbeSpace("cone", dist, geo)


def two_dirac_space() -> ProbeSpace:
    """Pairs (x, m): a point mass of size m at abscissa x, under the
    transport-growth distance.  Geodesics run through the cone
    representation (x, sqrt(m)) of the mass."""

    def dist(p, q):
        x0, m0 = p
        x1, m1 = q
        return math.sqrt(max(hk_two_diracs(m0, m1, abs(x1 - x0)), 0.0))

    sector = cone_over_segment(math.pi)

    def geo(p, q, t):
        x0, m0 = p
        x1, m1 = q
        if abs(x1 - x0) >= 0.5 * math.pi - 1e-12:
            raise ValueError("no transport geodesic beyond half-pi separation")
        x, r = sector.geodesic((x0, math.sqrt(m0)), (x1, math.sqrt(m1)), t)
        return (x, r * r)

    return ProbeSpace("point_masses", dist, geo)


def shrinking_angles(space: ProbeSpace, x, y, z) -> np.ndarray:
    """Comparison angles at x between geodesics to y and z along a dyadic
    shrink of both endpoints toward x."""
    out = []
    for k in SHRINK_EXPONENTS:
        s = 2.0**-k
        ys = space.geodesic(x, y, s)
        zs = space.geodesic(x, z, s)
        out.append(comparison_angle(space.distance(x, ys),
                                    space.distance(x, zs),
                                    space.distance(ys, zs)))
    return np.array(out)


def upper_angle(space: ProbeSpace, x, y, z) -> float:
    """Limsup estimate of the angle between geodesics x->y and x->z."""
    return float(np.max(shrinking_angles(space, x, y, z)[-4:]))


def lower_angle(space: ProbeSpace, x, y, z) -> float:
    return float(np.min(shrinking_angles(space, x, y, z)[-4:]))


def upper_inner_product(space: ProbeSpace, x, y, z) -> float:
    """d(x,y) d(x,z) cos(upper angle) of the geodesic directions at x."""
    return (space.distance(x, y) * space.distance(x, z)
            * math.cos(upper_angle(space, x, y, z)))


def direction_gap_squared(space: ProbeSpace, x, y, z) -> float:
    """Squared gap between the geodesic direction x->y and the reversal of
    x->z: d(x,y)^2 + d(x,z)^2 + 2 <g_xy, g_xz>_up, clamped at zero.

    Vanishes when the two geodesics continue each other through x, e.g.
    when x is a midpoint of a geodesic from y to z."""
    dxy = space.distance(x, y)
    dxz = space.distance(x, z)
    return max(dxy * dxy + dxz * dxz
               + 2.0 * upper_inner_product(space, x, y, z), 0.0)


def check_angle_sum(space: ProbeSpace, x, y, z) -> dict:
    """Local angle condition: the three upper angles of adjacent geodesic
    pairs at x sum to at most 2 pi."""
    a1 = upper_angle(space, x, y, z)
    a2 = upper_angle(space, x, z, y)  # symmetric probe, should match a1
    # three pairwise angles among geodesics x->y, x->z and x->midpoint(y,z)
    m = space.geodesic(y, z, 0.5)
    s = (upper_angle(space, x, y, m) + upper_angle(space, x, m, z)
         + upper_angle(space, x, z, y))
    return {"sum": s, "ok": s <= 2.0 * math.pi + PROBE_TOL,
            "angle_yz": a1, "angle_zy": a2}


def check_cauchy_schwarz_transfer(space: ProbeSpace, x, o, y, z) -> dict:
    """Two-sided bound <g_xy, g_xo> + <g_xo, g_xz> >=
    -d(x,o) * direction gap between g_xy and g_xz."""
    lhs = (upper_inner_product(space, x, y, o)
           + upper_inner_product(space, x, o, z))
    gap = math.sqrt(direction_gap_squared(space, x, y, z))
    rhs = -space.distance(x, o) * gap
    return {"lhs": lhs, "rhs": rhs, "ok": lhs >= rhs - PROBE_TOL}


def check_semiconcavity(space: ProbeSpace, p, q, f: Callable,
                        kappa: float) -> dict:
    """kappa-concavity of t -> f(geodesic(p,q,t)):
    f(t) + kappa/2 t(1-t) >= (1-t) f(0) + t f(1) at sample parameters."""
    ts = np.linspace(0.0, 1.0, 33)
    vals = np.array([f(space.geodesic(p, q, float(t))) for t in ts])
    slack = vals + 0.5 * kappa * ts * (1.0 - ts) \
        - ((1.0 - ts) * vals[0] + ts * vals[-1])
    worst = float(np.min(slack))
    return {"ok": worst >= -1e-9, "worst_slack": worst,
            "argmin_t": float(ts[int(np.argmin(slack))])}


# ---------------------------------------------------------------------------
# interpolation transfer quantities


def interpolation_weight(t: float, delta: float) -> float:
    """beta(t, delta) = sin(t delta) / (sin(t delta) + sin((1-t) delta))."""
    if not 0 < delta < math.pi:
        raise ValueError("opening angle must lie in (0, pi)")
    if not 0 <= t <= 1:
        raise ValueError("parameter must lie in [0, 1]")
    s0 = math.sin(t * delta)
    s1 = math.sin((1.0 - t) * delta)
    return s0 / (s0 + s1)


def radius_ratio(t: float, delta: float) -> float:
    """r(t, delta) = sin(delta) / (sin(t delta) + sin((1-t) delta))."""
    if not 0 < delta < math.pi:
        raise ValueError("opening angle must lie in (0, pi)")
    return math.sin(delta) / (math.sin(t * delta)
                              + math.sin((1.0 - t) * delta))


def transfer_ratio(t: float, delta: float, p: float) -> float:
    """Q_p(t, delta) = [sin(t delta) / (t sin^p(delta))]
    * (sin(t delta) + sin((1-t) delta))^(p-1)."""
    if t <= 0 or t > 1:
        raise ValueError("parameter must lie in (0, 1]")
    s0 = math.sin(t * delta)
    s1 = math.sin((1.0 - t) * delta)
    return (s0 / (t * math.sin(delta) ** p)) * (s0 + s1) ** (p - 1.0)


def check_transfer_estimates(p: float, n_t: int = 64,
                             n_delta: int = 64) -> dict:
    """Grid check of (1 - beta)/r^p >= 1 - t and beta/r^p >= t, to 1e-12.

    Both hold for every opening angle exactly when p >= 1/2; for smaller
    exponents the first inequality fails near delta = pi.
    """
    ts = np.linspace(0.005, 0.995, n_t)
    deltas = np.linspace(0.01, math.pi - 0.01, n_delta)
    worst = math.inf
    witness = None
    for t in ts:
        for d in deltas:
            beta = interpolation_weight(float(t), float(d))
            rp = radius_ratio(float(t), float(d)) ** p
            m = min((1.0 - beta) / rp - (1.0 - t), beta / rp - t)
            if m < worst:
                worst = m
                witness = (float(t), float(d))
    return {"ok": worst >= -1e-12, "worst_margin": float(worst),
            "witness": witness}


def transfer_ratio_minimum(p: float, n_t: int = 200,
                           n_delta: int = 400) -> dict:
    """Grid minimum of Q_p over the parameter rectangle.

    The minimum stays at one for p >= 1/2 and dips below one (parameter
    near one, opening angle near pi) for smaller exponents.
    """
    best = math.inf
    witness = None
    for t in np.linspace(0.01, 1.0, n_t):
        for d in np.linspace(0.01, math.pi - 1e-6, n_delta):
            q = transfer_ratio(float(t), float(d), p)
            if q < best:
                best = q
                witness = (float(t), float(d))
    return {"min": float(best), "witness": witness,
            "below_one": best < 1.0 - 1e-9}
