"""Membership predicates for the density classes used by the flow results:
pointwise two-sided bounds, and ball-averaged comparability of densities.
"""

from __future__ import annotations

import numpy as np

from .measures import DiscreteMeasure

SLACK = 1e-12


def in_pointwise_class(mu: DiscreteMeasure, delta: float) -> bool:
    """delta <= density <= 1/delta at every grid node, to SLACK."""
    if not 0 < delta <= 1:
        raise ValueError("bound parameter must lie in (0, 1]")
    rho = mu.density
    return bool(np.all(rho >= delta - SLACK)
                and np.all(rho <= 1.0 / delta + SLACK))


def pointwise_class_margin(mu: DiscreteMeasure, delta: float) -> float:
    """Smallest slack over both bounds; negative when outside the class.
    delta above 1 is allowed, and gives a negative margin."""
    if not delta > 0:
        raise ValueError("bound parameter must be positive")
    rho = mu.density
    return float(min(np.min(rho) - delta, 1.0 / delta - np.max(rho)))


def ball_average(mu: DiscreteMeasure, center_index: int,
                 radius: float) -> float:
    """Mean density over the closed metric ball, trapezoid-weighted."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    x = mu.domain.coordinates
    d = np.sqrt(((x[center_index] - x) ** 2).sum(axis=-1))
    mask = d <= radius + SLACK
    # the centre lies in its ball, so the ball carries positive weight
    w = mu.domain.weights[mask]
    return float(w @ mu.density[mask] / w.sum())


def in_ball_average_class(mu: DiscreteMeasure, radius: float,
                          ratio: float) -> bool:
    """Every ball-average of the density lies in [ratio, 1/ratio] relative
    to the global mean density, to SLACK."""
    if not 0 < ratio <= 1:
        raise ValueError("comparability ratio must lie in (0, 1]")
    mean = mu.mass / mu.domain.volume
    if mean <= 0:
        return False
    avg = np.array([ball_average(mu, i, radius)
                    for i in range(mu.domain.n_nodes)])
    return bool(np.all(avg >= ratio * mean - SLACK)
                and np.all(avg <= mean / ratio + SLACK))


def largest_pointwise_delta(mu: DiscreteMeasure) -> float:
    """Largest delta for which the measure satisfies the pointwise bounds."""
    rho = mu.density
    lo = float(np.min(rho))
    hi = float(np.max(rho))
    if lo <= 0 or hi <= 0:
        return 0.0
    return min(lo, 1.0 / hi)
