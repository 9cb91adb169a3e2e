"""Grid domains and discrete nonnegative measures.

A measure is stored as a node-collocated density on a uniform grid over an
axis-aligned box; masses are always computed through the trapezoid quadrature
weights, so that the total weight equals the box volume exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import REQUIRED, ConfigError, integer, listed, number, \
    read_fields


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box in R^d (d in {1, 2}) with a uniform node grid."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes_per_axis: tuple[int, ...]

    def __post_init__(self):
        d = len(self.lower)
        if d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {d}")
        if len(self.upper) != d or len(self.nodes_per_axis) != d:
            raise ValueError("lower/upper/nodes_per_axis length mismatch")
        for lo, hi, n in zip(self.lower, self.upper, self.nodes_per_axis):
            if not hi > lo:
                raise ValueError("upper must exceed lower on every axis")
            if n < 2:
                raise ValueError("need at least 2 nodes per axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1)
            for lo, hi, n in zip(self.lower, self.upper, self.nodes_per_axis)
        )

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in zip(self.lower, self.upper)]))

    @property
    def coordinates(self) -> np.ndarray:
        """(n_nodes, d) array of node coordinates, C-order over axes."""
        axes = [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lower, self.upper, self.nodes_per_axis)
        ]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weight per node; sums to the box volume."""
        w = np.ones(1)
        for h, n in zip(self.spacing, self.nodes_per_axis):
            axis_w = np.full(n, h)
            axis_w[0] *= 0.5
            axis_w[-1] *= 0.5
            w = np.kron(w, axis_w)
        return w

    def coarser(self) -> "GridDomain | None":
        """The nested grid on every second node, with half the intervals per
        axis, or None when an axis has an even node count (then ``prolong``
        and ``coarsen_masses`` raise ValueError)."""
        if any(n % 2 == 0 for n in self.nodes_per_axis):
            return None
        return GridDomain(self.lower, self.upper,
                          tuple((n + 1) // 2 for n in self.nodes_per_axis))

    def prolong(self, values: np.ndarray) -> np.ndarray:
        """Node values on ``coarser()``, interpolated linearly to this grid's
        nodes (per axis: a node between two coarse nodes takes their mean)."""
        return self._nested(values, transpose=False)

    def coarsen_masses(self, masses: np.ndarray) -> np.ndarray:
        """Full weighting, the transpose of ``prolong``: each node's mass goes
        to the coarse node at it, or half to each of the two coarse nodes
        beside it, per axis.  The total mass is kept."""
        return self._nested(masses, transpose=True)

    def _nested(self, x, transpose):
        shape, coarse = self.nodes_per_axis, self.coarser()
        if coarse is None:
            raise ValueError("an axis has an even node count: no nested grid")
        y = np.asarray(x, dtype=float).reshape(
            shape if transpose else coarse.nodes_per_axis)
        for axis, n in enumerate(shape):
            c = (n + 1) // 2
            P = np.zeros((n, c))
            P[0::2] = np.eye(c)
            P[1::2] = 0.5 * (np.eye(c)[:-1] + np.eye(c)[1:])
            y = np.moveaxis(np.tensordot(P.T if transpose else P, y,
                                         axes=(1, axis)), 0, axis)
        return y.ravel()

    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean node distances, shape (n_nodes, n_nodes)."""
        x = self.coordinates
        diff = x[:, None, :] - x[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))

    @classmethod
    def from_dict(cls, d: dict) -> "GridDomain":
        """The domain of the JSON object d, read at the path "domain"."""
        f = read_fields(d, "domain", {"lower": (listed(number), REQUIRED),
                                      "upper": (listed(number), REQUIRED),
                                      "nodes": (listed(integer(2)), REQUIRED)})
        try:
            return cls(tuple(f["lower"]), tuple(f["upper"]), tuple(f["nodes"]))
        except ValueError as exc:
            raise ConfigError(f"domain: {exc}") from None


def unit_interval(n: int = 33) -> GridDomain:
    return GridDomain((0.0,), (1.0,), (n,))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative node density on a :class:`GridDomain`.

    Immutable after construction; mass is the weighted density sum.
    """

    domain: GridDomain
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a copy: freezing the caller's own array would make it read-only
        rho = np.array(self.density, dtype=float)
        if rho.shape != (self.domain.n_nodes,):
            raise ValueError(
                f"density shape {rho.shape} != ({self.domain.n_nodes},)"
            )
        if np.any(rho < 0) or not np.all(np.isfinite(rho)):
            raise ValueError("density must be finite and nonnegative")
        rho.setflags(write=False)
        object.__setattr__(self, "density", rho)

    @property
    def mass(self) -> float:
        return float(self.domain.weights @ self.density)

    @property
    def node_masses(self) -> np.ndarray:
        return self.domain.weights * self.density

    def same_domain(self, other: "DiscreteMeasure") -> bool:
        return self.domain == other.domain


def uniform_measure(domain: GridDomain, value: float = 1.0) -> DiscreteMeasure:
    return DiscreteMeasure(domain, np.full(domain.n_nodes, float(value)))


def scale_measure(mu: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Return the measure with density t^2 * rho (mass scales by t^2)."""
    if t < 0:
        raise ValueError("scale factor must be nonnegative")
    return DiscreteMeasure(mu.domain, t * t * mu.density)


def coarsen(mu: DiscreteMeasure) -> DiscreteMeasure:
    """The measure on the nested coarser grid (``GridDomain.coarser``) whose
    node masses are mu's, summed by full weighting; ValueError when the grid
    does not nest."""
    masses = mu.domain.coarsen_masses(mu.node_masses)
    coarse = mu.domain.coarser()
    return DiscreteMeasure(coarse, masses / coarse.weights)

