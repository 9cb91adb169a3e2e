"""Reference evolutions for the gradient flows: a diffusion-reaction
equation for the transport-growth flow, its mass-conserving spherical
variant, and pointwise reaction-only equations.

All PDE solvers use an explicit conservative flux discretization on 1-d
grids with no-flux boundaries, steps of at most 1e-4 and a CFL guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec
from .measures import DiscreteMeasure, GridDomain


@dataclass
class PDETrajectory:
    domain: GridDomain
    times: np.ndarray
    densities: np.ndarray  # shape (len(times), n_nodes)

    def at(self, t: float) -> DiscreteMeasure:
        i = int(np.argmin(np.abs(self.times - t)))
        return DiscreteMeasure(self.domain, self.densities[i])

    def masses(self) -> np.ndarray:
        return self.densities @ self.domain.weights


def _interior_flux(rho: np.ndarray, mobility: np.ndarray,
                   h: float, alpha: float) -> np.ndarray:
    """alpha * average mobility * density gradient at cell interfaces."""
    mob = 0.5 * (mobility[1:] + mobility[:-1])
    return alpha * mob * (rho[1:] - rho[:-1]) / h


def _rhs(rho, E, h, cell, alpha, reaction):
    """Finite-volume right-hand side; dividing the flux difference by the
    per-node cell size (half cells at the boundary) makes the diffusion
    term conserve the quadrature mass exactly."""
    mobility = rho * E.second_derivative(rho)
    flux = _interior_flux(rho, mobility, h, alpha)
    div = np.zeros_like(rho)
    div[:-1] += flux
    div[1:] -= flux
    return div / cell + reaction(rho)


def _advance(rho, E, dt, h, cell, alpha, reaction):
    """Heun step with a nonnegativity clip."""
    k1 = _rhs(rho, E, h, cell, alpha, reaction)
    mid = np.clip(rho + dt * k1, 0.0, None)
    k2 = _rhs(mid, E, h, cell, alpha, reaction)
    return np.clip(rho + 0.5 * dt * (k1 + k2), 0.0, None)


def _explicit_solve(mu0, E, t_final, alpha, reaction, n_checkpoints):
    dom = mu0.domain
    if dom.dim != 1:
        raise ValueError("PDE reference solver supports 1-d grids only")
    h = dom.spacing[0]
    cell = dom.weights
    rho = mu0.density.copy()
    check_times = np.linspace(0.0, t_final, n_checkpoints)
    out = [rho.copy()]
    t = 0.0
    next_idx = 1
    halvings = 0
    while t < t_final - 1e-15:
        mob_max = float(np.max(rho * E.second_derivative(rho), initial=0.0))
        if alpha > 0 and mob_max > 0:
            dt_cfl = 0.45 * h * h / (2.0 * alpha * mob_max)
        else:
            dt_cfl = math.inf
        step = min(1e-4, dt_cfl, t_final - t)
        if next_idx < n_checkpoints:
            step = min(step, check_times[next_idx] - t)
        new = _advance(rho, E, step, h, cell, alpha, reaction)
        while not np.all(np.isfinite(new)) and halvings < 8:
            step *= 0.5
            halvings += 1
            new = _advance(rho, E, step, h, cell, alpha, reaction)
        if not np.all(np.isfinite(new)):
            raise RuntimeError("PDE step failed after eight halvings")
        rho = new
        t += step
        while next_idx < n_checkpoints and t >= check_times[next_idx] - 1e-12:
            out.append(rho.copy())
            next_idx += 1
    while len(out) < n_checkpoints:
        out.append(rho.copy())
    return PDETrajectory(dom, check_times, np.array(out))


def hk_flow_pde(mu0: DiscreteMeasure, E: EntropySpec, t_final: float,
                alpha: float = 1.0, beta: float = 4.0,
                n_checkpoints: int = 11) -> PDETrajectory:
    """Diffusion with mobility rho E''(rho) plus reaction -beta rho E'(rho)."""

    def reaction(rho):
        return -beta * rho * E.derivative(rho)

    return _explicit_solve(mu0, E, t_final, alpha, reaction, n_checkpoints)


def shk_flow_pde(mu0: DiscreteMeasure, E: EntropySpec, t_final: float,
                 alpha: float = 1.0, beta: float = 4.0,
                 n_checkpoints: int = 11) -> PDETrajectory:
    """Mass-conserving variant: the reaction rate is recentred by the
    density-weighted mean of E', so the discrete mass stays constant."""
    w = mu0.domain.weights

    def reaction(rho):
        total = float(w @ rho)
        if total <= 0:
            return np.zeros_like(rho)
        mean = float(w @ (rho * E.derivative(rho))) / total
        return -beta * rho * (E.derivative(rho) - mean)

    return _explicit_solve(mu0, E, t_final, alpha, reaction, n_checkpoints)


def spherical_reaction_ode(mu0: DiscreteMeasure, E: EntropySpec,
                           t_final: float) -> PDETrajectory:
    """Pointwise system rho' = -4 rho (E'(rho) - weighted mean of E')."""
    return shk_flow_pde(mu0, E, t_final, alpha=0.0, beta=4.0)


def scalar_reaction_ode(c0: float, E: EntropySpec, t_final: float) -> float:
    """Scalar equation c' = -4 c E'(c), explicit midpoint integration."""
    c = float(c0)
    t = 0.0
    while t < t_final - 1e-15:
        step = min(1e-5, t_final - t)
        k1 = -4.0 * c * float(E.derivative(c))
        cm = max(c + 0.5 * step * k1, 0.0)
        k2 = -4.0 * cm * float(E.derivative(cm))
        c = max(c + step * k2, 0.0)
        t += step
    return c


def scalar_quadratic_closed_form(c0: float, t: float) -> float:
    """Exact solution of c' = -4 c E'(c) for E(c) = c^2: 1/(1/c0 + 8t)."""
    if c0 <= 0:
        return 0.0
    return 1.0 / (1.0 / c0 + 8.0 * t)
