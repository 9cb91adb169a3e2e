import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from hkflow.hk import (DEFAULT_EPS_SCHEDULE, _in_reach, hk_distance_squared,
                       shk_from_hk_squared, shk_squared_derivative)
from hkflow.measures import DiscreteMeasure, GridDomain, unit_interval


def dirac_measure(domain: GridDomain, nodes, masses) -> DiscreteMeasure:
    """Point masses at grid nodes, encoded as node densities."""
    rho = np.zeros(domain.n_nodes)
    w = domain.weights
    for node, mass in zip(nodes, masses):
        rho[int(node)] += float(mass) / w[int(node)]
    return DiscreteMeasure(domain, rho)


def unconverged(solver):
    """Wrap a distance solver so that every result reports converged=False."""
    def wrapped(*args, **kw):
        return dataclasses.replace(solver(*args, **kw), converged=False)
    return wrapped


def target_slope(res, mu0, mu1) -> np.ndarray:
    """Derivative of res.dual_value, the regularized dual of a distance solve
    from mu0 to mu1, in each target node mass: 1 - e^-g - eps (s / b -
    sum a) over the transported part, with s the plan's column sums, and 1
    where a node has no transport partner."""
    w = mu0.domain.weights
    a, b = mu0.density * w, mu1.density * w
    src, tgt, _, _ = _in_reach(mu0.domain, a, b)
    g, s = res.potential_target[tgt], res.plan.sum(axis=0)[tgt]
    slope = np.ones(w.size)
    slope[tgt] = (1.0 - np.exp(-g)) - DEFAULT_EPS_SCHEDULE[-1] * (
        s / b[tgt] - float(a[src].sum()))
    return slope


def lbfgs_reference_step(mu0, tau, E, spherical, warm=None):
    """Independent reference of the implicit step: L-BFGS-B over u = log
    density on d(dual value)^2 / (2 tau) + E, with exact gradients from each
    distance solve's potentials (warm-started from the last one, the first
    from warm, a step's ``warm``).  With spherical set u maps to the
    unit-mass density e^u / (w . e^u) and HK^2 to SHK^2.  As u hides the
    gradient where rho is about 0, converged also asks the rho-problem's
    sign condition there: dJ/drho_j / w_j >= -1e-4, less the mass
    multiplier rho . dJ/drho when spherical.  Returns the step's measure,
    objective, converged verdict and warm state."""
    dom = mu0.domain
    w = dom.weights
    g_warm = None if warm is None else warm[0]

    def density(u):
        if not spherical:
            return np.exp(u)
        e = np.exp(u - np.max(u))
        return e / float(w @ e)

    def solve(rho):
        nonlocal g_warm
        nu = DiscreteMeasure(dom, rho)
        res = hk_distance_squared(mu0, nu, warm_start=g_warm)
        g_warm = res.potential_target
        return res, nu

    def objective(rho, res, nu):
        hk2 = res.dual_value
        d2, slope = ((shk_from_hk_squared(hk2) ** 2,
                      shk_squared_derivative(hk2)) if spherical else (hk2, 1.0))
        g_rho = (slope * (w * target_slope(res, mu0, nu)) / (2.0 * tau)
                 + w * E.derivative(rho))
        return d2 / (2.0 * tau) + float(w @ E(rho)), g_rho

    def fun(u):
        rho = density(u)
        val, g_rho = objective(rho, *solve(rho))
        grad_u = rho * g_rho
        if spherical:
            grad_u = grad_u - w * rho * float(rho @ g_rho)
        return val, grad_u

    u0 = np.log(np.maximum(mu0.density, 1e-14))
    out = minimize(fun, u0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "gtol": 1e-7, "ftol": 1e-14})
    rho1 = density(out.x)
    final, nu = solve(rho1)
    g_rho = objective(rho1, final, nu)[1]
    slack = g_rho / w - (float(rho1 @ g_rho) if spherical else 0.0)
    empty = rho1 <= 1e-10 * float(np.max(rho1))
    converged = bool((out.success or np.max(np.abs(out.jac)) < 1e-6)
                     and np.all(slack[empty] >= -1e-4) and final.converged)
    return SimpleNamespace(measure=nu, objective=float(out.fun),
                           converged=converged,
                           warm=(final.potential_target, 0.0, 1.0))


def sinusoid_measure(domain: GridDomain, base=0.5, amplitude=0.1,
                     frequency=1.0) -> DiscreteMeasure:
    x = domain.coordinates[:, 0]
    lo, hi = domain.lower[0], domain.upper[0]
    s = (x - lo) / (hi - lo)
    return DiscreteMeasure(
        domain, base + amplitude * np.sin(2.0 * np.pi * frequency * s))


@pytest.fixture
def interval17():
    return unit_interval(17)


@pytest.fixture
def interval33():
    return unit_interval(33)
