import math

import numpy as np
import pytest

from hkflow.entropy import power_mass_entropy, zero_entropy
from hkflow.measures import DiscreteMeasure, uniform_measure, unit_interval
import hkflow.pde
from hkflow.pde import (hk_flow_pde, scalar_quadratic_closed_form,
                        scalar_reaction_ode, shk_flow_pde,
                        spherical_reaction_ode)

from conftest import sinusoid_measure


def quadratic_entropy():
    return power_mass_entropy(1.0, 2.0, -1.0)


def pure_quadratic():
    return power_mass_entropy(1.0, 2.0, 0.0)


def test_scalar_closed_form_matches_ode():
    # E(c) = c^2: dc/dt = -4 c E'(c) = -8 c^2, so c(t) = 1/(1/c0 + 8t)
    for c0 in (0.3, 1.0, 2.5):
        for t in (0.01, 0.1, 0.5):
            ode = scalar_reaction_ode(c0, pure_quadratic(), t)
            assert ode == pytest.approx(scalar_quadratic_closed_form(c0, t),
                                        abs=1e-8)


def test_uniform_data_reduces_to_scalar_ode(interval33):
    # spatially uniform data stays uniform: reaction only
    c0 = 0.8
    mu0 = uniform_measure(interval33, c0)
    traj = hk_flow_pde(mu0, quadratic_entropy(), t_final=0.1)
    rho = traj.densities[-1]
    assert float(np.ptp(rho)) < 1e-10
    ref = scalar_reaction_ode(c0, quadratic_entropy(), 0.1)
    assert rho[0] == pytest.approx(ref, abs=1e-6)


def test_mass_conservation_spherical(interval33):
    mu0 = sinusoid_measure(interval33, base=1.0, amplitude=0.3)
    prob = DiscreteMeasure(interval33, mu0.density / mu0.mass)
    traj = shk_flow_pde(prob, quadratic_entropy(), t_final=0.1)
    masses = traj.masses()
    assert np.max(np.abs(masses - 1.0)) <= 1e-10


def test_spherical_extremes_contract(interval33):
    mu0 = sinusoid_measure(interval33, base=1.0, amplitude=0.4)
    prob = DiscreteMeasure(interval33, mu0.density / mu0.mass)
    traj = shk_flow_pde(prob, quadratic_entropy(), t_final=0.05)
    mins = [float(np.min(r)) for r in traj.densities]
    maxs = [float(np.max(r)) for r in traj.densities]
    tol = 1e-10
    assert all(a <= b + tol for a, b in zip(mins, mins[1:]))
    assert all(a >= b - tol for a, b in zip(maxs, maxs[1:]))


def test_diffusion_smooths(interval33):
    # reaction switched off: pure nonlinear diffusion shrinks the range
    mu0 = sinusoid_measure(interval33, base=1.0, amplitude=0.3, frequency=2.0)
    traj = hk_flow_pde(mu0, pure_quadratic(), t_final=0.02, beta=0.0)
    assert float(np.ptp(traj.densities[-1])) < float(np.ptp(mu0.density))
    # and conserves the quadrature mass
    assert np.max(np.abs(traj.masses() - mu0.mass)) <= 1e-10
    # with zero entropy nothing moves at all
    still = hk_flow_pde(mu0, zero_entropy(), t_final=0.02)
    assert np.allclose(still.densities[-1], mu0.density)


def test_trajectory_interpolation(interval33):
    mu0 = sinusoid_measure(interval33)
    traj = hk_flow_pde(mu0, quadratic_entropy(), t_final=0.1,
                       n_checkpoints=21)
    assert len(traj.times) == 21
    snap = traj.at(0.05)
    assert snap.domain == interval33
    assert np.allclose(snap.density, traj.densities[10])


def test_spherical_reaction_ode_constant_is_fixed_point(interval33):
    # with no diffusion, the probability-normalized uniform state is
    # stationary for the recentered reaction
    prob = uniform_measure(interval33, 1.0)
    traj = spherical_reaction_ode(prob, quadratic_entropy(), t_final=0.1)
    assert np.max(np.abs(traj.densities[-1] - 1.0)) < 1e-12


def test_halvings_are_counted_per_step(interval33, monkeypatch):
    # the first attempt of every step fails; one halving each lets the solve
    # run many more steps than the eight halvings a step may take
    advance = hkflow.pde._advance
    attempts = []

    def first_attempt_fails(rho, *args):
        retry = bool(attempts) and attempts[-1] is rho
        attempts.append(rho)
        return advance(rho, *args) if retry else np.full_like(rho, np.nan)

    monkeypatch.setattr(hkflow.pde, "_advance", first_attempt_fails)
    traj = hk_flow_pde(sinusoid_measure(interval33), quadratic_entropy(),
                       t_final=0.002, n_checkpoints=2)
    assert np.all(np.isfinite(traj.densities))
    assert len(attempts) // 2 > 8
