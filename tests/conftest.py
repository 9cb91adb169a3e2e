import dataclasses

import numpy as np
import pytest

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
