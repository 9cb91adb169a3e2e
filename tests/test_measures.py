import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.measures import (DiscreteMeasure, GridDomain, coarsen,
                             scale_measure, uniform_measure, unit_interval)


def test_unit_interval_properties():
    dom = unit_interval(11)
    assert dom.dim == 1
    assert dom.n_nodes == 11
    assert dom.spacing == (0.1,)
    assert dom.volume == pytest.approx(1.0)
    assert dom.coordinates.shape == (11, 1)
    assert dom.weights.sum() == pytest.approx(1.0)
    # trapezoid rule: boundary nodes carry half weight
    assert dom.weights[0] == pytest.approx(0.05)
    assert dom.weights[5] == pytest.approx(0.1)


def test_2d_domain_weights_sum_to_volume():
    dom = GridDomain((0.0, -1.0), (2.0, 1.0), (5, 7))
    assert dom.dim == 2
    assert dom.n_nodes == 35
    assert dom.volume == pytest.approx(4.0)
    assert dom.weights.sum() == pytest.approx(4.0)
    D = dom.distance_matrix()
    assert D.shape == (35, 35)
    assert np.all(np.diag(D) == 0.0)
    assert np.allclose(D, D.T)


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3))  # 3d
    with pytest.raises(ValueError):
        GridDomain((0.0,), (0.0,), (3,))  # empty box
    with pytest.raises(ValueError):
        GridDomain((0.0,), (1.0,), (1,))  # single node


def test_measure_mass_quadrature():
    dom = unit_interval(21)
    mu = uniform_measure(dom, 0.7)
    assert mu.mass == pytest.approx(0.7)
    assert np.allclose(mu.node_masses, dom.weights * 0.7)


def test_measure_leaves_the_callers_array_writable():
    dom = unit_interval(5)
    rho = np.ones(5)
    mu = DiscreteMeasure(dom, rho)
    rho[0] = 2.0
    assert mu.density[0] == 1.0
    assert not mu.density.flags.writeable


def test_measure_rejects_negative_density():
    dom = unit_interval(5)
    with pytest.raises(ValueError):
        DiscreteMeasure(dom, np.array([1.0, -0.1, 1.0, 1.0, 1.0]))


def test_measure_rejects_shape_mismatch():
    dom = unit_interval(5)
    with pytest.raises(ValueError):
        DiscreteMeasure(dom, np.ones(6))


@given(t=st.floats(0.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_scale_measure_quadratic_mass(t):
    dom = unit_interval(9)
    mu = uniform_measure(dom, 1.0)
    assert scale_measure(mu, t).mass == pytest.approx(t * t * mu.mass)


def test_coarser_grid_nests_every_second_node():
    dom = GridDomain((0.0, -1.0), (2.0, 1.0), (17, 9))
    coarse = dom.coarser()
    assert coarse == GridDomain((0.0, -1.0), (2.0, 1.0), (9, 5))
    fine = dom.coordinates.reshape(17, 9, 2)
    assert np.allclose(fine[::2, ::2].reshape(-1, 2), coarse.coordinates,
                       rtol=0.0, atol=1e-15)
    assert unit_interval(3).coarser() == unit_interval(2)
    for even in (GridDomain((0.0, 0.0), (1.0, 1.0), (16, 16)),
                 GridDomain((0.0, 0.0), (1.0, 1.0), (17, 16)),
                 unit_interval(2), unit_interval(32)):
        assert even.coarser() is None
        with pytest.raises(ValueError, match="even"):
            coarsen(uniform_measure(even))
        # no coarse grid to interpolate from or to sum onto
        for nested in (even.prolong, even.coarsen_masses):
            with pytest.raises(ValueError, match="even"):
                nested(np.ones(even.n_nodes))


@pytest.mark.parametrize("dom", [unit_interval(33),
                                 GridDomain((0.0, 0.5), (1.0, 2.5), (17, 9))],
                         ids=["1d", "2d"])
def test_coarsen_keeps_mass_and_constants(dom):
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(dom, rng.uniform(0.0, 2.0, dom.n_nodes))
    nu = coarsen(mu)
    assert nu.domain == dom.coarser()
    assert abs(nu.mass - mu.mass) <= 1e-15 * mu.mass
    flat = coarsen(uniform_measure(dom, 0.7))
    assert np.allclose(flat.density, 0.7, rtol=1e-15, atol=0.0)
    # full weighting is the transpose of linear interpolation
    v = rng.normal(size=nu.domain.n_nodes)
    assert dom.prolong(v) @ mu.node_masses == pytest.approx(
        v @ nu.node_masses, rel=1e-14)
    # interpolation keeps the values at shared nodes and linear functions
    x = dom.coordinates @ np.arange(1.0, dom.dim + 1.0)
    xc = nu.domain.coordinates @ np.arange(1.0, dom.dim + 1.0)
    assert np.allclose(dom.prolong(xc), x, rtol=0.0, atol=1e-14)


@st.composite
def fine_masses(draw):
    """A grid of odd node counts per axis, 1-D or 2-D, and nonnegative node
    masses on it, zeros mixed in, the others from 1e-300 up."""
    shape = draw(st.lists(st.integers(2, 9).map(lambda c: 2 * c - 1),
                          min_size=1, max_size=2))
    dom = GridDomain((0.0,) * len(shape), (1.0,) * len(shape), tuple(shape))
    b = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
                      min_size=dom.n_nodes, max_size=dom.n_nodes))
    return dom, np.array(b)


@given(fine_masses())
@settings(max_examples=60, deadline=None)
def test_every_coarse_node_a_mass_node_interpolates_from_carries_mass(case):
    # full weighting is the transpose of the interpolation, so each coarse
    # node in the stencil of a fine node of mass takes a share of it: the
    # stencil weights of such a node (1, 1/2 + 1/2 or 4 x 1/4) sum to 1
    # exactly over the coarse nodes of mass.  The coarse head of a distance
    # solve relies on this: it hands over no potential at coarse nodes of
    # no mass
    dom, b = case
    massive = (dom.coarsen_masses(b) > 0).astype(float)
    assert np.all(dom.prolong(massive)[b > 0] == 1.0)
