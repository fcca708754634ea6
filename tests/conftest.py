import numpy as np
import pytest

from aeromrac import sim
from aeromrac.plant3dof import assemble_fom, default_params
from aeromrac.romgen import default_rom


@pytest.fixture(scope="session")
def fom():
    return assemble_fom(default_params())


@pytest.fixture(scope="session")
def rom(fom):
    return default_rom(fom)


def random_stable(rng, n, margin=0.5):
    """Random Hurwitz matrix with spectral abscissa below -margin."""
    A = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(A).real.max() + margin + rng.uniform(0.0, 0.5)
    return A - shift * np.eye(n)


def open_and_closed(model, reference, design, gammas, thetas, gust, config):
    """The open loop and one closed loop per (gamma, theta(0)) under one gust,
    with the design's Q and P: the lanes of one ``sim.integrate_lanes`` batch,
    after the open lane gamma = kappa = 0, theta(0) = 0."""
    opened, *closed = sim.integrate_lanes(
        model, reference, design.Q, design.P, [0.0, *gammas], [0.0] + [1.0] * len(gammas),
        [np.zeros(np.shape(thetas[0])), *thetas], gust, config)
    return sim.open_loop_of(opened), closed
