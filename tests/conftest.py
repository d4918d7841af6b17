import numpy as np
import pytest

from gibbslab.spaces import BackgroundCharge, GreenModel, build_space


@pytest.fixture(scope="session")
def circle_space():
    return build_space("circle", 256, 64)


@pytest.fixture(scope="session")
def torus_space():
    return build_space("torus", 64, 16)


@pytest.fixture(scope="session")
def sphere_space():
    return build_space("sphere", 4, 12)


@pytest.fixture(scope="session")
def circle_green(circle_space):
    return GreenModel(circle_space, BackgroundCharge.uniform(circle_space))


@pytest.fixture(scope="session")
def torus_green(torus_space):
    return GreenModel(torus_space, BackgroundCharge.uniform(torus_space))


@pytest.fixture(scope="session")
def sphere_charged_green(sphere_space):
    """Green model of a non-uniform background charge on the sphere."""
    charge = BackgroundCharge.from_expression(sphere_space, "1 + 0.5*z + 0.3*x*y")
    return GreenModel(sphere_space, charge)


@pytest.fixture(scope="session")
def box_space():
    return build_space("box", 64, bounds=[(-3.0, 3.0)])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
