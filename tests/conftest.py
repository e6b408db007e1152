import pytest

from spinflip import TrajectoryDesign, gaas


@pytest.fixture(scope="session")
def mat():
    return gaas()


@pytest.fixture(scope="session")
def design(mat):
    """Paper defaults: tf = 1 ns, B0 = 0.15 T."""
    return TrajectoryDesign.design(1.0, 0.15, mat)


@pytest.fixture(scope="session")
def design_short(mat):
    return TrajectoryDesign.design(0.1, 0.15, mat)
