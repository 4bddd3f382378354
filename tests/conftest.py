import numpy as np
import pytest

from emprint import catalog, rbm

# The wide-range chirp family resolves to a 19-vector basis at tol 1e-12,
# which is the dataset the acceptance suite pins; built once per session.
CHIRP_RANGE = ((1.0, 50.0),)
CHIRP_K = 101
CHIRP_L = 1001
CHIRP_TOL = 1e-12


@pytest.fixture(scope="session")
def chirp_training() -> catalog.TrainingSet:
    spec = catalog.make_family_spec(
        "damped_chirp", CHIRP_K, grid=catalog.TimeGrid(0.0, 1.0, CHIRP_L),
        param_range=CHIRP_RANGE,
    )
    return catalog.generate_family(spec)


@pytest.fixture(scope="session")
def chirp_basis(chirp_training) -> rbm.ReducedBasis:
    return rbm.build_reduced_basis(chirp_training, tol=CHIRP_TOL)


@pytest.fixture(scope="session")
def small_training() -> catalog.TrainingSet:
    # Default-range chirp on a coarse grid: a quick 7-vector problem.
    spec = catalog.make_family_spec(
        "damped_chirp", 41, grid=catalog.TimeGrid(0.0, 1.0, 301),
    )
    return catalog.generate_family(spec)


@pytest.fixture(scope="session")
def small_basis(small_training) -> rbm.ReducedBasis:
    return rbm.build_reduced_basis(small_training, tol=1e-12)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

