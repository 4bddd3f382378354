import time
import types

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


@pytest.fixture
def writers(monkeypatch):
    """Who writes the lines of each waveform CSV from here on. ``here``
    counts the rows formatted in this process, ``helper`` the helper's lines
    used, ``refused`` those that failed their check and ``started`` the
    helpers started. The helper's size gate is lowered to 0, the process may
    use ``cpus`` CPUs (2; set 1 for a serial write), and each row here is
    ``delay`` seconds late (0; set more so that a helper writes rows too)."""
    counts = types.SimpleNamespace(here=0, helper=0, refused=0, started=0, cpus=2, delay=0)
    row, start, text = catalog._rowtext.row, catalog._Helper.start, catalog._Helper.text

    def counted_row(*args):
        counts.here += 1
        time.sleep(counts.delay)
        return row(*args)

    def counted_start(self, *args):
        counts.started += 1
        return start(self, *args)

    def counted_text(self, rows, commas):
        head = text(self, rows, commas)
        if head is None:
            counts.refused += rows
        else:
            counts.helper += rows
        return head
    monkeypatch.setattr(catalog._rowtext, "row", counted_row)
    monkeypatch.setattr(catalog._Helper, "start", counted_start)
    monkeypatch.setattr(catalog._Helper, "text", counted_text)
    monkeypatch.setattr(catalog, "_HELPER_CELLS", 0)
    monkeypatch.setattr(catalog, "_usable_cpus", lambda: counts.cpus)
    return counts
