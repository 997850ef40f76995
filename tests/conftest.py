import os
from pathlib import Path

import pytest

import cityroad
from cityroad import acceptance
from cityroad.dispersion import compute_c_star
from cityroad.model import Parameters, logistic


@pytest.fixture
def package_on_pythonpath(monkeypatch):
    """Let child Pythons import the package this process imported.

    A relative ``PYTHONPATH`` entry such as ``src`` stops resolving once a child
    runs in another working directory, so the absolute directory holding
    ``cityroad`` goes first; any existing entries follow it.
    """
    package_root = str(Path(cityroad.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [package_root, existing])))


@pytest.fixture(scope="session")
def params_unit():
    return Parameters(1.0, 1.0, 1.0, nonlinearity=logistic(1.0))


@pytest.fixture(scope="session")
def c_star_unit(params_unit):
    return compute_c_star(params_unit)


@pytest.fixture(scope="session")
def left_block_run():
    """Long left-block experiment (T=80, m=32, dt=1e-3 at (1,1,1,1)) shared by
    the front-speed and long-time tests; the same memoized run backs
    acceptance criteria 5 and 6, so the suite computes it once."""
    return acceptance._front_run()[0]
