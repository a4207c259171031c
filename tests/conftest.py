import functools
import pathlib

import numpy as np
import pytest

from qlogic import ClassicalModel, ClassicalObservable, OutcomeSpace, QuantumModel
from qlogic.bell import BellScenario, DEFAULT_ANGLES, build_chsh_frame
from qlogic.cli import load_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def haar_unitary(g: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary: the Q of a complex Gaussian, its phases fixed."""
    q, r = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


@functools.cache
def loaded(path):
    """The model at path, loaded once for the whole session: the oracle
    tests read it, and none may change it."""
    return load_model(str(path))


@pytest.fixture(scope="session")
def xz4_model():
    """The xz4 golden model (81 contexts on C^16, about 0.6 s a load),
    loaded once: the same object loaded() gives the oracle tests."""
    return loaded(GOLDEN / "xz4_seed0.json")


@pytest.fixture(scope="session")
def figure1_model():
    omega = OutcomeSpace(frozenset({"w0", "w1"}))
    obs = ClassicalObservable.from_dict("A", {"w0": 0, "w1": 1})
    return ClassicalModel(omega, {"A": obs})


@pytest.fixture(scope="session")
def crossing_model():
    omega = OutcomeSpace(frozenset({"1", "2", "3", "4"}))
    a = ClassicalObservable.from_dict("A", {"1": 0, "2": 0, "3": 1, "4": 1})
    b = ClassicalObservable.from_dict("B", {"1": 0, "2": 1, "3": 0, "4": 1})
    return ClassicalModel(omega, {"A": a, "B": b})


@pytest.fixture(scope="session")
def one_qubit_model():
    return QuantumModel({"Sz": SZ, "Sx": SX})


@pytest.fixture(scope="session")
def two_qubit_zz_model():
    eye = np.eye(2, dtype=complex)
    return QuantumModel({"ZA": np.kron(SZ, eye), "ZB": np.kron(eye, SZ)})


@pytest.fixture(scope="session")
def chsh():
    return build_chsh_frame(BellScenario.from_angles(*DEFAULT_ANGLES))
