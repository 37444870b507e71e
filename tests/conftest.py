import numpy as np
import pytest

from ejof import (
    ThreeLevelParams,
    random_structured_instance,
    repetition_code_recovery,
    three_level_system,
)


@pytest.fixture
def three_level():
    """Detuned three-level system with its weak-decay perturbation."""
    return three_level_system(ThreeLevelParams(delta=1.0, Gamma=2.0, gamma=0.04))


@pytest.fixture
def repetition():
    """Repetition-code recovery channel and its continuous-recovery generator."""
    return repetition_code_recovery()


@pytest.fixture
def generic_instance():
    """One random structured instance with a full-corner perturbation."""
    return random_structured_instance(2, 3, 2, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def density_factory(rng):
    return lambda dim: random_density(rng, dim)


@pytest.fixture
def count_drazin_solves(monkeypatch):
    """Record the column count of every L^D solve of a generator's factor class."""
    def install(lind):
        cls = type(lind.factor)
        original = cls.apply_drazin
        widths = []

        def counting(self, y):
            widths.append(y.shape[1])
            return original(self, y)

        monkeypatch.setattr(cls, "apply_drazin", counting)
        return widths

    return install
