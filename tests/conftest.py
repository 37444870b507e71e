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
    """Repetition code and its continuous-recovery generator, as (code, lind)."""
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
    """Record the column count of every L^D solve of a generator's corner factor.

    On a generator in normal form the general route reads L^D O1 E off one
    rank-two solve (``solve_rank_two``) on the K d columns of c_qp.
    """
    def install(lind):
        cls = type(lind.factor)
        original = cls.solve_rank_two
        widths = []

        def counting(self, c):
            widths.append(c.shape[1])
            return original(self, c)

        monkeypatch.setattr(cls, "solve_rank_two", counting)
        return widths

    return install
