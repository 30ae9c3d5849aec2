import pytest

from gcsdyn import PotentialModel, suggest_grid


@pytest.fixture(scope="session")
def morse():
    return PotentialModel.morse(a=1.0)


@pytest.fixture(scope="session")
def harmonic():
    return PotentialModel.harmonic(omega=1.0)


@pytest.fixture(scope="session")
def morse_grid(morse):
    # room for displacements up to ~2 spreads either way
    reach = 2.5 * morse.dq
    return suggest_grid(morse, q_reach_min=-reach, q_reach_max=reach, n=2048)


@pytest.fixture(scope="session")
def harmonic_grid(harmonic):
    return suggest_grid(harmonic, q_reach_min=-2.0, q_reach_max=2.0, n=1024)

