import numpy as np
import pytest

from mera_lab.heisenberg import BoundaryCondition, ground_state, hamiltonian

# Half-filling block of the periodic four-site chain on the ordered basis
# (0011, 0101, 0110, 1001, 1010, 1100); entries are exact multiples of 1/2.
SZ0_BLOCK = np.array(
    [
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
        [0.5, -1.0, 0.5, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
        [0.5, 0.0, 0.5, 0.5, -1.0, 0.5],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
    ]
)

# Unnormalized ground-state amplitudes on that basis.
GROUND_PATTERN = np.array([1.0, -2.0, 1.0, 1.0, -2.0, 1.0])

SECTOR_INDICES = (3, 5, 6, 9, 10, 12)


@pytest.fixture(scope="session")
def h4() -> np.ndarray:
    return hamiltonian(4, BoundaryCondition.PERIODIC)


@pytest.fixture(scope="session")
def exact_ground() -> tuple[float, np.ndarray]:
    return ground_state(4, BoundaryCondition.PERIODIC)
