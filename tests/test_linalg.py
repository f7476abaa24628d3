import numpy as np

from mera_lab import linalg
from mera_lab.gates import entangler_rotation

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def eight_dim_entangler_block(theta: float) -> np.ndarray:
    """Hand-placed entries of the two-site rotation followed by an idle site."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.zeros((8, 8), dtype=complex)
    for k in (0, 1, 6, 7):
        m[k, k] = 1.0
    m[2, 2] = c
    m[2, 4] = s
    m[3, 3] = c
    m[3, 5] = s
    m[4, 2] = -s
    m[4, 4] = c
    m[5, 3] = -s
    m[5, 5] = c
    return m


def test_kron_identities():
    assert np.array_equal(linalg.kron(I2, I2), I4)


def test_kron_gate_with_idle_site_matches_hand_blocks():
    theta = 0.37
    expected = eight_dim_entangler_block(theta)
    assert linalg.allclose(linalg.kron(entangler_rotation(theta), I2), expected, tol=0.0)


def test_kron_nested_gives_block_diagonal():
    theta = 0.37
    block = linalg.kron(entangler_rotation(theta), I2)
    full = linalg.kron(I2, block)
    expected = np.zeros((16, 16), dtype=complex)
    expected[:8, :8] = block
    expected[8:, 8:] = block
    assert np.array_equal(full, expected)


def test_kron_associativity_exact_on_integers():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    c = np.array([[2, 0], [0, 5]], dtype=complex)
    assert np.array_equal(linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)))


def test_kron_associativity_random():
    # regrouping the scalar triple products costs at most a few ulp
    rng = np.random.default_rng(13)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert linalg.allclose(linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)), tol=1e-14)


def test_mixed_product_property():
    rng = np.random.default_rng(14)
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_allclose_tolerance():
    a = np.zeros((2, 2))
    b = np.full((2, 2), 1e-13)
    assert linalg.allclose(a, b)
    assert not linalg.allclose(a, b, tol=1e-14)
    assert not linalg.allclose(a, np.zeros((3, 3)))
