"""Two-site circuit elements and their embeddings into spin registers.

Basis convention used everywhere in this package: big-endian computational
basis, |s1 s2 ... sn> maps to the index s1*2^(n-1) + ... + sn, with |0> the
up state.  Site 1 is therefore the most significant bit, and embedding a
two-site gate at position j means kron(I_{2^(j-1)}, gate, I_{2^(n-j-1)}).

Two entangler families are supported:

* a real rotation acting on the (|01>, |10>) block, parameterized by an
  angle theta; always unitary;
* the integrable-weight matrix with entries b(nu) = 2i/(nu+2i) and
  c(nu) = nu/(nu+2i) in the same block; unitary exactly when nu is real.

For complex nu the weight matrix is deliberately returned as-is (neither
rejected nor rescaled): downstream state constructions renormalize, and the
check suite reports the departure from unitarity instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ResourceError, ShapeError
from .heisenberg import MAX_SITES
from .linalg import kron

#: Guard radius around the pole of the weight functions at nu = -2i.
_POLE_GUARD = 1e-12

ROTATION = "rotation"
RMATRIX = "rmatrix"


@dataclass(frozen=True)
class EntanglerSpec:
    """Tagged choice of entangler family plus its spectral parameter."""

    family: str
    parameter: complex

    def __post_init__(self) -> None:
        if self.family not in (ROTATION, RMATRIX):
            raise DomainError(f"unknown entangler family {self.family!r}")
        if self.family == ROTATION and complex(self.parameter).imag != 0.0:
            raise DomainError("rotation angle must be real")
        if self.family == RMATRIX and abs(complex(self.parameter) + 2j) < _POLE_GUARD:
            raise DomainError("spectral parameter sits on the pole at -2i")

    @classmethod
    def rotation(cls, theta: float) -> "EntanglerSpec":
        return cls(ROTATION, complex(theta))

    @classmethod
    def rmatrix(cls, nu: complex) -> "EntanglerSpec":
        return cls(RMATRIX, complex(nu))

    def matrix(self) -> np.ndarray:
        """The 4x4 gate for this spec."""
        if self.family == ROTATION:
            return entangler_rotation(self.parameter.real)
        return rmatrix(self.parameter)


@dataclass(frozen=True)
class BCFunctions:
    """Weight pair (b, c) of the integrable 4x4 matrix; b + c = 1 identically."""

    b: complex
    c: complex


def entangler_rotation(theta: float) -> np.ndarray:
    """Rotation entangler: mixes |01> and |10>, leaves |00> and |11> alone.

    Columns: |01> -> cos(theta)|01> - sin(theta)|10>,
             |10> -> sin(theta)|01> + cos(theta)|10>.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = 1.0
    gate[3, 3] = 1.0
    gate[1, 1] = c
    gate[1, 2] = s
    gate[2, 1] = -s
    gate[2, 2] = c
    return gate


def swap() -> np.ndarray:
    """Two-site swap gate S with S(|s> (x) |s'>) = |s'> (x) |s>; involutive."""
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = 1.0
    gate[1, 2] = 1.0
    gate[2, 1] = 1.0
    gate[3, 3] = 1.0
    return gate


def bc(nu: complex) -> BCFunctions:
    """Weight functions b(nu) = 2i/(nu+2i) and c(nu) = nu/(nu+2i)."""
    nu = complex(nu)
    if abs(nu + 2j) < _POLE_GUARD:
        raise DomainError("weight functions have a pole at nu = -2i")
    return BCFunctions(b=2j / (nu + 2j), c=nu / (nu + 2j))


def rmatrix(nu: complex) -> np.ndarray:
    """Integrable-weight entangler: symmetric off-diagonal block (b, c).

    Unitary exactly for real nu.  For complex nu the matrix is returned
    unaltered; callers own any renormalization.
    """
    w = bc(nu)
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = 1.0
    gate[3, 3] = 1.0
    gate[1, 1] = w.b
    gate[1, 2] = w.c
    gate[2, 1] = w.c
    gate[2, 2] = w.b
    return gate


def embed(gate: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a two-site gate at 1-based position (site, site+1) of n sites."""
    gate = np.asarray(gate)
    if gate.shape != (4, 4):
        raise ShapeError(f"expected a 4x4 two-site gate, got {gate.shape}")
    if n < 2:
        raise ShapeError(f"register needs at least 2 sites, got {n}")
    if n > MAX_SITES:
        raise ResourceError(f"register of {n} sites exceeds the supported {MAX_SITES}")
    if not 1 <= site <= n - 1:
        raise ShapeError(f"site {site} out of range for {n} sites")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site - 1), dtype=complex)
    return kron(kron(left, gate), right)


def swap_layer(n: int) -> np.ndarray:
    """Parallel swaps on pairs (1,2), (3,4), ...: kron of n/2 swap gates."""
    if n % 2 != 0 or n < 2:
        raise ShapeError(f"swap layer needs an even site count, got {n}")
    if n > MAX_SITES:
        raise ResourceError(f"register of {n} sites exceeds the supported {MAX_SITES}")
    return reduce(kron, [swap()] * (n // 2))


def monodromy(spec: EntanglerSpec, k: int) -> np.ndarray:
    """Ordered product of entanglers at positions 1..2^k-1 on 2^k sites.

    Factors are multiplied left to right starting from position 1, i.e. the
    returned matrix is U_1 @ U_2 @ ... @ U_{2^k-1}; acting on a state, the
    highest-position entangler is applied first.  Adjacent entanglers
    overlap on one site, so the value does depend on this order; only gates
    with disjoint supports commute.
    """
    if k < 1:
        raise DomainError(f"coarse-graining level must be >= 1, got {k}")
    n = 2 ** k
    if n > MAX_SITES:
        raise ResourceError(f"level {k} needs {n} sites, above the supported {MAX_SITES}")
    gate = spec.matrix()
    out = np.eye(2 ** n, dtype=complex)
    for site in range(1, n):
        out = out @ embed(gate, site, n)
    return out
