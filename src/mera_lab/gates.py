"""Two-site circuit elements and their embeddings into spin registers.

Basis convention used everywhere in this package: big-endian computational
basis, |s1 s2 ... sn> maps to the index s1*2^(n-1) + ... + sn, with |0> the
up state.  Site 1 is therefore the most significant bit, and embedding a
two-site gate at position j means kron(I_{2^(j-1)}, gate, I_{2^(n-j-1)}).

Two entangler families (``FAMILIES``) are supported, each passed around as
its 4x4 gate:

* ``rotation``: a real rotation acting on the (|01>, |10>) block,
  parameterized by an angle theta; always unitary.  A complex or non-finite
  angle raises :class:`DomainError`;
* ``rmatrix``: the integrable-weight matrix with entries b(nu) = 2i/(nu+2i)
  and c(nu) = nu/(nu+2i) in the same block; unitary exactly when nu is real.

The stacked builders :func:`entangler_rotations` and :func:`rmatrices`
return [m, 4, 4] arrays from one ``_exchange_gates`` call, and the single
builders are their stacks of one, so a gate has the same bits either way.
``rmatrices`` takes each weight pair from :func:`bc`, one nu at a time.
:func:`embed` likewise takes one gate or a stack [..., 4, 4], and each
embedded gate of a stack has the bits of that gate embedded alone.

For complex nu the weight matrix is deliberately returned as-is (neither
rejected nor rescaled): downstream state constructions renormalize, and the
check suite reports the departure from unitarity instead of hiding it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ShapeError
from .heisenberg import _check_site_count

#: Guard radius around the pole of the weight functions at nu = -2i.
_POLE_GUARD = 1e-12

ROTATION = "rotation"
RMATRIX = "rmatrix"
FAMILIES = (ROTATION, RMATRIX)


@dataclass(frozen=True)
class BCFunctions:
    """Weight pair (b, c) of the integrable 4x4 matrix; b + c = 1 identically."""

    b: complex
    c: complex


def _exchange_gates(diagonal, upper, lower) -> np.ndarray:
    """Stack [m, 4, 4] of gates fixing |00> and |11>, with block [[diagonal, upper], [lower, diagonal]] on (|01>, |10>).

    Each argument holds one entry per gate; the swap, the rotation and the
    integrable-weight matrix all have this form.
    """
    stack = np.zeros((len(diagonal), 4, 4), dtype=complex)
    stack[:, 0, 0] = stack[:, 3, 3] = 1.0
    stack[:, 1, 1] = stack[:, 2, 2] = diagonal
    stack[:, 1, 2] = upper
    stack[:, 2, 1] = lower
    return stack


def entangler_rotation(theta: float) -> np.ndarray:
    """Rotation entangler: mixes |01> and |10>, leaves |00> and |11> alone.

    Columns: |01> -> cos(theta)|01> - sin(theta)|10>,
             |10> -> sin(theta)|01> + cos(theta)|10>.
    This is :func:`entangler_rotations` of one angle.
    """
    return entangler_rotations([theta])[0]


def entangler_rotations(thetas: np.ndarray) -> np.ndarray:
    """Stack [m, 4, 4] of rotation entanglers, one per angle of ``thetas``.

    The cosines and sines are taken of the whole array at once; each gate
    equals, bit for bit, the gate of its angle alone.  A complex or
    non-finite angle raises :class:`DomainError` before any arithmetic.
    """
    thetas = np.asarray(thetas)
    if thetas.ndim != 1:
        raise ShapeError(f"expected a 1-d array of angles, got shape {thetas.shape}")
    if np.iscomplexobj(thetas):
        raise DomainError(f"rotation angles must be real, got {thetas.dtype} values")
    thetas = thetas.astype(float, copy=False)
    finite = np.isfinite(thetas)
    if not finite.all():
        raise DomainError(f"rotation angles must be finite, got {float(thetas[~finite][0])!r}")
    s = np.sin(thetas)
    return _exchange_gates(np.cos(thetas), s, -s)


def swap() -> np.ndarray:
    """Two-site swap gate S with S(|s> (x) |s'>) = |s'> (x) |s>; involutive."""
    return _exchange_gates([0.0], [1.0], [1.0])[0]


def bc(nu: complex) -> BCFunctions:
    """Weight functions b(nu) = 2i/(nu+2i) and c(nu) = nu/(nu+2i).

    A nu within ``_POLE_GUARD`` of the pole, or one for which a weight is not
    finite (a non-finite nu, or a division that overflows, which needs |nu|
    above 1e307), raises :class:`DomainError`.
    """
    nu = complex(nu)
    denominator = nu + 2j
    # math.hypot returns inf where abs() of the complex would raise OverflowError.
    if math.hypot(denominator.real, denominator.imag) < _POLE_GUARD:
        raise DomainError("weight functions have a pole at nu = -2i")
    b, c = 2j / denominator, nu / denominator
    if not (cmath.isfinite(b) and cmath.isfinite(c)):
        raise DomainError(f"weight functions are not finite at nu = {nu!r}")
    return BCFunctions(b=b, c=c)


def rmatrix(nu: complex) -> np.ndarray:
    """Integrable-weight entangler: symmetric off-diagonal block (b, c).

    Unitary exactly for real nu.  For complex nu the matrix is returned
    unaltered; callers own any renormalization.  This is :func:`rmatrices`
    of one parameter.
    """
    return rmatrices([nu])[0]


def rmatrices(nus) -> np.ndarray:
    """Stack [m, 4, 4] of integrable-weight entanglers, one per parameter of ``nus``.

    The weights come from :func:`bc`, one parameter at a time, so a pole or a
    non-finite weight raises :class:`DomainError` as it does there.
    """
    weights = [bc(nu) for nu in nus]
    b = [w.b for w in weights]
    c = [w.c for w in weights]
    return _exchange_gates(b, c, c)


def embed(gate: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a two-site gate, or each gate of a stack [..., 4, 4], at 1-based position (site, site+1) of n sites.

    Returns [..., 2^n, 2^n]; each gate of a stack gets the bits of embedding it alone.
    """
    gate = np.asarray(gate)
    if gate.shape[-2:] != (4, 4):
        raise ShapeError(f"expected a 4x4 two-site gate or a stack [..., 4, 4] of them, got {gate.shape}")
    _check_site_count(n)
    if not 1 <= site <= n - 1:
        raise ShapeError(f"site {site} out of range for {n} sites")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site - 1), dtype=complex)
    # kron(kron(left, gate), right), multiplied in kron's order, which keeps every bit of it,
    # the signs of zeros included: left * gate into the one output array, then times right in place.
    stack = gate.shape[:-2]
    product = np.empty((*stack, len(left), 4, len(right), len(left), 4, len(right)), dtype=complex)
    np.multiply(left[:, None, None, :, None, None], gate[..., None, :, None, None, :, None], out=product)
    np.multiply(product, right[None, None, :, None, None, :], out=product)
    return product.reshape(*stack, 2**n, 2**n)


def swap_layer(n: int) -> np.ndarray:
    """Parallel swaps on pairs (1,2), (3,4), ...: kron of n/2 swap gates."""
    _check_site_count(n)
    if n % 2 != 0:
        raise ShapeError(f"swap layer needs an even site count, got {n}")
    return reduce(np.kron, [swap()] * (n // 2))
