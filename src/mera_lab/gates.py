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

:func:`apply` is the one way to multiply a register by a placed gate: it
forms ``embed(gate, site, n) @ matrix`` by applying the 4x4 gate, or a stack
of them, to the row bits of (site, site+1), never forming the dense
embedding.  :func:`norms` is the one way to take the Frobenius norm of each
array of a stack.

For complex nu the weight matrix is deliberately returned as-is (neither
rejected nor rescaled): downstream state constructions renormalize, and the
check suite reports the departure from unitarity instead of hiding it.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, ShapeError, check_integer
from .heisenberg import check_site_count

#: Guard radius around the pole of the weight functions at nu = -2i.
_POLE_GUARD = 1e-12

ROTATION = "rotation"
RMATRIX = "rmatrix"
FAMILIES = (ROTATION, RMATRIX)


class BCFunctions(NamedTuple):
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


def _check_scalar(value, name: str) -> None:
    """Raise :class:`ShapeError`, naming the shape of ``value``, unless it is a scalar."""
    # Python and numpy scalars skip np.ndim, which for a Python complex costs more than
    # the rest of bc; the check suite builds a few hundred weight pairs per process.
    if not isinstance(value, (int, float, complex)) and np.ndim(value) != 0:
        raise ShapeError(f"expected a scalar {name}, got shape {np.shape(value)}")


def entangler_rotation(theta: float) -> np.ndarray:
    """Rotation entangler: mixes |01> and |10>, leaves |00> and |11> alone.

    Columns: |01> -> cos(theta)|01> - sin(theta)|10>,
             |10> -> sin(theta)|01> + cos(theta)|10>.
    This is :func:`entangler_rotations` of one angle; an angle that is not a
    scalar raises :class:`ShapeError`.
    """
    _check_scalar(theta, "angle")
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
    above 1e307), raises :class:`DomainError`; a nu that is not a scalar
    raises :class:`ShapeError`.
    """
    _check_scalar(nu, "spectral parameter")
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
    of one parameter, so a nu that is not a scalar raises :class:`ShapeError`
    in :func:`bc`.
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


def _placed_gate(gate, site: int, n: int) -> np.ndarray:
    """``gate`` as an array, checked to be [..., 4, 4], and ``site`` an integer naming a pair (site, site+1) of n sites."""
    gate = np.asarray(gate)
    if gate.shape[-2:] != (4, 4):
        raise ShapeError(f"expected a 4x4 two-site gate or a stack [..., 4, 4] of them, got {gate.shape}")
    check_integer(site, "site")
    if not 1 <= site <= n - 1:
        raise ShapeError(f"site {site} out of range for {n} sites")
    return gate


def apply(gate: np.ndarray, site: int, matrix: np.ndarray) -> np.ndarray:
    """``embed(gate, site, n) @ matrix``, formed by applying the 4x4 gate to the row bits of (site, site+1).

    ``matrix`` is [..., 2^n, cols] for any n >= 2 and cols, and ``gate`` one
    gate or a stack [..., 4, 4] whose leading axes broadcast to those of
    ``matrix``; the product has the shape and dtype of ``matrix``, which must
    therefore hold complex values for a complex gate.  The gate multiplies a
    view of ``matrix`` as slabs of 4 rows, one slab per value of the other
    row bits, so the dense 2^n x 2^n embedding is never formed.  A row count
    that is not a power of 2, a site outside 1..n-1, a gate that is not
    [..., 4, 4] or a stack whose leading axes do not broadcast to those of
    ``matrix`` raises :class:`ShapeError`; a product that ``matrix``'s dtype
    cannot hold, such as a complex gate's on a real register, raises
    :class:`ContractError`; a site that is not an integer, :class:`DomainError`.
    """
    if matrix.ndim < 2:
        raise ShapeError(f"expected a register [..., 2^n, cols], got shape {matrix.shape}")
    *stack, rows, cols = matrix.shape
    n = rows.bit_length() - 1
    if rows != 2**n:
        raise ShapeError(f"expected 2^n rows, got {rows}")
    gate = _placed_gate(gate, site, n)
    leading = gate.shape[:-2]
    if len(leading) > len(stack) or any(g not in (1, s) for g, s in zip(leading[::-1], stack[::-1])):
        raise ShapeError(f"gate stack {leading} does not broadcast to the register's stack {tuple(stack)}")
    if not np.can_cast(np.result_type(gate, matrix), matrix.dtype, casting="same_kind"):
        raise ContractError(f"a {gate.dtype} gate's product does not fit a {matrix.dtype} register")
    slabs = (*stack, 2 ** (site - 1), 4, rows >> (site + 1), cols)
    product = np.empty_like(matrix)
    out = product.reshape(slabs).swapaxes(-3, -2)
    np.matmul(gate[..., None, None, :, :], matrix.reshape(slabs).swapaxes(-3, -2), out=out)
    return product


def norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each array of ``stack`` [k, ...], as k floats; an empty stack gives an empty array.

    Each array takes the one pair of BLAS dots that ``np.linalg.norm`` takes,
    of its real and its imaginary parts, and gets its bits.
    """
    rows = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def embed(gate: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a two-site gate, or each gate of a stack [..., 4, 4], at 1-based position (site, site+1) of n sites.

    Returns [..., 2^n, 2^n]; each gate of a stack gets the bits of embedding it alone.
    """
    check_site_count(n)
    gate = _placed_gate(gate, site, n)
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
    check_site_count(n)
    if n % 2 != 0:
        raise ShapeError(f"swap layer needs an even site count, got {n}")
    return reduce(np.kron, [swap()] * (n // 2))
