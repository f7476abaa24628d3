"""Circuit-form trial states for the four-site ring and their optimization.

The raw ansatz alternates two layers twice: a parallel swap layer and an
entangler embedded on the middle pair,

    |psi> = (S x S) (I2 x U x I2) (S x S) (I2 x U x I2) |Omega>,

applied to a product IR state |Omega> = L-vector (x) R-vector.  Conjugating
the middle entangler by the swap layer turns it into an entangler across the
outer pair (sites 1 and 4), so the ansatz entangles both ring bonds of the
coarse lattice.  The two entanglers then act on disjoint pairs, so the
circuit is their outer product C[s1s2s3s4, t1t2t3t4] = U[s1s4, t1t4] U[s2s3, t2t3]
(see :func:`circuit_matrix`).

A subtlety matters for optimization.  Under a global spin flip the rotation
entangler maps to its transpose (theta -> -theta), so the raw circuit breaks
the flip symmetry of the target ground state: the two halves of its output
differ by that sign.  The variational family used by the solvers therefore
keeps the left half of the circuit output (amplitudes with site 1 up) and
completes the state with its own spin-flip image.  On that two-amplitude
family the exact ground state of the periodic four-site chain is reachable,
and the optimal entangler angle has the closed form sin(-2 theta) = 1/sqrt(5).
The discrepancy between the raw circuit and the mirrored family is measured
and reported by the check suite rather than hidden.

At fixed gate, the best ratio of the family's two amplitudes is closed form:
project H onto the family's two basis states and solve the 2x2 generalized
eigenproblem.  For a gate that conserves Sz its overlap matrix is diagonal:
the u state lives where s1 != s4 and the q state where s1 = s4.
:func:`optimal_ratios` solves these pencils for a whole stack of gates at
once (:func:`_pencil_eigh`), each with the same bits as a solve of that gate
alone; :func:`optimal_ratio` is the stack of one.  The numeric angle search
and the CLI sweep pass their angle grids through it in a few calls, and the
package imports no scipy.

Batching keeps every bit of the one-gate, one-state steps because the same
numpy primitive carries them: ``np.einsum`` forms the gate products of both
the circuit and the mirrored family, ``np.vecdot`` is the BLAS dot of
``np.vdot``, and ``np.float_power`` squares a fidelity's modulus with libm
``pow``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import ContractError, DomainError, NumericError, ShapeError
from .heisenberg import four_site_ring

#: Norm below which a constructed state counts as degenerate.
_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class IsometryParams:
    """The eight real amplitudes of the two coarse-graining tensors.

    Each quadruple (l00, l01, l10, l11) and (r00, r01, r10, r11) must be
    normalized to 1 in the squared sum.
    """

    l00: float
    l01: float
    l10: float
    l11: float
    r00: float
    r01: float
    r10: float
    r11: float

    @classmethod
    def trivial(cls, l01: float, l10: float, r01: float, r10: float) -> "IsometryParams":
        """Weakly entangled family l00 = l11 = r00 = r11 = 0, inside the zero-magnetization sector."""
        return cls(0.0, l01, l10, 0.0, 0.0, r01, r10, 0.0)

    def left_vector(self) -> np.ndarray:
        return np.array([self.l00, self.l01, self.l10, self.l11], dtype=complex)

    def right_vector(self) -> np.ndarray:
        return np.array([self.r00, self.r01, self.r10, self.r11], dtype=complex)

    def validate(self) -> float:
        """The larger deviation |sum of squares - 1| of the two tensors; ``ContractError`` above 1e-12.

        Each sum adds the four squares left to right, the order in which
        ``np.sum`` adds four values.
        """
        worst = 0.0
        for name, (a, b, c, d) in (
            ("left", (self.l00, self.l01, self.l10, self.l11)),
            ("right", (self.r00, self.r01, self.r10, self.r11)),
        ):
            total = float(a * a + b * b + c * c + d * d)
            deviation = abs(total - 1.0)
            if not deviation <= 1e-12:
                raise ContractError(f"{name} tensor is not normalized: sum of squares = {total!r}")
            worst = max(worst, deviation)
        return worst


@dataclass(frozen=True)
class TrialState:
    """Normalized 16-dimensional circuit output plus bookkeeping."""

    state: np.ndarray
    raw_norm: float
    norm_applied: bool


@dataclass(frozen=True)
class ThetaSolution:
    """Optimal entangler angle together with the ratio r = -R01/R10."""

    theta: float
    r: float
    energy: float
    fidelity: float


@dataclass(frozen=True)
class NuFitResult:
    """Roots of the spectral-parameter fit and diagnostics at quoted values."""

    roots: tuple[complex, complex]
    nu_quoted: tuple[complex, complex]
    residual_quoted: float
    b_at_nu_quoted: complex


def ir_state(iso: IsometryParams) -> np.ndarray:
    """Product IR state: Kronecker product of the two coarse tensors."""
    iso.validate()
    return np.kron(iso.left_vector(), iso.right_vector())


def _check_gates(gate_array: np.ndarray, ndim: int) -> None:
    """Raise :class:`ShapeError` unless ``gate_array`` is one 4x4 gate (``ndim`` 2) or a stack [z, 4, 4] (``ndim`` 3)."""
    if gate_array.ndim != ndim or gate_array.shape[-2:] != (4, 4):
        expected = "a 4x4 two-site gate" if ndim == 2 else "a stack [z, 4, 4] of two-site gates"
        raise ShapeError(f"expected {expected}, got shape {gate_array.shape}")


def circuit_matrix(gate: np.ndarray) -> np.ndarray:
    """The 16x16 circuit: the gate on pair (1, 4) times the gate on pair (2, 3).

    Each entry of the layered product (swap layer, middle gate) x 2 has at
    most one nonzero term, that same product of two gate entries, so this
    form is bit-identical to it.  A gate that is not 4x4 raises
    :class:`ShapeError`.
    """
    _check_gates(gate, 2)
    quarter = gate.reshape(2, 2, 2, 2)
    return np.einsum("adeh,bcfg->abcdefgh", quarter, quarter).reshape(16, 16)


def trial_state(gate: np.ndarray, iso: IsometryParams) -> TrialState:
    """Apply the four circuit layers of the 4x4 ``gate`` to the IR state of ``iso`` and normalize.

    Renormalization only kicks in for non-unitary gates (complex spectral
    parameter); ``norm_applied`` records whether it did.
    """
    state = circuit_matrix(gate) @ ir_state(iso)
    raw_norm = float(np.linalg.norm(state))
    if not _DEGENERATE_NORM <= raw_norm < math.inf:
        raise DomainError(f"circuit output has norm {raw_norm!r} (degenerate or non-finite input)")
    norm_applied = abs(raw_norm - 1.0) > 1e-13
    return TrialState(state=state / raw_norm, raw_norm=raw_norm, norm_applied=norm_applied)


def variational_state(gate: np.ndarray, r: float) -> np.ndarray:
    """Normalized state of the mirrored family of the 4x4 ``gate`` at ratio r = -R01/R10: u = R01 and q = R10."""
    if not math.isfinite(r):
        raise DomainError(f"ratio r = {r!r} is non-finite")
    r10 = 1.0 / np.hypot(1.0, r)
    r01 = -r * r10
    basis = _mirrored_basis(gate[None])[0]
    psi = r01 * basis[0] + r10 * basis[1]
    norm = float(np.linalg.norm(psi))
    if not _DEGENERATE_NORM <= norm < math.inf:
        raise DomainError(f"variational state has norm {norm!r} (degenerate or non-finite input)")
    return psi / norm


#: Entries of a 4x4 gate between two-site states of different Sz (|00>, |01>, |10>, |11>).
_SZ_CHANGING = np.array([0, 1, 1, 2])[:, None] != np.array([0, 1, 1, 2])[None, :]


def _mirrored_basis(gate_stack: np.ndarray) -> np.ndarray:
    """The states of u = 1 and q = 1 in the mirrored family, for each gate of a stack.

    Each is the left half (site 1 up) of the circuit output for the IR state
    u (|0101> + |1010>) + q (|0110> + |1001>), completed by its spin-flip
    image.  Returns an array [z, 2, 16], equal bit for bit to that product
    with :func:`circuit_matrix`.  Only the circuit entries
    C[s, t] = U[s1 s4, t1 t4] U[s2 s3, t2 t3] with s1 = 0 and t one of the
    four IR columns are formed, in one ``np.einsum`` over the pair of IR
    columns that share an amplitude: the primitive of :func:`circuit_matrix`,
    so the products and their pair sums carry its bits.  A stack of another
    shape raises :class:`ShapeError`.
    """
    _check_gates(gate_stack, 3)
    # IR columns |0101>, |1010> (amplitude u), then |0110>, |1001> (amplitude q):
    # outer [z, s4, u/q, pair] of U[s1 s4, t1 t4] at s1 = 0, inner [z, s2, s3, u/q, pair].
    outer = gate_stack[:, :2, [1, 2, 0, 3]].reshape(-1, 2, 2, 2)
    inner = gate_stack[:, :, [2, 1, 3, 0]].reshape(-1, 2, 2, 2, 2)
    # The BLAS dots that use these rows need them contiguous, as the per-gate
    # vectors were.
    basis = np.empty((len(gate_stack), 2, 16), dtype=complex)
    basis[..., :8] = np.einsum("zdkp,zbckp->zkbcd", outer, inner).reshape(-1, 2, 8)
    basis[..., 8:] = basis[..., 7::-1]
    return basis


def _pencil_eigh(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of 2x2 Hermitian pencils a x = w diag(d) x, d > 0.

    ``d`` [z, 2] is the diagonal of each overlap matrix: the two basis states
    of the mirrored family have disjoint support, so their overlap is 0.
    Returns (w[z, 2] ascending, x[z, 2, 2] with eigenvectors as columns,
    normalized so that x^H diag(d) x = I).  These are the steps of LAPACK
    ``zhegvd`` (itype 1, lower) for a diagonal overlap, elementwise over the
    stack: the Cholesky factor L = diag(sqrt(d)), the reduction C = L^-1 a L^-1
    through reciprocals, one stacked ``np.linalg.eigh`` of C (the same
    ``zheevd`` on each matrix) and the back-transform x = L^-1 y.  The
    results equal ``scipy.linalg.eigh(a, diag(d))`` bit for bit, the signs of
    zeros included (LAPACK: modified BSD licence; Anderson et al., LAPACK
    Users' Guide, 3rd ed., SIAM 1999).  A non-finite entry, a d that is not
    positive, or an eigensolver failure raises :class:`NumericError`.
    """
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        raise NumericError("ratio optimization failed: the 2x2 pencil has non-finite entries")
    if not (d > 0.0).all():
        raise NumericError("ratio optimization failed: the overlap matrix is not positive definite")
    cholesky = np.sqrt(d)
    inverse = 1.0 / cholesky
    c = np.empty(a.shape, dtype=complex)
    c[:, 0, 0] = a[:, 0, 0].real / (cholesky[:, 0] * cholesky[:, 0])
    c[:, 1, 1] = a[:, 1, 1].real / (cholesky[:, 1] * cholesky[:, 1])
    c[:, 1, 0] = a[:, 1, 0] * inverse[:, 0] * inverse[:, 1]
    c[:, 0, 1] = np.conj(c[:, 1, 0])
    try:
        values, y = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ratio optimization failed: {exc}") from exc
    return values, y * inverse[:, :, None]


def optimal_ratios(gate_stack: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form energy minimum over the two-amplitude family, for each gate of a stack.

    For each gate of ``gate_stack`` [z, 4, 4] this projects ``h`` onto the
    span of the two basis states of the mirrored family, solves the 2x2
    generalized eigenproblem with :func:`_pencil_eigh`, and returns the
    lowest energies [z], the ratios r = -u/q [z], the normalized states
    [z, 16] and the gaps [z] between the two levels (near 0 at a level
    crossing, where r jumps).  Each row equals, bit for bit, what the same
    steps give for that gate alone: the projections and the state norm use
    ``np.vecdot``, the same BLAS dot as ``np.vdot`` and ``np.linalg.norm``.
    A non-finite gate, a vanishing q or a ratio that is not real raises
    :class:`NumericError`; a finite gate that does not conserve Sz, whose
    overlap matrix need not be diagonal, raises :class:`ContractError`; a
    stack that is not [z, 4, 4] raises :class:`ShapeError`.
    """
    basis = _mirrored_basis(gate_stack)
    if not np.isfinite(gate_stack).all():
        raise NumericError("ratio optimization failed: the gate has non-finite entries")
    if (gate_stack[:, _SZ_CHANGING] != 0.0).any():
        raise ContractError("the mirrored family needs a gate that conserves Sz")
    h_basis = (h @ basis[..., None])[..., 0]
    hm = np.vecdot(basis[:, :, None, :], h_basis[:, None, :, :])
    values, vectors = _pencil_eigh(hm, np.vecdot(basis, basis).real)
    u, q = vectors[:, 0, 0], vectors[:, 1, 0]
    if (np.abs(q) < 1e-300).any():
        raise NumericError("optimal ratio diverged (q amplitude vanished)")
    ratios = -u / q
    if (np.abs(ratios.imag) > 1e-9 * np.maximum(1.0, np.abs(ratios.real))).any():
        raise NumericError(f"optimal ratio is not real: {ratios[np.argmax(np.abs(ratios.imag))]!r}")
    states = u[:, None] * basis[:, 0] + q[:, None] * basis[:, 1]
    norms = np.sqrt(np.vecdot(states.real, states.real) + np.vecdot(states.imag, states.imag))
    return values[:, 0], ratios.real, states / norms[:, None], values[:, 1] - values[:, 0]


def optimal_ratio(gate: np.ndarray, h: np.ndarray) -> tuple[float, float, np.ndarray]:
    """:func:`optimal_ratios` for one gate: (energy, r, normalized state)."""
    energies, ratios, states, _ = optimal_ratios(gate[None], h)
    return float(energies[0]), float(ratios[0]), states[0]


@functools.cache
def solve_theta_analytic() -> ThetaSolution:
    """Closed-form entangler angle matching the exact amplitude ratios, computed once per process.

    The mirrored family carries amplitudes proportional to
    (r sin(-2 theta), -r cos(-2 theta), 1) on the states |0011>, |0101>,
    |0110>; matching them to the exact-diagonalization ratios 1 : -2 : 1
    gives sin(-2 theta) = 1/sqrt(5), cos(-2 theta) = 2/sqrt(5), r = sqrt(5),
    with theta in (-pi/4, 0).
    """
    rho1, rho2 = 1.0, -2.0
    r = float(np.hypot(rho1, rho2))
    sin_m2 = rho1 / r
    cos_m2 = -rho2 / r
    theta = -0.5 * float(np.arctan2(sin_m2, cos_m2))
    state = variational_state(gates.entangler_rotation(theta), r)
    h, _, ground = four_site_ring()
    energy = float(np.vdot(state, h @ state).real)
    return ThetaSolution(theta=theta, r=r, energy=energy, fidelity=fidelity(state, ground))


@functools.cache
def solve_theta_numeric() -> ThetaSolution:
    """Derivative-free cross-check of the closed-form optimum, computed once per process.

    Minimizes the energy of the mirrored family over the principal period
    theta in (-pi/4, pi/4), with the ratio r eliminated per angle through the
    closed-form 2x2 eigenproblem: coarse grid bracketing, bounded scalar
    minimization to 1e-12 in theta, then a parabolic vertex fit to average
    out the flat floating-point floor around the minimum.  The 999 grid
    angles are solved in one :func:`optimal_ratios` call, the bounded step
    one angle at a time, and the parabola's three points in one call.  The
    bounded step is an in-package Brent minimizer that follows scipy's
    ``minimize_scalar(method="bounded")`` step for step.  The energy has
    period pi/2: the gate at theta + pi/2 is the gate at theta after a signed
    swap, which maps the flip-symmetric IR family onto itself (u -> -u).
    """
    h, _, ground = four_site_ring()

    def energy_at(theta: float) -> float:
        return optimal_ratio(gates.entangler_rotation(theta), h)[0]

    # Grid points 501..1499 are exactly those with |theta| < pi/4; the bracket
    # is read off the full grid so that its end points keep the same bits.
    grid = np.linspace(-np.pi / 2, np.pi / 2, 2001)
    values = optimal_ratios(gates.entangler_rotations(grid[501:1500]), h)[0]
    k = 501 + int(np.argmin(values))
    theta = float(_minimize_bounded(energy_at, grid[k - 1], grid[k + 1], xatol=1e-12))

    step = 1e-5
    points = gates.entangler_rotations([theta - step, theta, theta + step])
    e_minus, e_zero, e_plus = map(float, optimal_ratios(points, h)[0])
    curvature = e_minus - 2.0 * e_zero + e_plus
    if curvature > 0.0:
        theta += 0.5 * step * (e_minus - e_plus) / curvature

    energy, r, state = optimal_ratio(gates.entangler_rotation(theta), h)
    return ThetaSolution(theta=theta, r=r, energy=energy, fidelity=fidelity(state, ground))


def _minimize_bounded(func, a: float, b: float, xatol: float, maxfun: int = 500) -> float:
    """Bounded Brent minimization of ``func`` on [a, b] (Brent 1973, ch. 5).

    A step-for-step port of ``scipy.optimize._optimize._minimize_scalar_bounded``
    (Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD
    3-clause licence, see ``LICENSES/scipy-BSD-3-Clause.txt``), without its
    printing and result wrapper, so that it returns the same x, bit for bit,
    after the same evaluations.
    Reaching ``maxfun`` evaluations or a NaN raises :class:`NumericError`.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a <= b):
        raise DomainError(f"bounds ({a!r}, {b!r}) are not a finite interval")
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf
    exhausted = False

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # Parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            exhausted = True
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        raise NumericError("scalar minimization failed: NaN result encountered")
    if exhausted:
        raise NumericError(f"scalar minimization failed: {maxfun} function evaluations reached")
    return xf


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared normalized overlap |<a|b>|^2 / (|a|^2 |b|^2), in [0, 1]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"vectors of shapes {a.shape} and {b.shape} cannot overlap")
    return float(fidelities(a.reshape(1, -1), b.reshape(-1))[0])


def fidelities(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared normalized overlap |<s|t>|^2 / (|s|^2 |t|^2) of each row s of ``states`` with ``target``.

    Each row equals, bit for bit, what the same steps give for that row
    alone.  The overlaps and norms use ``np.vecdot``, the same BLAS dot as
    ``np.vdot``.  The modulus of each overlap is ``np.hypot`` of its parts,
    which is libm ``hypot`` like the ``abs`` of a numpy complex scalar; numpy's
    array ``abs`` of a complex array differs in the last bit for about a third
    of random complex numbers.  The modulus is squared with ``np.float_power``,
    which calls libm ``pow`` as ``** 2`` of a numpy float64 scalar does;
    ``np.power`` and ``**`` of an array take the x * x fast path, which differs
    in rare cases (15 of the 20 001 rows of a sweep over [-3, 3]).  A row or
    target with a non-finite entry raises :class:`DomainError`, as a zero
    vector does, and so do finite vectors whose squared norms, or the
    product of a row's and the target's, overflow.
    """
    states = np.asarray(states, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if states.ndim != 2 or states.shape[1:] != target.shape:
        raise ShapeError(f"rows of shape {states.shape[1:]} and a target of shape {target.shape} cannot overlap")
    if not (np.isfinite(states).all() and np.isfinite(target).all()):
        raise DomainError("fidelity of a vector with non-finite entries is undefined")
    with np.errstate(over="ignore"):
        norms = np.vecdot(states, states).real
        target_norm = float(np.vdot(target, target).real)
        scales = norms * target_norm
    if (norms <= 0.0).any() or target_norm <= 0.0:
        raise DomainError("fidelity of a zero vector is undefined")
    if not np.isfinite(scales).all():
        raise DomainError("fidelity of vectors whose squared norms overflow is undefined")
    overlaps = np.vecdot(states, target)
    return np.float_power(np.hypot(overlaps.real, overlaps.imag), 2.0) / scales


def entanglement_entropy(psi: np.ndarray, cut: int) -> float:
    """Von Neumann entropy (nats) of the leftmost ``cut`` sites: :func:`entanglement_entropies` of one state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ShapeError(f"expected one state vector, got shape {psi.shape}")
    return float(entanglement_entropies(psi[None], cut)[0])


def entanglement_entropies(states: np.ndarray, cut: int) -> np.ndarray:
    """Von Neumann entropy (nats) of the leftmost ``cut`` sites, for each row of ``states``.

    Computed from the singular values of each cut-reshaped amplitude matrix,
    in one stacked SVD; normalized squared singular values at or below 1e-15
    are dropped.  The rows are summed in groups that keep the same number of
    weights, so each entropy equals, bit for bit, the sum over that row's
    kept weights alone.  A non-finite amplitude raises :class:`DomainError`
    before the SVD, and a finite state whose squared norm overflows raises it
    after; an empty stack gives an empty array.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise ShapeError(f"expected a stack [z, 2**n] of state vectors, got shape {states.shape}")
    n = states.shape[1].bit_length() - 1
    if 2 ** n != states.shape[1]:
        raise ShapeError(f"state length {states.shape[1]} is not a power of two")
    if not 1 <= cut < n:
        raise ShapeError(f"cut {cut} invalid for {n} sites")
    if not np.isfinite(states).all():
        raise DomainError("entropy of a state with non-finite amplitudes is undefined")
    singulars = np.linalg.svd(states.reshape(len(states), 2 ** cut, 2 ** (n - cut)), compute_uv=False)
    with np.errstate(over="ignore"):
        weights = singulars ** 2
        totals = weights.sum(axis=-1)
    if (totals <= 0.0).any():
        raise DomainError("entropy of a zero vector is undefined")
    if not np.isfinite(totals).all():
        raise DomainError("entropy of a state whose squared norm overflows is undefined")
    weights = weights / totals[:, None]
    # Singular values come in descending order, so the kept weights are a prefix.
    kept = np.count_nonzero(weights > 1e-15, axis=-1)
    entropies = np.empty(len(states))
    # Grouping through a set, not np.unique, keeps numpy.ma from being imported.
    for count in sorted(set(kept.tolist())):
        rows = kept == count
        w = weights[rows, :count]
        entropies[rows] = -(w * np.log(w)).sum(axis=-1)
    return entropies + 0.0


def solve_nu_fit() -> NuFitResult:
    """Spectral parameters for which the weight entangler matches the target.

    Matching the mirrored-family amplitudes to the exact ratios requires
    2 b c : (b^2 + c^2) = 1 : -2, i.e. b^2 + c^2 + 4 b c = 0.  Substituting
    the weight functions and clearing (nu + 2i)^2 leaves the quadratic
    nu^2 + 8 i nu - 4 = 0 with roots nu = (-4 +/- 2 sqrt(3)) i.  Both are
    verified by direct substitution.  The same residual is also evaluated at
    the often-quoted values -4i +/- 2 sqrt(3) (real offsets instead of
    imaginary ones), where it does not vanish; that number is reported, not
    asserted against.
    """
    offset = 2.0 * np.sqrt(3.0)
    roots = (complex(0.0, offset - 4.0), complex(0.0, -offset - 4.0))

    def residual(nu: complex) -> complex:
        w = gates.bc(nu)
        return w.b ** 2 + w.c ** 2 + 4.0 * w.b * w.c

    residual_derived = max(abs(residual(nu)) for nu in roots)
    if residual_derived > 1e-12:
        raise NumericError(f"derived roots fail the fit condition: residual {residual_derived:.3e}")
    quoted = (offset - 4j, -offset - 4j)
    residual_quoted = max(abs(residual(nu)) for nu in quoted)
    return NuFitResult(
        roots=roots,
        nu_quoted=quoted,
        residual_quoted=float(residual_quoted),
        b_at_nu_quoted=gates.bc(quoted[0]).b,
    )
