"""Antiferromagnetic Heisenberg chains (n <= 12 sites) and their exact spectra.

H = sum over bonds of [ (S+ S- + S- S+)/2 + Sz Sz ] with spin-1/2 operators,
coupling 1 and no constant shift, so a ferromagnetic bond contributes +1/4 on
the diagonal and an antiferromagnetic one -1/4 plus an exchange element 1/2.
The matrix is real symmetric in the computational basis.

H conserves total Sz, so it is block diagonal in the number of down spins.
One term emitter, ``_hamiltonian_terms``, lists the nonzeros of H on the
columns of an ascending list of states: the diagonal and, per bond, the
exchanged image of every anti-aligned state. Dense blocks scatter the images
back into the list: ``hamiltonian`` on all 2^n states, ``sector_hamiltonian``
on one fixed-magnetization sector (at most C(12, 6) = 924 states). The ``ed``
command works one Sz sector at a time and never forms the 2^n matrix;
``ground_state`` stays dense because its callers need the full state vector,
and it refuses a degenerate ground state, whose vector would be arbitrary.
The periodic four-site ring, which every circuit path uses, is built and
diagonalized once per process by ``four_site_ring``.

``sector_spectra`` uses the global spin flip and, on the ring, translations
(Sandvik, AIP Conf. Proc. 1297, 135 (2010)). Flipping every spin complements
the bits of a state, which maps the ascending basis of sector k onto that of
sector n - k in reverse order, and keeps every bond's alignment; so the
n - k block is the k block with rows and columns reversed, exactly, and only
sectors k <= n/2 are solved. On the ring, the shift of every site by one
commutes with H, and each sector splits into crystal-momentum blocks
k = 2 pi m / n, one state per orbit of that shift. ``momentum_blocks`` runs
the emitter on the orbits' representatives only and maps each image onto its
orbit (``_rotations``), so no dense sector block is formed. Blocks m and
n - m are complex conjugates, so only m = 0..n/2 is solved. The total
momentum is the sum of the Bethe momenta. At 12 sites the largest ring
blocks solved are 80 x 80 (m = 0 and m = 6 at half filling). An open chain's
half-filling block (even n), on which the flip has no fixed states, splits
into its even and odd halves A +/- B J (see ``_flip_halves``); at 12 open
sites the largest block solved is 792 x 792.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError, ResourceError

MAX_SITES = 12


class BoundaryCondition(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SectorBasis:
    """Ascending full-space indices of the fixed-magnetization sector."""

    n: int
    n_down: int
    indices: tuple[int, ...]


def _bonds(n: int, bc: BoundaryCondition | str) -> list[tuple[int, int]]:
    if not 2 <= n <= MAX_SITES:
        raise ResourceError(f"site count {n} outside the supported range 2..{MAX_SITES}")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if BoundaryCondition(bc) is BoundaryCondition.PERIODIC:
        bonds.append((n - 1, 0))
    return bonds


def _hamiltonian_terms(
    n: int, states: np.ndarray, bonds: list[tuple[int, int]]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Nonzeros of H on the columns ``states`` (ascending): the diagonal and the exchanges.

    Per bond, the exchange part is the positions of the anti-aligned states in
    ``states`` and the states their two spins exchange into; each image has
    the element 1/2 in its source's column.
    """
    diagonal = np.zeros(len(states))
    exchanges = []
    for i, j in bonds:
        bi = (states >> (n - 1 - i)) & 1
        bj = (states >> (n - 1 - j)) & 1
        aligned = bi == bj
        diagonal += np.where(aligned, 0.25, -0.25)
        sources = np.flatnonzero(~aligned)
        exchanges.append((sources, states[sources] ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))))
    return diagonal, exchanges


def _build_hamiltonian(n: int, states: np.ndarray, bonds: list[tuple[int, int]]) -> np.ndarray:
    """H on the span of ``states``, which must be ascending and closed under exchange."""
    diagonal, exchanges = _hamiltonian_terms(n, states, bonds)
    h = np.diag(diagonal)
    for sources, images in exchanges:
        h[np.searchsorted(states, images), sources] += 0.5
    return h


def hamiltonian(n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC) -> np.ndarray:
    """Dense 2^n x 2^n Heisenberg Hamiltonian; real symmetric."""
    bonds = _bonds(n, bc)
    return _build_hamiltonian(n, np.arange(1 << n), bonds)


def sector_basis(n: int, n_down: int) -> SectorBasis:
    """All basis states with exactly ``n_down`` down spins, ascending."""
    if not 0 <= n_down <= n:
        raise DomainError(f"down-spin count {n_down} invalid for {n} sites")
    states = np.arange(1 << n)
    ones = np.zeros_like(states)
    for k in range(n):
        ones += (states >> k) & 1
    return SectorBasis(n=n, n_down=n_down, indices=tuple(np.flatnonzero(ones == n_down).tolist()))


def sector_hamiltonian(
    n: int, n_down: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC
) -> np.ndarray:
    """Block of H with ``n_down`` down spins, in ``sector_basis`` order; real symmetric."""
    bonds = _bonds(n, bc)
    states = np.array(sector_basis(n, n_down).indices, dtype=np.int64)
    return _build_hamiltonian(n, states, bonds)


def _flip_halves(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip-even and flip-odd blocks A + B J and A - B J of a flip-symmetric block.

    The flip sends basis index i to d - 1 - i, so the block is
    [[A, B], [J B J, J A J]] with J the h x h reversal, h = d/2. The vectors
    (x, +/-J x) span the two flip parities, on which the block acts as
    A +/- B J. Both are symmetric and their entries are exact sums of
    multiples of 1/4.
    """
    half = len(block) // 2
    a = block[:half, :half]
    bj = block[:half, half:][:, ::-1]
    return a + bj, a - bj


def _rotations(n: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each state's orbit under the ring shift T: (representative, shift, period).

    The representative is the smallest state of the orbit, the shift the
    fewest applications of T that map the state onto it, and the period the
    orbit's number of members. T moves every site by one, the last to the front.
    """
    rotated = representative = states
    shift = np.zeros_like(states)
    period = np.full_like(states, n)
    for r in range(1, n):
        rotated = (rotated >> 1) | ((rotated & 1) << (n - 1))
        smaller = rotated < representative
        representative = np.where(smaller, rotated, representative)
        shift = np.where(smaller, r, shift)
        period = np.where((rotated == states) & (period == n), r, period)
    return representative, shift, period


def momentum_blocks(n: int, n_down: int) -> list[np.ndarray]:
    """Blocks H_k of the ring sector with ``n_down`` down spins, k = 2 pi m / n, m = 0..n/2.

    Block m acts on one momentum state per orbit representative a whose
    period p_a has m p_a = 0 (mod n), in ascending order of a. H is built on
    the representatives only: the diagonal of H is that of every block, and
    an exchange image of a that l shifts map onto representative b adds
    1/2 e^{-i k l} sqrt(p_a / p_b) to <b|H_k|a>. Block n - m is the complex
    conjugate of block m and is not returned; when 2m = 0 (mod n) every
    phase is +/-1 and the block is returned real.
    """
    bonds = _bonds(n, BoundaryCondition.PERIODIC)
    states = np.array(sector_basis(n, n_down).indices, dtype=np.int64)
    representative, _, period = _rotations(n, states)
    is_representative = representative == states
    representatives, periods = states[is_representative], period[is_representative]
    diagonal, exchanges = _hamiltonian_terms(n, representatives, bonds)
    sources, images = (np.concatenate(parts) for parts in zip(*exchanges))
    image_representatives, shifts, _ = _rotations(n, images)
    targets = np.searchsorted(representatives, image_representatives)
    weights = 0.5 * np.sqrt(periods[sources] / periods[targets])
    blocks = []
    for m in range(n // 2 + 1):
        h_k = np.diag(diagonal).astype(complex)
        np.add.at(h_k, (targets, sources), weights * np.exp(-2j * np.pi * (m * shifts % n) / n))
        kept = np.flatnonzero(m * periods % n == 0)
        h_k = h_k[np.ix_(kept, kept)]
        blocks.append(h_k.real if 2 * m % n == 0 else h_k)
    return blocks


def _momentum_spectrum(n: int, n_down: int) -> np.ndarray:
    """Ascending spectrum of a ring sector, solved in its momentum blocks m = 0..n/2.

    Block n - m is the complex conjugate of block m and has its spectrum.
    """
    parts = []
    for m, h_k in enumerate(momentum_blocks(n, n_down)):
        if len(h_k):
            values = np.linalg.eigvalsh(h_k)
            parts.extend([values] if 2 * m % n == 0 else [values, values])
    return np.sort(np.concatenate(parts))


def sector_spectra(n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC) -> list[np.ndarray]:
    """Ascending spectra of all n + 1 Sz sectors, indexed by down-spin count.

    Only the sectors n_down <= n/2 are diagonalized: sector n - k is sector k
    under the spin flip and shares its read-only array. A ring sector is
    solved in its momentum blocks k = 2 pi m / n, m = 0..n/2 (see
    ``momentum_blocks``); an open chain's half-filling block in its two
    flip-parity halves (see ``_flip_halves``).
    """
    periodic = BoundaryCondition(bc) is BoundaryCondition.PERIODIC
    solved = []
    for n_down in range(n // 2 + 1):
        if periodic:
            values = _momentum_spectrum(n, n_down)
        elif 2 * n_down == n:
            even, odd = _flip_halves(sector_hamiltonian(n, n_down, bc))
            values = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
        else:
            values = np.linalg.eigvalsh(sector_hamiltonian(n, n_down, bc))
        values.setflags(write=False)
        solved.append(values)
    return [solved[min(k, n - k)] for k in range(n + 1)]


def _fix_phase(state: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real positive (ties: lowest index)."""
    mags = np.abs(state)
    top = float(mags.max())
    candidates = np.flatnonzero(mags >= top * (1.0 - 1e-12))
    pivot = state[int(candidates[0])]
    return state * (np.conj(pivot) / abs(pivot))


def ground_state(
    n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the chain; the state is normalized and phase-fixed.

    Raises ``NumericError`` when the ground state is degenerate, for example
    at 3 periodic or 5 open sites.
    """
    return _lowest_eigenpair(hamiltonian(n, bc))


def _lowest_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eigh(h)
    tolerance = 1e-10 * max(1.0, abs(values[0]))
    if values[1] - values[0] <= tolerance:
        count = int(np.count_nonzero(values <= values[0] + tolerance))
        raise NumericError(f"ground state is {count}-fold degenerate at E0 = {values[0]:.12f}; no unique state vector")
    state = vectors[:, 0].astype(complex)
    state = state / np.linalg.norm(state)
    return float(values[0]), _fix_phase(state)


@functools.cache
def four_site_ring() -> tuple[np.ndarray, float, np.ndarray]:
    """(H, E0, ground state) of the periodic four-site ring, built once per process.

    The optimizers, the check suite, the report and the CLI share these
    arrays, so they are read-only.  The values are those of
    ``hamiltonian(4)`` and ``ground_state(4)``, bit for bit.
    """
    h = hamiltonian(4, BoundaryCondition.PERIODIC)
    energy, ground = _lowest_eigenpair(h)
    h.setflags(write=False)
    ground.setflags(write=False)
    return h, energy, ground
