"""Antiferromagnetic Heisenberg chains (n <= 12 sites) and their exact spectra.

H = sum over bonds of [ (S+ S- + S- S+)/2 + Sz Sz ] with spin-1/2 operators,
coupling 1 and no constant shift, so a ferromagnetic bond contributes +1/4 on
the diagonal and an antiferromagnetic one -1/4 plus an exchange element 1/2.
The matrix is real symmetric in the computational basis.

H conserves total Sz, so it is block diagonal in the number of down spins.
One builder makes H on any ascending list of basis states closed under spin
exchange: ``hamiltonian`` gives it all 2^n states and ``sector_hamiltonian``
one fixed-magnetization sector (at most C(12, 6) = 924 states). The ``ed``
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
k = 2 pi m / n on the orbits of that shift (see ``translation_orbits`` and
``momentum_blocks``); blocks m and n - m are complex conjugates, so only
m = 0..n/2 is solved. The total momentum is the sum of the Bethe momenta.
At 12 sites the largest ring blocks solved are 80 x 80 (m = 0 and m = 6
at half filling). An open chain's half-filling block (even n), on which the flip has
no fixed states, splits into its even and odd halves A +/- B J (see
``_flip_halves``); at 12 open sites the largest block solved is 792 x 792.
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


def _build_hamiltonian(n: int, states: np.ndarray, bonds: list[tuple[int, int]]) -> np.ndarray:
    """H on the span of ``states``, which must be ascending and closed under exchange."""
    dim = len(states)
    h = np.zeros((dim, dim))
    rows = np.arange(dim)
    for i, j in bonds:
        bi = (states >> (n - 1 - i)) & 1
        bj = (states >> (n - 1 - j)) & 1
        aligned = bi == bj
        h[rows, rows] += np.where(aligned, 0.25, -0.25)
        anti = rows[~aligned]
        flipped = states[anti] ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))
        h[np.searchsorted(states, flipped), anti] += 0.5
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


@dataclass(frozen=True)
class TranslationOrbits:
    """Orbits of one Sz sector of the n-site ring under the cyclic shift T.

    ``members`` holds sector indices grouped by orbit, orbits in ascending
    order of their representative, the smallest state of the orbit, which is
    each orbit's first member. ``shifts[i]`` is how often T maps member i
    onto its representative, and ``periods[a]`` is the period of orbit a,
    which is also its number of members.
    """

    n: int
    members: np.ndarray
    shifts: np.ndarray
    periods: np.ndarray


def translation_orbits(n: int, n_down: int) -> TranslationOrbits:
    """Orbits of ``sector_basis(n, n_down)`` under the shift of every site by one."""
    states = np.array(sector_basis(n, n_down).indices, dtype=np.int64)
    rotated = states
    representative = states
    shift = np.zeros_like(states)
    period = np.full_like(states, n)
    for r in range(1, n):
        rotated = (rotated >> 1) | ((rotated & 1) << (n - 1))
        smaller = rotated < representative
        representative = np.where(smaller, rotated, representative)
        shift = np.where(smaller, r, shift)
        period = np.where((rotated == states) & (period == n), r, period)
    is_representative = representative == states
    orbit = np.searchsorted(states[is_representative], representative)
    members = np.argsort(orbit, kind="stable")
    return TranslationOrbits(n=n, members=members, shifts=shift[members], periods=period[is_representative])


def momentum_blocks(block: np.ndarray, orbits: TranslationOrbits) -> list[np.ndarray]:
    """Blocks H_k of a ring sector for the crystal momenta k = 2 pi m / n, m = 0..n-1.

    ``block`` is the sector's ``sector_hamiltonian`` on the ring. Block m acts
    on one momentum state per representative a whose period p_a has
    m p_a = 0 (mod n), and
    <a|H_k|b> = sum over members s of orbit a of H[s, b] e^{-i k l_s} sqrt(p_b / p_a),
    with l_s the member's shift. The sums over s, for all m at once, are one
    discrete Fourier transform over the shift. Blocks m and n - m are complex
    conjugates; when 2m = 0 (mod n) every phase is +/-1 and the block is
    returned real.
    """
    n = orbits.n
    count = len(orbits.periods)
    starts = np.cumsum(orbits.periods) - orbits.periods
    columns = block[:, orbits.members[starts]][orbits.members]
    by_shift = np.zeros((count, n, count))
    by_shift[np.repeat(np.arange(count), orbits.periods), orbits.shifts] = columns
    sums = np.fft.fft(by_shift, axis=1)
    blocks = []
    for m in range(n):
        kept = np.flatnonzero(m * orbits.periods % n == 0)
        h_k = sums[kept, m][:, kept]
        if 2 * m % n == 0:
            h_k = h_k.real
        periods = orbits.periods[kept]
        blocks.append(h_k * np.sqrt(periods / periods[:, None]))
    return blocks


def _momentum_spectrum(n: int, n_down: int, block: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a ring sector, solved in its momentum blocks m = 0..n/2.

    Block n - m is the complex conjugate of block m and has its spectrum.
    """
    blocks = momentum_blocks(block, translation_orbits(n, n_down))
    parts = []
    for m in range(n // 2 + 1):
        if len(blocks[m]):
            values = np.linalg.eigvalsh(blocks[m])
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
        block = sector_hamiltonian(n, n_down, bc)
        if periodic:
            values = _momentum_spectrum(n, n_down, block)
        elif 2 * n_down == n:
            even, odd = _flip_halves(block)
            values = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
        else:
            values = np.linalg.eigvalsh(block)
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
