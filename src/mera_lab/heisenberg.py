"""Antiferromagnetic Heisenberg chains (n <= 12 sites) and their exact spectra.

H = sum over bonds of [ (S+ S- + S- S+)/2 + Sz Sz ] with spin-1/2 operators,
coupling 1 and no constant shift, so a ferromagnetic bond contributes +1/4 on
the diagonal and an antiferromagnetic one -1/4 plus an exchange element 1/2.
The matrix is real symmetric in the computational basis.

H conserves total Sz, so it is block diagonal in the number of down spins.
One term emitter, ``_hamiltonian_terms``, lists the nonzeros of H on the
columns of an ascending list of states as flat arrays, read from one table
of bonds x states: the diagonal, and one (source, image) pair per bond and
anti-aligned state, the image being the state with the bond's two spins
exchanged. One scatter, ``_scatter``, adds a list of (row, column, value)
terms to a dense diagonal with the package's one ``np.add.at``: ``hamiltonian``
on all 2^n states, ``sector_hamiltonian`` on one fixed-magnetization sector
(at most C(12, 6) = 924 states), and each symmetry block at its own size.
The ``ed`` command works one Sz sector at a time and never forms the 2^n matrix;
``ground_state`` stays dense because its callers need the full state vector,
and it refuses a degenerate ground state, whose vector would be arbitrary.
The periodic four-site ring, which every circuit path uses, is built and
diagonalized once per process by ``four_site_ring``, from ``hamiltonian(4)``
and ``ground_state(4)``; it is the package's one per-process cache.

``sector_spectra`` uses the global spin flip and a cyclic site symmetry g
(Sandvik, AIP Conf. Proc. 1297, 135 (2010)). Flipping every spin complements
the bits of a state, which maps the ascending basis of sector k onto that of
sector n - k in reverse order, and keeps every bond's alignment; so the
n - k block is the k block with rows and columns reversed, exactly, and only
sectors k <= n/2 are solved. On the ring g shifts every site by one and has
order n; on an open chain g reverses the sites, i <-> n - 1 - i, and has
order 2. Either commutes with H, and each sector splits into blocks m, one
state per orbit of g: crystal momenta k = 2 pi m / n on the ring, the
reflection-even (m = 0) and reflection-odd (m = 1) states on an open chain.
``_orbits`` is the one place that knows g and its order N: one table of
g^r of a sector's states gives each state's orbit. ``symmetry_blocks`` runs
the emitter on the orbits' representatives only and reads each image's orbit
from that table, so no dense sector block is formed, and scatters each block
m once from the terms between the states it keeps, so no block is larger
than its states. Blocks m and N - m are complex conjugates, so only
m = 0..N/2 is solved. On the ring the total
momentum is the sum of the Bethe momenta. At 12 sites the largest block
solved is 80 x 80 on the ring (m = 0 and m = 6 at half filling) and
472 x 472 on an open chain (the reflection-even half-filling block).
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .errors import DomainError, NumericError, ResourceError, check_integer

MAX_SITES = 12

#: Levels within this multiple of max(1, |E0|) above the ground level E0 count as degenerate with it.
_DEGENERACY_TOLERANCE = 1e-10


class BoundaryCondition(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise DomainError(f"boundary {value!r} is neither 'open' nor 'periodic'")


def check_site_count(n: int) -> None:
    """Raise :class:`DomainError` unless n is an integer, :class:`ResourceError` unless 2 <= n <= MAX_SITES, the one limit."""
    check_integer(n, "site count")
    if not 2 <= n <= MAX_SITES:
        raise ResourceError(f"site count {n} outside the supported range 2..{MAX_SITES}")


def _hamiltonian_terms(
    n: int, states: np.ndarray, bc: BoundaryCondition | str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of H on the columns ``states`` (ascending): (diagonal, sources, images).

    The bonds are (i, i + 1), and (n - 1, 0) on the ring.  One bonds x states
    table marks the anti-aligned pairs.  There is one exchange term per
    bond and anti-aligned state, bond-major in the table's row-major order:
    ``sources`` holds the state's position in ``states`` and ``images`` the
    state its two spins exchange into; each image has the element 1/2 in its
    source's column.
    """
    sites = np.arange(n if BoundaryCondition(bc) is BoundaryCondition.PERIODIC else n - 1)
    masks = (1 << (n - 1 - sites)) | (1 << (n - 1 - (sites + 1) % n))
    anti = np.bitwise_count(states & masks[:, None]) == 1
    diagonal = 0.25 * (len(masks) - 2 * np.count_nonzero(anti, axis=0))
    bonds, sources = np.nonzero(anti)
    return diagonal, sources, states[sources] ^ masks[bonds]


def _scatter(diagonal: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray | float) -> np.ndarray:
    """``np.diag(diagonal)`` in the result type of both operands, plus ``values`` added at (rows, cols) in order."""
    h = np.diag(diagonal).astype(np.result_type(diagonal, values), copy=False)
    np.add.at(h, (rows, cols), values)
    return h


def _build_hamiltonian(n: int, states: np.ndarray, bc: BoundaryCondition | str) -> np.ndarray:
    """H on the span of ``states``, which must be ascending and closed under exchange."""
    diagonal, sources, images = _hamiltonian_terms(n, states, bc)
    return _scatter(diagonal, np.searchsorted(states, images), sources, 0.5)


def hamiltonian(n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC) -> np.ndarray:
    """Dense 2^n x 2^n Heisenberg Hamiltonian; real symmetric."""
    check_site_count(n)
    return _build_hamiltonian(n, np.arange(1 << n), bc)


def sector_basis(n: int, n_down: int) -> np.ndarray:
    """All basis states with exactly ``n_down`` down spins, as an ascending int64 array."""
    check_site_count(n)
    check_integer(n_down, "down-spin count")
    if not 0 <= n_down <= n:
        raise DomainError(f"down-spin count {n_down} invalid for {n} sites")
    return np.flatnonzero(np.bitwise_count(np.arange(1 << n)) == n_down)


def sector_hamiltonian(
    n: int, n_down: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC
) -> np.ndarray:
    """Block of H with ``n_down`` down spins, in ``sector_basis`` order; real symmetric."""
    return _build_hamiltonian(n, sector_basis(n, n_down), bc)


def _orbits(n: int, states: np.ndarray, bc: BoundaryCondition | str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Order N of the site symmetry g of ``bc``, and each state's orbit under g: (N, representative, shift, period).

    On the ring g shifts every site by one, the last to the front, and has
    order n; on an open chain g reverses the sites, i <-> n - 1 - i, and has
    order 2.  Row r of one table of N x len(states) entries holds g^r of
    every state.  The representative is the smallest state of the orbit (the
    column minimum), the shift the fewest applications of g that map the
    state onto it (the first row that holds it), and the period the orbit's
    number of members (N over the number of rows that hold the state).
    """
    if BoundaryCondition(bc) is BoundaryCondition.PERIODIC:
        r = np.arange(n)[:, None]
        images = ((states >> r) | (states << (n - r))) & ((1 << n) - 1)
    else:
        sites = np.arange(n)
        bits = (states[:, None] >> sites) & 1
        images = np.stack([states, (bits << (n - 1 - sites)).sum(axis=1)])
    order = len(images)
    period = order // np.count_nonzero(images == states, axis=0)
    return order, images.min(axis=0), images.argmin(axis=0), period


def symmetry_blocks(n: int, n_down: int, bc: BoundaryCondition | str) -> list[np.ndarray]:
    """Blocks H_m, m = 0..N/2, of Sz sector ``n_down`` under the site symmetry g of ``bc``.

    g has order N (see ``_orbits``). On the ring block m holds crystal
    momentum k = 2 pi m / n; on an open chain block 0 is reflection-even and
    block 1 reflection-odd. Block m acts on one symmetric state per orbit
    representative a whose period p_a has m p_a = 0 (mod N), in ascending
    order of a. H is built on the representatives only: the diagonal of H is
    that of every block, and an exchange image of a that l applications of g
    map onto representative b adds 1/2 e^{-2 pi i m l / N} sqrt(p_a / p_b)
    to <b|H_m|a>. Block N - m is the complex conjugate of block m and is not
    returned. Every phase is read from one table of the N-th roots of unity;
    when 2m = 0 (mod N) each is +/-1, whose table entries have real parts
    exactly +/-1.0, and the block is assembled real from those; every other
    block is complex. Each block is scattered once, at its own size, from the
    terms whose source and target it keeps, with the phases of those terms only.
    """
    states = sector_basis(n, n_down)
    order, representative, shift, period = _orbits(n, states, bc)
    is_representative = representative == states
    representatives, periods = states[is_representative], period[is_representative]
    diagonal, sources, images = _hamiltonian_terms(n, representatives, bc)
    # Every image lies in the sector, so its orbit is read from the sector's table.
    at = np.searchsorted(states, images)
    shifts = shift[at]
    targets = np.searchsorted(representatives, representative[at])
    weights = 0.5 * np.sqrt(periods[sources] / periods[targets])
    roots = np.exp(-2j * np.pi * np.arange(order) / order)
    blocks = []
    for m in range(order // 2 + 1):
        kept = m * periods % order == 0
        position = np.cumsum(kept) - 1
        terms = kept[sources] & kept[targets]
        phases = roots[m * shifts[terms] % order]
        if 2 * m % order == 0:
            phases = phases.real
        blocks.append(_scatter(diagonal[kept], position[targets[terms]], position[sources[terms]], weights[terms] * phases))
    return blocks


def sector_spectra(n: int, bc: BoundaryCondition | str = BoundaryCondition.PERIODIC) -> list[np.ndarray]:
    """Ascending spectra of all n + 1 Sz sectors, indexed by down-spin count.

    Only the sectors n_down <= n/2 are diagonalized: sector n - k is sector k
    under the spin flip and shares its read-only array. Each is solved in its
    blocks under the site symmetry of ``bc`` (see ``symmetry_blocks``); a
    complex block m also stands for its conjugate block N - m, whose
    spectrum is the same.
    """
    check_site_count(n)
    solved = []
    for n_down in range(n // 2 + 1):
        parts = []
        for h_m in symmetry_blocks(n, n_down, bc):
            if len(h_m):
                values = np.linalg.eigvalsh(h_m)
                parts.extend([values] if np.isrealobj(h_m) else [values, values])
        values = np.sort(np.concatenate(parts))
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
    values, vectors = np.linalg.eigh(hamiltonian(n, bc))
    count = ground_degeneracy(values)
    if count > 1:
        raise NumericError(f"ground state is {count}-fold degenerate at E0 = {values[0]:.12f}; no unique state vector")
    state = vectors[:, 0].astype(complex)
    state = state / np.linalg.norm(state)
    return float(values[0]), _fix_phase(state)


def ground_degeneracy(levels: np.ndarray) -> int:
    """How many of ``levels`` lie within _DEGENERACY_TOLERANCE * max(1, |E0|) of their minimum E0.

    No levels raise :class:`DomainError`; a non-finite level raises :class:`NumericError`.
    """
    if not np.size(levels):
        raise DomainError("the ground degeneracy of no levels is undefined")
    if not np.isfinite(levels).all():
        raise NumericError("a non-finite level leaves the ground degeneracy undefined")
    e0 = float(np.min(levels))
    return int(np.count_nonzero(levels <= e0 + _DEGENERACY_TOLERANCE * max(1.0, abs(e0))))


@functools.cache
def four_site_ring() -> tuple[np.ndarray, float, np.ndarray]:
    """(H, E0, ground state) of the periodic four-site ring, built once per process.

    The optimizers, the check suite, the report and the CLI share these
    arrays, so they are read-only.  They are ``hamiltonian(4)`` and
    ``ground_state(4)``.
    """
    h = hamiltonian(4)
    energy, ground = ground_state(4)
    h.setflags(write=False)
    ground.setflags(write=False)
    return h, energy, ground
