"""Exact unitary evolution within one excitation sector.

Sector dimensions never exceed a few tens here, so every propagator is
built from a full Hermitian eigendecomposition, U = V e^{-i lambda t} V+.
That keeps unitarity at round-off level and gives the spectrum for free.

Kicked driving alternates free evolution under the static Hamiltonian H0
for an interval tau with an instantaneous chirality kick of amplitude e1,
so one period is U = U1 U0 and the state after m kicks is U^m |psi(0)>,
read out just after the kick.

How the lattice search runs: every kicked result, from one amplitude
series to a full tau x kick lattice, comes from one kick loop, driven by
``kick_lattice``.  Per call it builds H0 and D and diagonalises each once,
forms U1 U0(tau) for a stack of taus at once, and advances the whole stack
by one kick per ``np.matmul``.  Target amplitudes are gathered over chunks
of kicks and scored a chunk at a time.  Two fixed byte budgets bound the
memory: the step stack of one tau chunk, and one chunk of amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import ExcitationBasis, index_of
from .model import ChainParams, build_hamiltonian, chirality_operator

__all__ = [
    "KickSchedule",
    "UnitaryPropagator",
    "StateVector",
    "eigendecompose",
    "unitary_exp",
    "kick_step",
    "kick_lattice",
    "kicked_columns",
    "evolve_kicked",
    "amplitude_series",
    "U0_CONVENTIONS",
]

# How the static stretch of one kick period is exponentiated:
#   "hamiltonian_tau": U0 = exp(-i H0 tau) with tau multiplying all of H0,
#       including the static field e0 (free evolution over the interval).
#   "literal_eq5": tau multiplies only the exchange and magnetic terms while
#       the e0 chirality term enters with unit weight, for comparison.
U0_CONVENTIONS = ("hamiltonian_tau", "literal_eq5")

# Memory budgets of the kick loop: a tau chunk holds as many Floquet steps
# as fit in the first, and a chunk of gathered target amplitudes spans as
# many kicks as fit in the second.
_STEP_STACK_BYTES = 256 * 1024
_AMPLITUDE_BLOCK_BYTES = 64 * 1024
_COMPLEX_BYTES = np.dtype(complex).itemsize


@dataclass(frozen=True)
class KickSchedule:
    """Drive parameters: kick interval tau, static field e0, kick amplitude e1, kick budget."""

    tau: float
    e0: float = 0.0
    e1: float = 0.0
    n_kicks: int = 1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"kick interval must be positive, got {self.tau}")
        if self.n_kicks < 0:
            raise ValueError(f"kick count must be non-negative, got {self.n_kicks}")


@dataclass(frozen=True)
class UnitaryPropagator:
    """Dense unitary on a fixed sector."""

    matrix: np.ndarray
    sector: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over an ExcitationBasis."""

    amplitudes: np.ndarray
    sector: tuple[int, int] | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-10")
        object.__setattr__(self, "amplitudes", amps)


def eigendecompose(h: np.ndarray, hermiticity_tol: float = 1e-12):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Rejects matrices whose Hermiticity defect exceeds ``hermiticity_tol``
    rather than silently symmetrizing them.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if defect > hermiticity_tol:
        raise ValueError(f"matrix is not Hermitian (max|H - H^+| = {defect:.3e})")
    return np.linalg.eigh(h)


def _exp_matrix(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h; t = 0 short-circuits to the exact identity."""
    if t == 0.0:
        return np.eye(h.shape[0], dtype=complex)
    w, v = eigendecompose(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def unitary_exp(h: np.ndarray, t: float,
                sector: tuple[int, int] | None = None) -> UnitaryPropagator:
    """Continuous-evolution propagator exp(-i h t)."""
    u = _exp_matrix(np.asarray(h, dtype=complex), t)
    return UnitaryPropagator(u, sector=sector)


def _floquet_builder(params: ChainParams, basis: ExcitationBasis, e0: float, e1: float,
                     u0_convention: str):
    """Return ``taus -> stack of U1 U0(tau)`` with every tau-independent factor built once.

    The static Hamiltonian is built with the background field ``e0``
    (overriding ``params.dm_field``); the kick is exp(-i e1 D) with D the
    bare chirality operator in the same sector.  Under "hamiltonian_tau",
    H0 = V diag(w) V+ is diagonalised once and U0(tau) = V e^{-i w tau} V+
    for a whole stack of taus; "literal_eq5" mixes tau into the matrix it
    exponentiates, so it keeps one eigendecomposition per tau.
    """
    if u0_convention not in U0_CONVENTIONS:
        raise ValueError(
            f"unknown u0_convention {u0_convention!r}; expected one of {U0_CONVENTIONS}"
        )
    d = chirality_operator(basis)
    u1 = _exp_matrix(d, e1)
    if u0_convention == "hamiltonian_tau":
        w, v = eigendecompose(build_hamiltonian(replace(params, dm_field=e0), basis))
        vh = v.conj().T

        def steps(taus: np.ndarray) -> np.ndarray:
            phases = np.exp(-1j * np.multiply.outer(taus, w))
            return np.matmul(u1, (v * phases[:, None, :]) @ vh)
    else:
        # tau weights only the field-free part; the e0 term enters bare.
        h_static = build_hamiltonian(replace(params, dm_field=0.0), basis)

        def steps(taus: np.ndarray) -> np.ndarray:
            return np.stack([u1 @ _exp_matrix(tau * h_static + e0 * d, 1.0) for tau in taus])
    return steps


def kick_step(params: ChainParams, schedule: KickSchedule, basis: ExcitationBasis,
              u0_convention: str = "hamiltonian_tau") -> UnitaryPropagator:
    """One Floquet period U1 U0: free evolution for tau, then a chirality kick.

    The static Hamiltonian is built with the schedule's background field
    ``e0`` (overriding ``params.dm_field``); the kick is exp(-i e1 D) with
    D the bare chirality operator in the same sector.
    """
    build = _floquet_builder(params, basis, schedule.e0, schedule.e1, u0_convention)
    step = build(np.array([schedule.tau]))[0]
    return UnitaryPropagator(step, sector=(basis.n_sites, basis.n_excitations))


def _stroboscopic_blocks(steps: np.ndarray, cols: np.ndarray, targets, m_max: int):
    """The kick loop: every step of the stack is applied once per kick.

    ``steps`` is (n_tau, dim, dim) and ``cols`` the (n_tau, dim, n_src)
    starting columns.  Yields ``(m0, block)`` where block[t, j] holds rows
    ``targets`` of steps[t]^(m0 + j) @ cols[t], covering m = 0..m_max in
    chunks of kicks sized to _AMPLITUDE_BLOCK_BYTES.  The block buffer is
    reused: a consumer must be done with one block before taking the next.
    """
    n_tau, _, n_src = cols.shape
    m_chunk = _AMPLITUDE_BLOCK_BYTES // (_COMPLEX_BYTES * n_tau * len(targets) * n_src)
    block = np.empty((n_tau, min(max(1, m_chunk), m_max + 1), len(targets), n_src),
                     dtype=complex)
    m0 = 0
    for m in range(m_max + 1):
        if m:
            cols = np.matmul(steps, cols)
        block[:, m - m0] = cols[:, targets, :]
        if m - m0 + 1 == block.shape[1] or m == m_max:
            yield m0, block[:, : m - m0 + 1]
            m0 = m + 1


def kick_lattice(params: ChainParams, basis: ExcitationBasis, taus, e0: float, e1: float,
                 sources, targets, m_max: int, score,
                 u0_convention: str = "hamiltonian_tau") -> np.ndarray:
    """Score every (kick interval, kick count) cell of the stroboscopic lattice.

    Starting from the basis states at sector indices ``sources``, the
    amplitudes onto sector indices ``targets`` after m = 0..m_max Floquet
    periods are computed for every tau and passed to ``score(amps, taus,
    ms)`` a chunk at a time: ``amps`` is (len(taus), len(ms), len(targets),
    len(sources)) and the returned array is (len(taus), len(ms)).  Returns
    the (len(taus), m_max + 1) lattice, in the dtype ``score`` returns.

    H0 and D are diagonalised once per call, however many taus there are;
    taus are stepped in stacks sized to _STEP_STACK_BYTES.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError(f"expected a nonempty 1-d tau grid, got shape {taus.shape}")
    if np.any(taus <= 0):
        raise ValueError("kick intervals must be positive")
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    build = _floquet_builder(params, basis, e0, e1, u0_convention)
    targets = np.asarray(targets, dtype=int)
    tau_chunk = max(1, _STEP_STACK_BYTES // (_COMPLEX_BYTES * basis.size ** 2))
    lattice = None
    for t0 in range(0, taus.size, tau_chunk):
        chunk = taus[t0:t0 + tau_chunk]
        cols = np.zeros((chunk.size, basis.size, len(sources)), dtype=complex)
        cols[:, sources, np.arange(len(sources))] = 1.0
        for m0, amps in _stroboscopic_blocks(build(chunk), cols, targets, m_max):
            values = score(amps, chunk, np.arange(m0, m0 + amps.shape[1]))
            if lattice is None:
                lattice = np.empty((taus.size, m_max + 1), dtype=values.dtype)
            lattice[t0:t0 + chunk.size, m0:m0 + amps.shape[1]] = values
    return lattice


def kicked_columns(step: np.ndarray, cols: np.ndarray, n_kicks: int) -> np.ndarray:
    """step^n_kicks @ cols for a (dim, dim) step and (dim, n) columns, through the kick loop."""
    if n_kicks < 0:
        raise ValueError(f"kick count must be non-negative, got {n_kicks}")
    cols = np.asarray(cols, dtype=complex)
    for _, block in _stroboscopic_blocks(step[None], cols[None], np.arange(cols.shape[0]),
                                         n_kicks):
        pass
    return block[0, -1].copy()


def evolve_kicked(step: UnitaryPropagator, n_kicks: int, psi0: StateVector) -> StateVector:
    """Apply the kick-period propagator n_kicks times."""
    if step.sector is not None and psi0.sector is not None and step.sector != psi0.sector:
        raise ValueError(f"sector mismatch: step {step.sector} vs state {psi0.sector}")
    if step.matrix.shape[0] != psi0.amplitudes.shape[0]:
        raise ValueError("propagator and state dimensions differ")
    amps = kicked_columns(step.matrix, psi0.amplitudes[:, None], n_kicks)[:, 0]
    return StateVector(amps, sector=psi0.sector)


def amplitude_series(params: ChainParams, schedule: KickSchedule, basis: ExcitationBasis,
                     source, target, m_max: int,
                     u0_convention: str = "hamiltonian_tau") -> np.ndarray:
    """Stroboscopic transition amplitudes <target|(U1 U0)^m|source>, m = 0..m_max."""
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    src = index_of(basis, source)
    tgt = index_of(basis, target)
    return kick_lattice(params, basis, (schedule.tau,), schedule.e0, schedule.e1,
                        [src], [tgt], m_max, lambda amps, taus, ms: amps[..., 0, 0],
                        u0_convention=u0_convention)[0]
