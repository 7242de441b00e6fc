"""Exact unitary evolution within one excitation sector.

Sector dimensions never exceed a few tens here, so every propagator is
built from a full Hermitian eigendecomposition, U = V e^{-i lambda t} V+.
That keeps unitarity at round-off level and gives the spectrum for free.

Kicked driving alternates free evolution under the static Hamiltonian H0,
whose DM term carries the static field ``ChainParams.dm_field``, for an
interval tau with an instantaneous chirality kick of amplitude e1,
so one period is U = U1 U0 and the state after m kicks is U^m |psi(0)>,
read out just after the kick.

How the lattice search runs: every kicked result, from one fidelity
series to a full tau x kick lattice, comes from ``kick_lattice``.  Per call
it builds H0 and D and diagonalises each once, works out B, and scores the
chunks of whichever of two kick loops issues fewer matrix products.

* The blocked loop (``_stroboscopic_blocks``) advances the steps U1 U0(tau)
  of one tau stack B kicks per iteration, B the power of two nearest
  sqrt(m_max + 1): it builds the target rows of step^r for r < B and
  step^B once, and each iteration reads B kicks' target amplitudes off one
  batched product of those rows with the current columns before advancing
  the columns by step^B.  Per stack that is B - 1 + log2(B) products up
  front and two per iteration but the first, so m_max kicks take
  O(sqrt(m_max)) products, with no eigendecomposition of the non-Hermitian
  step.
* The eigenbasis loop (``_eigenbasis_blocks``, "hamiltonian_tau" only) is
  the split-step scheme of the quantum kicked rotor: with H0 = V diag(w) V+
  and y = V+ x, one kick is y <- K (e^{-i w tau} y), and K = V+ U1 V is
  the same for every tau.  The whole tau grid advances as one matrix, so
  a kick is one phase multiply and one product, plus one product to read
  the targets: 2 m_max products in all.

A lattice over many taus whose sector leaves one or a few taus per stack
takes the eigenbasis loop: at N = 10 on the 100-tau grid with 500 kicks,
omega2 (dim 45) needs 8 200 products blocked and 1 000 in the eigenbasis,
and one lattice, in-process on one core of a 2-core machine, took 68-69 ms
instead of 124-137 ms.  omega0 and omega1 (164 and 246 blocked), every
single-tau series (82 at 500 kicks, 2 520 at 20 000 for omega2) and
"literal_eq5" stay on the blocked loop.  Amplitudes
are scored a chunk of kicks at a time.  Two fixed byte budgets bound the
memory: one stack of taus with their steps and row stacks (B is halved
until one tau fits), and one chunk (``_per_chunk``), the same for every
scored loop, the kick-free series of ``sweep`` included.  Chunk size
changes no output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ExcitationBasis
from .model import (ChainParams, FieldError, _require_choice, _require_count, _require_finite,
                    _require_grid, build_hamiltonian, chirality_operator)

__all__ = [
    "KickSchedule",
    "eigendecompose",
    "unitary_exp",
    "kick_step",
    "kick_lattice",
    "U0_CONVENTIONS",
]

# How the static stretch of one kick period is exponentiated (the first is the default):
#   "hamiltonian_tau": U0 = exp(-i H0 tau) with tau multiplying all of H0,
#       including the static field dm_field (free evolution over the interval).
#   "literal_eq5": tau multiplies only the exchange and magnetic terms while
#       the dm_field chirality term enters with unit weight, for comparison.
U0_CONVENTIONS = ("hamiltonian_tau", "literal_eq5")

# Memory budgets: a tau stack holds as many Floquet steps, each with its
# stack of target rows, as fit in the first (so it sets B, and with it the
# rounding), and every scored loop takes as many items per chunk as fit in
# the second (``_per_chunk``).
_STEP_STACK_BYTES = 256 * 1024
_CHUNK_BYTES = 384 * 1024
_COMPLEX_BYTES = np.dtype(complex).itemsize
# Largest |H - H^+| entry eigendecompose accepts.
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class KickSchedule:
    """Drive parameters: kick interval tau, kick amplitude e1, kick budget.

    The static field the kicks ride on is ``ChainParams.dm_field``.  ``e1``
    defaults to 0.0, the kick-free drive, while ``fidelity_lattice``,
    ``max_fidelity``, ``SweepPlan`` and the config's ``drive.e1`` default to 1.0.
    """

    tau: float
    e1: float = 0.0
    n_kicks: int = 1

    def __post_init__(self):
        _require_finite(self, "tau", "e1")
        if self.tau <= 0:
            raise FieldError("tau", f"kick interval must be positive, got {self.tau}")
        _require_count("n_kicks", self.n_kicks)


def eigendecompose(h: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Rejects matrices whose Hermiticity defect exceeds _HERMITICITY_TOL or
    is NaN rather than silently symmetrizing them.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise FieldError("h", f"expected a square matrix, got shape {h.shape}")
    defect = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if not defect <= _HERMITICITY_TOL:
        raise FieldError("h", f"matrix is not Hermitian (max|H - H^+| = {defect:.3e})")
    return np.linalg.eigh(h)


def unitary_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h; t = 0 short-circuits to the exact identity."""
    h = np.asarray(h, dtype=complex)
    if t == 0.0:
        return np.eye(h.shape[0], dtype=complex)
    w, v = eigendecompose(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _hamiltonian_tau_factors(params: ChainParams, basis: ExcitationBasis, e1: float):
    """(w, v, u1) with H0 = v diag(w) v+ and U1 = exp(-i e1 D)."""
    w, v = eigendecompose(build_hamiltonian(params, basis))
    return w, v, unitary_exp(chirality_operator(basis), e1)


def _floquet_builder(params: ChainParams, basis: ExcitationBasis, e1: float,
                     u0_convention: str):
    """Return ``taus -> stack of U1 U0(tau)`` with every tau-independent factor built once.

    The static Hamiltonian H0 is ``params``' own, its DM term carrying the
    field ``params.dm_field``; the kick is exp(-i e1 D) with D the bare
    chirality operator in the same sector.  Under "hamiltonian_tau",
    H0 = V diag(w) V+ is diagonalised once and U0(tau) = V e^{-i w tau} V+
    for a whole stack of taus; "literal_eq5" mixes tau into the matrix it
    exponentiates, so it keeps one eigendecomposition per tau.
    """
    _require_choice("u0_convention", u0_convention, U0_CONVENTIONS)
    if u0_convention == "hamiltonian_tau":
        w, v, u1 = _hamiltonian_tau_factors(params, basis, e1)
        vh = v.conj().T

        def steps(taus: np.ndarray) -> np.ndarray:
            phases = np.exp(-1j * np.multiply.outer(taus, w))
            return np.matmul(u1, (v * phases[:, None, :]) @ vh)
    else:
        # tau weights only the field-free part; the dm_field term enters bare.
        d = chirality_operator(basis)
        u1 = unitary_exp(d, e1)
        h_static = build_hamiltonian(replace(params, dm_field=0.0), basis)
        h_field = params.dm_field * d

        def steps(taus: np.ndarray) -> np.ndarray:
            return np.stack([u1 @ unitary_exp(tau * h_static + h_field, 1.0) for tau in taus])
    return steps


def kick_step(params: ChainParams, schedule: KickSchedule, basis: ExcitationBasis,
              u0_convention: str = U0_CONVENTIONS[0]) -> np.ndarray:
    """One Floquet period U1 U0: free evolution for tau, then a chirality kick.

    The static Hamiltonian is ``params``' own, with the field
    ``params.dm_field``; the kick is exp(-i e1 D) with D the bare
    chirality operator in the same sector.
    """
    return _floquet_builder(params, basis, schedule.e1, u0_convention)(
        np.array([schedule.tau]))[0]


def _per_chunk(item_bytes: int, multiple: int = 1) -> int:
    """Items per chunk: whole groups of ``multiple`` items that fit in _CHUNK_BYTES, at least one."""
    return multiple * max(1, _CHUNK_BYTES // (item_bytes * multiple))


def _interval_bytes(dim: int, n_targets: int, b: int) -> int:
    """Bytes the kick loop holds per kick interval: its step and its B target rows."""
    return _COMPLEX_BYTES * dim * (dim + b * n_targets)


def _kicks_per_iteration(m_max: int, dim: int, n_targets: int) -> int:
    """B, the kicks one iteration of the kick loop advances.

    B is the power of two nearest sqrt(m_max + 1) on a log scale, which
    balances the B row products built up front against the (m_max + 1) / B
    iterations, halved until one kick interval fits in _STEP_STACK_BYTES.
    """
    b = 1 << round(math.log2(m_max + 1) / 2)
    while b > 1 and _interval_bytes(dim, n_targets, b) > _STEP_STACK_BYTES:
        b //= 2
    return b


def _stroboscopic_blocks(steps: np.ndarray, sources, targets, m_max: int, b: int):
    """The kick loop: every step of the stack is applied m = 0..m_max times, B kicks at a time.

    ``steps`` is (n_tau, dim, dim) and ``b`` is B.  Yields ``(m0, block)``
    where block[t, j] holds rows ``targets`` of steps[t]^(m0 + j) @ cols,
    with cols the unit columns ``sources``, covering m = 0..m_max.

    The target rows of steps^r for r < B are built once, by repeated
    multiplication, and steps^B by squaring.  Each iteration then gives
    kicks m..m+B-1 as one product of that row stack with x = steps^m @ cols,
    and advances x by steps^B.  A block spans as many whole iterations of
    kick amplitudes as fit in one chunk, and at least one.  The block buffer
    is reused: a consumer must be done with one block before taking the next.
    """
    n_tau, dim = steps.shape[:2]
    n_src, n_tgt = len(sources), len(targets)
    cols = np.zeros((n_tau, dim, n_src), dtype=complex)
    cols[:, sources, np.arange(n_src)] = 1.0
    rows = np.empty((n_tau, b, n_tgt, dim), dtype=complex)
    rows[:, 0] = np.eye(dim)[targets]
    for r in range(1, b):
        rows[:, r] = np.matmul(rows[:, r - 1], steps)
    rows = rows.reshape(n_tau, b * n_tgt, dim)
    leap = steps
    for _ in range(b.bit_length() - 1):
        leap = np.matmul(leap, leap)
    per_block = _per_chunk(_COMPLEX_BYTES * n_tau * n_tgt * n_src, b)
    block = np.empty((n_tau, min(per_block, m_max + 1), n_tgt, n_src), dtype=complex)
    m0 = 0
    for m in range(0, m_max + 1, b):
        if m:
            cols = np.matmul(leap, cols)
        j, k = m - m0, min(b, m_max + 1 - m)
        block[:, j:j + k] = np.matmul(rows[:, :k * n_tgt], cols).reshape(n_tau, k, n_tgt, n_src)
        if j + k == block.shape[1] or m + k > m_max:
            yield m0, block[:, :j + k]
            m0 = m + k


def _eigenbasis_blocks(params: ChainParams, basis: ExcitationBasis, taus: np.ndarray,
                       e1: float, sources, targets, m_max: int):
    """The lattice loop in the eigenbasis of H0, for the "hamiltonian_tau" convention.

    With H0 = V diag(w) V+ and y = V+ x, one kick is y <- K (Phi(tau) y),
    where Phi(tau) = e^{-i w tau} and K = V+ U1 V is the same for every
    tau.  All taus advance together as the rows of one (n_tau * n_src, dim)
    matrix, so a kick is one phase multiply and one product with K^T.  The
    target amplitudes are read as rows @ V[targets]^T, one product per chunk
    of kicks, a kick holding its rows and their amplitudes.  Yields
    ``(m0, block)`` with block[t, j] the rows ``targets`` of
    (U1 U0(taus[t]))^(m0 + j) applied to the columns ``sources``, covering
    m = 0..m_max; column m = 0 is the exact untouched input.  The block
    buffer is reused, as in ``_stroboscopic_blocks``.
    """
    w, v, u1 = _hamiltonian_tau_factors(params, basis, e1)
    vh = v.conj().T
    kick_t = (vh @ u1 @ v).T
    n_tau, n_src, n_tgt = taus.size, len(sources), len(targets)
    phases = np.repeat(np.exp(-1j * np.multiply.outer(taus, w)), n_src, axis=0)
    read = v[targets].T
    width = min(m_max + 1, _per_chunk(_COMPLEX_BYTES * n_tau * n_src * (basis.size + n_tgt)))
    ys = np.empty((width, n_tau * n_src, basis.size), dtype=complex)
    ys[0] = np.tile(vh[:, sources].T, (n_tau, 1))      # row (tau, s) holds V+ e_s
    y = ys[0]
    for m0 in range(0, m_max + 1, width):
        k = min(width, m_max + 1 - m0)
        for j in range(1 if m0 == 0 else 0, k):
            y = np.matmul(y * phases, kick_t, out=ys[j])
        amps = (ys[:k].reshape(-1, basis.size) @ read).reshape(k, n_tau, n_src, n_tgt)
        block = amps.transpose(1, 0, 3, 2)
        if m0 == 0:
            block[:, 0] = np.eye(basis.size)[np.ix_(targets, sources)]
        yield m0, block


def kick_lattice(params: ChainParams, basis: ExcitationBasis, taus, e1: float,
                 sources, targets, m_max: int, score,
                 u0_convention: str = U0_CONVENTIONS[0]) -> np.ndarray:
    """Score every (kick interval, kick count) cell of the stroboscopic lattice.

    Starting from the basis states at sector indices ``sources``, the
    amplitudes onto sector indices ``targets`` after m = 0..m_max Floquet
    periods are computed for every tau and passed to ``score(amps, taus,
    ms)`` a chunk at a time: ``amps`` is (len(taus), len(ms), len(targets),
    len(sources)) and the returned array is (len(taus), len(ms)).  Returns
    the (len(taus), m_max + 1) lattice, in the dtype ``score`` returns.
    ``taus`` must pass the one grid rule, ``model._require_grid`` (FieldError
    on ``tau_grid``): 1-d, nonempty, finite, strictly increasing, positive.

    Of the two kick loops, the one that issues fewer matrix products runs.
    The blocked loop walks stacks of taus whose steps and target-row stacks
    fit in _STEP_STACK_BYTES (at least one tau per stack), each making B - 1
    row products, log2(B) squarings and two products per iteration but the
    first; the eigenbasis loop, "hamiltonian_tau" only, makes two per kick
    for every tau at once.  The loop is chosen for the whole grid and the
    two loops round differently, so a cell's value can depend on the rest of
    its grid: at N = 10, J2/J1 = -1, e1 = 1 and 500 kicks, the omega1 lattice
    runs blocked on tau 0.1..10 step 0.1 and in the eigenbasis on step 0.02,
    and 49 725 of the 50 100 cells the two grids share differ, by up to 3.4e-14.
    """
    taus = np.array(_require_grid("tau_grid", taus, positive=True))
    _require_count("m_max", m_max)
    targets = np.asarray(targets, dtype=int)
    b = _kicks_per_iteration(m_max, basis.size, targets.size)
    tau_chunk = max(1, _STEP_STACK_BYTES // _interval_bytes(basis.size, targets.size, b))
    n_stacks = -(-taus.size // tau_chunk)
    blocked_products = n_stacks * (b - 1 + b.bit_length() - 1 + 2 * -(-(m_max + 1) // b) - 1)
    if u0_convention == "hamiltonian_tau" and 2 * m_max < blocked_products:
        stacks = [(0, _eigenbasis_blocks(params, basis, taus, e1, sources, targets, m_max))]
    else:
        build = _floquet_builder(params, basis, e1, u0_convention)
        stacks = ((t0, _stroboscopic_blocks(build(taus[t0:t0 + tau_chunk]), sources, targets,
                                            m_max, b))
                  for t0 in range(0, taus.size, tau_chunk))
    lattice = None
    for t0, blocks in stacks:
        for m0, amps in blocks:
            values = score(amps, taus[t0:t0 + amps.shape[0]], np.arange(m0, m0 + amps.shape[1]))
            if lattice is None:
                lattice = np.empty((taus.size, m_max + 1), dtype=values.dtype)
            lattice[t0:t0 + amps.shape[0], m0:m0 + amps.shape[1]] = values
    return lattice
