"""The partial-trace oracle: the reference the closed-form fidelities are checked against.

``bell_fidelity_direct`` is an independent check on the closed forms: it
embeds the Bell state over the all-down background, evolves every
excitation sector (the vacuum by its pure phase; kicks by ``kick_step``
under ``hamiltonian_tau``), partial-traces down to the receiver pair
(N-1, N) and evaluates <Omega|rho_out|Omega> directly.

``direct_family_average`` averages that oracle over any of the three input
families exactly, not by sampling.  An input c0|k0> + c1|k1> reaches the
receivers as c0*t0 + c1*t1, one row per environment configuration, and its
fidelity is a quartic form in (c0, c1).  Under the Haar measure on C^2,
E|c0|^4 = E|c1|^4 = 1/3, E|c0|^2|c1|^2 = 1/6 and every phase-unbalanced
moment vanishes, so with A, B = t0, t1 in the slot of |k0> and C, D = t0,
t1 in the slot of |k1> the family average is the moment sum

    sum_env (|A|^2 + |D|^2 + Re(A conj(D)))/3 + (|B|^2 + |C|^2)/6.

The oracle states its geometry on its own, in ``_branch_tables`` (sources,
receivers and the N >= 4 rule of the Bell pairs) and ``_FAMILY_SLOTS``,
since it is the reference the family table of ``kickedchain.fidelity`` is
checked against.  ``conformance_report`` tabulates the closed forms against
both readings.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kickedchain import (
    KNOWN_STATES,
    ChainParams,
    ExcitationBasis,
    KickSchedule,
    build_hamiltonian,
    enumerate_basis,
    index_of,
    kick_step,
    uniform_profile,
    unitary_exp,
    vacuum_energy,
)
from kickedchain.fidelity import family_score, family_sector

BELL_FAMILIES = ("omega1", "omega2")


def _abs2(z):
    """|z|^2 of a number or, elementwise, of an array."""
    return z.real * z.real + z.imag * z.imag


def vacuum_phase(params: ChainParams, t: float) -> complex:
    """Phase e^{-i E_vac t} acquired by the all-down state after time t.

    The DM term never contributes to the vacuum energy (it is purely
    off-diagonal in the excitation picture), so this phase is shared by
    continuous and kicked evolution alike.
    """
    return cmath.exp(-1j * vacuum_energy(params) * t)


@dataclass(frozen=True)
class BellInput:
    """Normalized coefficient pair for one of the Bell families.

    ``omega1`` coefficients (b, c) weight |01> and |10>; ``omega2``
    coefficients (a, d) weight |00> and |11>.
    """

    family: str
    coefficients: tuple[complex, complex]

    def __post_init__(self):
        if self.family not in BELL_FAMILIES:
            raise ValueError(f"unknown Bell family {self.family!r}; expected one of {BELL_FAMILIES}")
        c0, c1 = self.coefficients
        norm2 = _abs2(c0) + _abs2(c1)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"coefficients must be normalized; |c0|^2+|c1|^2 = {norm2}")
        object.__setattr__(self, "coefficients", (complex(c0), complex(c1)))

    @classmethod
    def maximal(cls, family: str) -> "BellInput":
        # (1+i)/2 is 1/sqrt(2) up to a global phase, and its squared
        # modulus is exactly 0.5 in floating point.
        return cls(family, (0.5 + 0.5j, 0.5 + 0.5j))


def _propagation(params: ChainParams, time: float | None = None,
                 schedule: KickSchedule | None = None):
    """``(propagator, elapsed)`` for continuous (``time``) or kicked (``schedule``) evolution.

    ``propagator(basis)`` is the evolution operator U of that sector;
    ``elapsed`` is the evolution time.  Kicked evolution is
    ``np.linalg.matrix_power`` of ``kick_step``, taken ``schedule.n_kicks``
    times, so the oracle shares no code with the kick loops it checks.
    """
    if (time is None) == (schedule is None):
        raise ValueError("specify exactly one of time= or schedule=")
    if time is not None:
        def propagator(basis: ExcitationBasis) -> np.ndarray:
            return unitary_exp(build_hamiltonian(params, basis), time)

        return propagator, float(time)

    def propagator(basis: ExcitationBasis) -> np.ndarray:
        return np.linalg.matrix_power(kick_step(params, schedule, basis), schedule.n_kicks)

    return propagator, schedule.n_kicks * schedule.tau


def _environment_tables(branches, receiver_sites) -> np.ndarray:
    """Put every branch's (config, amplitude) entries on one environment index.

    Two full-chain configurations interfere in the receivers' reduced
    density matrix only when they agree outside the receiver sites, so the
    partial trace is a sum of rank-one projectors, one per environment
    configuration.  Returns a (n_branches, n_env, 2**len(receiver_sites))
    table of receiver amplitudes, the first receiver site being the high bit.
    """
    rec = tuple(receiver_sites)
    env_index: dict[tuple, int] = {}
    located = []
    for branch, entries in enumerate(branches):
        for cfg, amp in entries:
            env = tuple(s for s in cfg if s not in rec)
            occ = 0
            for pos, site in enumerate(rec):
                if site in cfg:
                    occ |= 1 << (len(rec) - 1 - pos)
            row = env_index.setdefault(env, len(env_index))
            located.append((branch, row, occ, amp))
    tables = np.zeros((len(branches), len(env_index), 1 << len(rec)), dtype=complex)
    for branch, row, occ, amp in located:
        tables[branch, row, occ] += amp
    return tables


def _branch_tables(params: ChainParams, family: str, propagator, elapsed: float) -> np.ndarray:
    """Environment-grouped receiver tables for the two basis kets of a family.

    The input state c0|k0> + c1|k1> evolves to c0 * branch0 + c1 * branch1.
    The receivers are site N for ``omega0`` (|k0> the vacuum, |k1> an
    excitation at site 1) and the pair (N-1, N) for the Bell families,
    which need N >= 4 so that it is distinct from the sender pair (1, 2).
    ``propagator`` and ``elapsed`` describe the evolution, as
    ``_propagation`` returns them.
    """
    n = params.profile.n_sites
    if family in BELL_FAMILIES and n < 4:
        raise ValueError("sender pair (1,2) and receiver pair (N-1,N) overlap below N=4")
    if family == "omega1":
        basis = enumerate_basis(n, 1)
        u = propagator(basis)
        # |01> starts at site 2, |10> at site 1
        branches = [zip(basis.configs, u[:, index_of(basis, (2,))]),
                    zip(basis.configs, u[:, index_of(basis, (1,))])]
    elif family in ("omega0", "omega2"):
        k, source = (1, (1,)) if family == "omega0" else (2, (1, 2))
        basis = enumerate_basis(n, k)
        col = propagator(basis)[:, index_of(basis, source)]
        branches = [[((), vacuum_phase(params, elapsed))], zip(basis.configs, col)]
    else:
        raise ValueError(f"unknown input family {family!r}; expected one of {KNOWN_STATES}")
    return _environment_tables(branches, (n,) if family == "omega0" else (n - 1, n))


# receiver slots of |k0> and |k1>: |0>,|1>; |01>,|10>; |00>,|11>
_FAMILY_SLOTS = {"omega0": (0, 1), "omega1": (1, 2), "omega2": (0, 3)}


def _bell_overlap(tables: np.ndarray, bell: BellInput) -> float:
    """<Omega|rho_out|Omega> for one Bell input, from its family's branch tables."""
    t0, t1 = tables
    c0, c1 = bell.coefficients
    vectors = c0 * t0 + c1 * t1                # (n_env, 4) receiver amplitudes
    slot0, slot1 = _FAMILY_SLOTS[bell.family]
    overlap = c0.conjugate() * vectors[:, slot0] + c1.conjugate() * vectors[:, slot1]
    return float(np.sum(overlap.real ** 2 + overlap.imag ** 2))


def bell_fidelity_direct(params: ChainParams, bell: BellInput,
                         time: float | None = None,
                         schedule: KickSchedule | None = None) -> float:
    """Fidelity <Omega|rho_out|Omega> by explicit reduced-density-matrix construction.

    The Bell input lives on sites (1, 2) over the all-down background.
    Every excitation sector evolves independently (the vacuum by its pure
    phase), the receiver pair (N-1, N) is traced out of the full state and
    compared against the same Bell state relabeled onto the receivers.

    Pass either ``time`` for continuous evolution or ``schedule`` for
    ``schedule.n_kicks`` kicks under the ``hamiltonian_tau`` convention.
    """
    evolution = _propagation(params, time, schedule)
    return _bell_overlap(_branch_tables(params, bell.family, *evolution), bell)


def _family_average(tables: np.ndarray, family: str) -> float:
    """Exact Haar mean over (c0, c1) of sum_env |<psi_in|c0*t0 + c1*t1>|^2.

    Per environment the overlap is |c0|^2 A + conj(c0) c1 B + conj(c1) c0 C
    + |c1|^2 D; its mean square is the moment sum in the module docstring.
    """
    t0, t1 = tables
    slot0, slot1 = _FAMILY_SLOTS[family]
    a, b, c, d = t0[:, slot0], t1[:, slot0], t0[:, slot1], t1[:, slot1]
    per_env = ((_abs2(a) + _abs2(d) + (a * d.conj()).real) / 3.0
               + (_abs2(b) + _abs2(c)) / 6.0)
    return float(np.sum(per_env))


def direct_family_average(params: ChainParams, family: str,
                          time: float | None = None,
                          schedule: KickSchedule | None = None) -> float:
    """Exact mean of the direct fidelity over one input family.

    ``omega0`` is the qubit alpha|0> + beta|1> at site 1, read from the
    density matrix of site N (built from the vacuum branch, evolved by the
    vacuum phase, and the one-excitation branch) and averaged over the
    Bloch sphere.  The Bell families are read at the receiver pair
    (N-1, N) and averaged over Haar-random coefficient pairs.  This is the
    partial-trace check on the closed forms.  Pass ``time`` or
    ``schedule`` as for ``bell_fidelity_direct``.
    """
    evolution = _propagation(params, time, schedule)
    return _family_average(_branch_tables(params, family, *evolution), family)


# ---------------------------------------------------------------------------
# Conformance report: closed forms vs the direct oracle
# ---------------------------------------------------------------------------

def conformance_report(n_sites_values: Sequence[int] = (4, 5, 6),
                       times: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0)) -> list[dict]:
    """Tabulate the Bell closed forms against the partial-trace oracle.

    The chain is the canonical one (J1 = 1, J2 = -1, E0 = 0.1, B = 0).
    The Bell formulas are stated for general coefficients but the
    experiments transport the maximally entangled pair, and their phase
    conventions admit two readings of the final term.  Rather than pick a
    winner, every row records the literal formula value(s), the direct
    oracle at the maximally entangled point, its exact average over the
    coefficient family, and the deviations of the literal value from both.

    Row keys: n_sites, time, state, literal, literal_alt (the
    abs-amplitude reading; None for omega1), direct_maximal,
    direct_family_avg, delta_maximal, delta_family.  The literal values read
    ``family_sector`` and ``family_score``, so they check the layout and
    vacuum gauge the sweeps run.  Per (N, t) the k=1 and k=2 propagators are
    formed once and feed all three readings.
    """
    rows = []
    for n in n_sites_values:
        params = ChainParams(uniform_profile(n, 1.0, -1.0), dm_field=0.1)
        sectors = {state: family_sector(state, n) for state in BELL_FAMILIES}
        hamiltonians = {basis: build_hamiltonian(params, basis) for basis, _, _ in sectors.values()}
        e_vac = vacuum_energy(params)
        for t in times:
            u = {basis: unitary_exp(h, t) for basis, h in hamiltonians.items()}
            for state, (basis, sources, targets) in sectors.items():
                amps = u[basis][np.ix_(targets, sources)]
                literal = float(family_score(state, amps, e_vac * t, "re_amplitude"))
                literal_alt = (float(family_score(state, amps, e_vac * t, "abs_amplitude"))
                               if state == "omega2" else None)
                tables = _branch_tables(params, state, u.__getitem__, float(t))
                direct = _bell_overlap(tables, BellInput.maximal(state))
                average = _family_average(tables, state)
                rows.append({
                    "n_sites": n, "time": t, "state": state,
                    "literal": literal, "literal_alt": literal_alt,
                    "direct_maximal": direct, "direct_family_avg": average,
                    "delta_maximal": literal - direct,
                    "delta_family": literal - average,
                })
    return rows
