"""Transfer fidelities for the kicked chain.

Three input families are scored:

* ``omega0``: a single qubit injected at site 1 and read at site N.  The
  input-averaged fidelity has the closed form F = |f| cos(gamma)/3 +
  |f|^2/6 + 1/2, with f the transition amplitude between sender and
  receiver and gamma its phase relative to the vacuum branch.
* ``omega1``: the Bell family b|01> + c|10>, carried entirely by the
  one-excitation sector; scored by a closed form over four sector
  amplitudes.
* ``omega2``: the Bell family a|00> + d|11>, split between the vacuum and
  the two-excitation sector; scored by a closed form over the amplitudes
  that reach the receiver pair.  The printed formula can exceed 1, so the
  value is reported unclamped together with an out-of-range flag.

Each family reads one block of sector amplitudes <target|U|source> into
its closed form.  The family table below is stated once, in
``family_sector`` (sector, sources, targets) and ``family_score`` (which
amplitude feeds which argument), and the sweeps, ``conformance_report``
and the state checks of ``SweepPlan`` and the config read it from there:

    family  sector  sources    targets                                  closed form
    omega0  k=1     (1)        (N)                                      single_qubit_fidelity
    omega1  k=1     (1), (2)   (N-1), (N)                               bell_fidelity_omega1
    omega2  k=2     (1,2)      (m,N-1), then (m,N) for m <= N-2;        bell_fidelity_omega2
                               last (N-1,N)

The closed forms are elementwise: amplitude arrays give arrays, scalars
a ``np.float64``.

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
since it is the reference the family table is checked against.
``conformance_report`` tabulates the closed forms against both readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import ExcitationBasis, enumerate_basis, index_of
from .model import ChainParams, build_hamiltonian, uniform_profile, vacuum_energy, vacuum_phase
from .propagator import KickSchedule, kick_step, unitary_exp

__all__ = [
    "KNOWN_STATES",
    "OMEGA2_CONVENTIONS",
    "BellInput",
    "classical_threshold",
    "single_qubit_fidelity",
    "bell_fidelity_omega1",
    "bell_fidelity_omega2",
    "bell_fidelity_direct",
    "direct_family_average",
    "family_sector",
    "family_score",
    "conformance_report",
    "out_of_range",
]

KNOWN_STATES = ("omega0", "omega1", "omega2")
OMEGA2_CONVENTIONS = ("re_amplitude", "abs_amplitude")
BELL_FAMILIES = ("omega1", "omega2")


def _abs2(z):
    """|z|^2 of a number or, elementwise, of an array."""
    return z.real * z.real + z.imag * z.imag


def classical_threshold() -> float:
    """Best average fidelity of a classical channel: 2/3."""
    return 2.0 / 3.0


def out_of_range(value: float) -> bool:
    """True when a fidelity value falls outside the physical interval [0, 1]."""
    return not 0.0 <= value <= 1.0


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


def single_qubit_fidelity(f):
    """Input-averaged single-qubit transfer fidelity, elementwise over amplitudes f.

    Implements F = |f| cos(gamma)/3 + |f|^2/6 + 1/2 with gamma = arg(f),
    written as Re(f)/3 + |f|^2/6 + 1/2 so that the trivial values come out
    exact, and clipped to [0, 1].  The amplitude must come from a unitary
    propagator, so moduli beyond 1 + 1e-9 are rejected as evidence of a
    broken propagator.  A scalar amplitude gives a ``np.float64``.
    """
    f = np.asarray(f, dtype=complex)
    abs2 = _abs2(f)
    worst = float(np.max(abs2, initial=0.0))
    if worst > (1.0 + 1e-9) ** 2:
        raise ValueError(f"amplitude modulus {worst ** 0.5} exceeds 1; propagator broken?")
    value = (2.0 * f.real + np.minimum(abs2, 1.0)) / 6.0 + 0.5
    return np.clip(value, 0.0, 1.0)


def bell_fidelity_omega1(f_matched_near, f_matched_far, f_cross_near, f_cross_far):
    """Closed-form fidelity for the one-excitation Bell family, elementwise.

    The four arguments are one-excitation sector amplitudes at a common
    time: sender 1 -> receiver N-1 and sender 2 -> receiver N (the
    order-preserving, "matched" pair), then sender 2 -> receiver N-1 and
    sender 1 -> receiver N (the swapped, "cross" pair).  Scalar amplitudes
    give a ``np.float64``.
    """
    near, far, cross_near, cross_far = (
        np.asarray(f, dtype=complex)
        for f in (f_matched_near, f_matched_far, f_cross_near, f_cross_far)
    )
    s = _abs2(near) + _abs2(far) + (_abs2(cross_near) + _abs2(cross_far)) / 2.0
    cross = (far * near.conj()).real
    return (s + cross) / 3.0


def bell_fidelity_omega2(cross_amplitudes, final_amplitude, convention: str = "re_amplitude"):
    """Closed-form fidelity for the vacuum + two-excitation Bell family, elementwise.

    ``cross_amplitudes`` are the two-excitation amplitudes from the sender
    pair (1,2) to every configuration holding exactly one receiver site,
    {n, N-1} and {n, N} for n <= N-2; they run along the last axis, and
    the leading axes broadcast against ``final_amplitude``, the amplitude
    onto the receiver pair {N-1, N}.

    The final term's printed form is ambiguous between the real part and
    the modulus of the amplitude; ``convention`` selects "re_amplitude"
    (default) or "abs_amplitude".  The value is returned unclamped and can
    exceed 1; pair it with ``out_of_range``.
    """
    if convention not in OMEGA2_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {OMEGA2_CONVENTIONS}")
    cross = np.asarray(cross_amplitudes, dtype=complex)
    g = np.asarray(final_amplitude, dtype=complex)
    cross_sum = np.sum(cross.real ** 2 + cross.imag ** 2, axis=-1)
    last = g.real if convention == "re_amplitude" else np.abs(g)
    return (3.0 - cross_sum + 2.0 * (_abs2(g) + last)) / 6.0


# ---------------------------------------------------------------------------
# The family table: how each input family is read and scored
# ---------------------------------------------------------------------------

def family_sector(state: str, n_sites: int):
    """(basis, source indices, target indices) of one family's amplitude block.

    One row of the family table in the module docstring: the excitation
    sector the family lives in and the sector indices of its sender and
    receiver configurations, in the order ``family_score`` reads them.  The
    Bell families need N >= 4, so that the receiver pair is distinct.
    """
    if state not in KNOWN_STATES:
        raise ValueError(f"unknown state {state!r}; expected one of {KNOWN_STATES}")
    n = n_sites
    if state == "omega0":
        k, sources, targets = 1, [(1,)], [(n,)]
    elif n < 4:
        raise ValueError(f"Bell transfer ({state}) needs n_sites >= 4 "
                         f"so the receiver pair is distinct")
    elif state == "omega1":
        k, sources, targets = 1, [(1,), (2,)], [(n - 1,), (n,)]
    else:
        k, sources = 2, [(1, 2)]
        targets = [(m, r) for r in (n - 1, n) for m in range(1, n - 1)] + [(n - 1, n)]
    basis = enumerate_basis(n, k)
    return basis, [index_of(basis, s) for s in sources], [index_of(basis, t) for t in targets]


def family_score(state: str, amps, vacuum_angles, omega2_convention: str):
    """Fidelities from (..., targets, sources) amplitude blocks, one per leading index.

    ``amps`` is laid out by ``family_sector``, and ``vacuum_angles`` (E_vac t
    per instant) broadcasts against the leading shape.  The single-qubit
    amplitude is taken in the vacuum gauge (multiplied by e^{+i E_vac t})
    because its fidelity formula interferes the excitation against the
    vacuum branch.  The Bell formulas consume the raw sector amplitudes as
    printed, and omega1 is insensitive to the shared phase.  omega2 is not:
    its |00> half is the vacuum, which the partial-trace oracle evolves by
    e^{-i E_vac t}, so in the oracle's gauge the final term would read
    Re(g e^{+i E_vac t}) where this passes the bare g.  The bare reading is
    kept, so outputs do not change; at N=6, t=4 (J1=1, J2=-1, E0=0.1) it is
    above the gauged one by 0.0188.  The abs_amplitude reading does not
    depend on the gauge.
    """
    if state == "omega0":
        return single_qubit_fidelity(amps[..., 0, 0] * np.exp(1j * vacuum_angles))
    if state == "omega1":
        return bell_fidelity_omega1(amps[..., 0, 0], amps[..., 1, 1],
                                    amps[..., 0, 1], amps[..., 1, 0])
    return bell_fidelity_omega2(amps[..., :-1, 0], amps[..., -1, 0], omega2_convention)


# ---------------------------------------------------------------------------
# Direct (partial-trace) oracle
# ---------------------------------------------------------------------------

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
