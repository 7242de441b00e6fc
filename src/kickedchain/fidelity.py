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
amplitude feeds which argument), and the sweeps and the state-list rule
``_state_list_error`` (of ``SweepPlan`` and the config) read it from there:

    family  sector  sources    targets                                  closed form
    omega0  k=1     (1)        (N)                                      single_qubit_fidelity
    omega1  k=1     (1), (2)   (N-1), (N)                               bell_fidelity_omega1
    omega2  k=2     (1,2)      (m,N-1), then (m,N) for m <= N-2;        bell_fidelity_omega2
                               last (N-1,N)

The closed forms are elementwise: amplitude arrays give arrays, scalars
a ``np.float64``.  They are checked against a partial-trace oracle that
lives with the tests, in ``tests/partial_trace.py``: it evolves every
excitation sector, traces down to the receivers and averages each family
exactly over its inputs.
"""

import numpy as np

from .basis import enumerate_basis, index_of
from .model import FieldError, _require_choice

__all__ = [
    "KNOWN_STATES",
    "OMEGA2_CONVENTIONS",
    "classical_threshold",
    "single_qubit_fidelity",
    "bell_fidelity_omega1",
    "bell_fidelity_omega2",
    "family_sector",
    "family_score",
    "out_of_range",
]

# The first entry of each is the default: of a state list, and of the omega2 reading.
KNOWN_STATES = ("omega0", "omega1", "omega2")
OMEGA2_CONVENTIONS = ("re_amplitude", "abs_amplitude")


def _abs2(z):
    """|z|^2 of a number or, elementwise, of an array."""
    return z.real * z.real + z.imag * z.imag


def classical_threshold() -> float:
    """Best average fidelity of a classical channel: 2/3."""
    return 2.0 / 3.0


def out_of_range(value: float) -> bool:
    """True when a fidelity value falls outside the physical interval [0, 1]."""
    return not 0.0 <= value <= 1.0


def single_qubit_fidelity(f):
    """Input-averaged single-qubit transfer fidelity, elementwise over amplitudes f.

    Implements F = |f| cos(gamma)/3 + |f|^2/6 + 1/2 with gamma = arg(f),
    written as Re(f)/3 + |f|^2/6 + 1/2 so that the trivial values come out
    exact, and clipped to [0, 1].  The amplitude must come from a unitary
    propagator, so moduli beyond 1 + 1e-9, or NaN, are rejected as evidence
    of a broken propagator.  A scalar amplitude gives a ``np.float64``.
    """
    f = np.asarray(f, dtype=complex)
    abs2 = _abs2(f)
    worst = float(np.max(abs2, initial=0.0))
    if not worst <= (1.0 + 1e-9) ** 2:
        raise FieldError("f", f"amplitude modulus {worst ** 0.5} exceeds 1; propagator broken?")
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


def bell_fidelity_omega2(cross_amplitudes, final_amplitude,
                         convention: str = OMEGA2_CONVENTIONS[0]):
    """Closed-form fidelity for the vacuum + two-excitation Bell family, elementwise.

    ``cross_amplitudes`` are the two-excitation amplitudes from the sender
    pair (1,2) to every configuration holding exactly one receiver site,
    {n, N-1} and {n, N} for n <= N-2; they run along the last axis, and
    the leading axes broadcast against ``final_amplitude``, the amplitude
    onto the receiver pair {N-1, N}.

    The final term's printed form is ambiguous between the real part and
    the modulus of the amplitude; ``convention`` selects "re_amplitude"
    (the default, first in OMEGA2_CONVENTIONS) or "abs_amplitude".  The
    value is returned unclamped and can exceed 1; pair it with ``out_of_range``.
    """
    _require_choice("convention", convention, OMEGA2_CONVENTIONS)
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
    _require_choice("state", state, KNOWN_STATES)
    n = n_sites
    if state == "omega0":
        k, sources, targets = 1, [(1,)], [(n,)]
    elif n < 4:
        raise FieldError("state", f"Bell transfer ({state}) needs n_sites >= 4 "
                                  f"so the receiver pair is distinct")
    elif state == "omega1":
        k, sources, targets = 1, [(1,), (2,)], [(n - 1,), (n,)]
    else:
        k, sources = 2, [(1, 2)]
        targets = [(m, r) for r in (n - 1, n) for m in range(1, n - 1)] + [(n - 1, n)]
    basis = enumerate_basis(n, k)
    return basis, [index_of(basis, s) for s in sources], [index_of(basis, t) for t in targets]


def _state_list_error(states, n_sites: int):
    """(index or None, reason) of the first rule a list of state names breaks, or None."""
    if not states:
        return None, "expected a nonempty list of state names"
    for i, state in enumerate(states):
        try:
            family_sector(state, n_sites)
        except ValueError as exc:
            return i, str(exc)
        if state in states[:i]:
            return i, f"duplicate state {state!r}"
    return None


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
        # a ufunc call, not ``*``: numpy's temporary elision would compute a large
        # product as exp * amps, whose imaginary part rounds differently
        return single_qubit_fidelity(np.multiply(amps[..., 0, 0], np.exp(1j * vacuum_angles)))
    if state == "omega1":
        return bell_fidelity_omega1(amps[..., 0, 0], amps[..., 1, 1],
                                    amps[..., 0, 1], amps[..., 1, 0])
    return bell_fidelity_omega2(amps[..., :-1, 0], amps[..., -1, 0], omega2_convention)
