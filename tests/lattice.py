"""Stroboscopic transition amplitudes read off the package's kick lattice."""

import numpy as np

from kickedchain import index_of, kick_lattice


def amplitude_series(params, schedule, basis, source, target, m_max: int,
                     u0_convention: str = "hamiltonian_tau") -> np.ndarray:
    """<target|(U1 U0)^m|source> for m = 0..m_max at the schedule's kick interval."""
    return kick_lattice(params, basis, (schedule.tau,), schedule.e1,
                        [index_of(basis, source)], [index_of(basis, target)], m_max,
                        lambda amps, taus, ms: amps[..., 0, 0],
                        u0_convention=u0_convention)[0]


def amplitude_columns(params, schedule, basis, sources, m_max: int,
                      u0_convention: str = "hamiltonian_tau") -> np.ndarray:
    """(U1 U0)^m e_s over the whole sector for m = 0..m_max: shape (m_max + 1, dim, len(sources))."""
    out = np.empty((m_max + 1, basis.size, len(sources)), dtype=complex)

    def keep(amps, taus, ms):
        out[ms] = amps[0]
        return np.zeros(amps.shape[:2])

    kick_lattice(params, basis, (schedule.tau,), schedule.e1, sources, np.arange(basis.size),
                 m_max, keep, u0_convention=u0_convention)
    return out
