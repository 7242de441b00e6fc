"""What a kick does: an effective static DM field, and a DM field that is a gauge without NNN bonds.

The kick generator is the DM operator at unit field, so to first order in
tau * e1 a period U1 U0(tau) = e^{-i e1 D} e^{-i tau H} is e^{-i tau H_eff},
with H_eff the chain at the static field E_eff = E0 + e1/tau.  With J2 = 0
the DM field itself is a gauge: a diagonal phase per configuration makes
every block real.
"""

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    CouplingProfile,
    KickSchedule,
    build_hamiltonian,
    continuous_fidelity_series,
    enumerate_basis,
    fidelity_series,
    uniform_profile,
)


def gauged(params: ChainParams, basis) -> np.ndarray:
    """P^dagger h P for P = diag(e^{i theta(c)}), theta(c) the sum of theta_k over the up sites of c.

    The site phases step by theta_{k+1} - theta_k = -arg(-J1_k + iE), which
    turns each NN hop (-J1_k + iE)/2, from site k+1 down to k, into the real
    |-J1_k + iE|/2.  (The same gauge written P h P^dagger steps by +arg.)
    """
    j1 = np.array(params.profile.j1_bonds)
    site = np.concatenate([[0.0], np.cumsum(-np.angle(-j1 + 1j * params.dm_field))])
    p = np.exp(1j * np.array([site[[s - 1 for s in c]].sum() for c in basis.configs]))
    return p.conj()[:, None] * build_hamiltonian(params, basis) * p[None, :]


def random_chains(j2_range):
    """50 seeded chains: N 5..10, J1 in [0.3, 2] per bond, J2 per bond, E in [-2, 2], B in [-1, 1]."""
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(5, 11))
        j1 = tuple(rng.uniform(0.3, 2.0, n - 1))
        j2 = tuple(rng.uniform(*j2_range, n - 2)) if j2_range else (0.0,) * (n - 2)
        yield ChainParams(CouplingProfile(n, j1, j2), dm_field=rng.uniform(-2.0, 2.0),
                          b_field=rng.uniform(-1.0, 1.0))


def largest_imaginary_part(params: ChainParams) -> float:
    n = params.profile.n_sites
    return max(np.abs(gauged(params, enumerate_basis(n, k)).imag).max() for k in (1, 2))


def test_without_nnn_bonds_the_dm_field_is_a_gauge():
    # 7.0e-15 measured over both sectors of all 50 chains
    assert max(largest_imaginary_part(p) for p in random_chains(None)) < 1e-13


def test_nnn_bonds_make_the_dm_field_more_than_a_gauge():
    # the NNN hop from k+2 to k picks up the phase of two NN steps; least of the 50 is 0.16
    assert min(largest_imaginary_part(p) for p in random_chains((-2.0, -0.2))) >= 1e-3


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_small_kicks_act_as_the_static_chain_at_the_effective_field(state):
    # N = 10, J2/J1 = -1, E0 = 0.1, tau = 0.01, e1 = 1: m kicks against the kick-free
    # chain at E0 + e1/tau = 100.1 run for time m tau, m = 0..500; the largest
    # differences are 2.7e-4 / 1.7e-4 / 4.4e-4 (omega0 / omega1 / omega2)
    tau, e1 = 0.01, 1.0
    kicked = fidelity_series(ChainParams(uniform_profile(10, 1.0, -1.0), dm_field=0.1),
                             KickSchedule(tau=tau, e1=e1, n_kicks=500), state)
    static = continuous_fidelity_series(
        ChainParams(uniform_profile(10, 1.0, -1.0), dm_field=0.1 + e1 / tau),
        tau * np.arange(501), state)
    assert np.abs(kicked - static).max() < 1e-3
