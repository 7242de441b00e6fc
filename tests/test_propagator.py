"""Sector propagators: eigendecomposition, continuous and kicked evolution."""

import cmath

import numpy as np
import pytest

import oracle
from kickedchain import (
    ChainParams,
    CouplingProfile,
    KickSchedule,
    build_hamiltonian,
    chirality_operator,
    enumerate_basis,
    eigendecompose,
    kick_step,
    kick_lattice,
    unitary_exp,
    uniform_profile,
)
from lattice import amplitude_columns, amplitude_series

H1_TWO_SITE = np.array([[0.25, -0.5], [-0.5, 0.25]])


def test_eigendecompose_frozen_spectra():
    w, _ = eigendecompose(H1_TWO_SITE)
    assert np.allclose(w, [-0.25, 0.75], atol=1e-14)
    w, v = eigendecompose(np.eye(3))
    assert np.array_equal(w, np.ones(3))
    w, _ = eigendecompose(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(w, [1.0, 2.0, 3.0])


def test_eigendecompose_reconstructs_input():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a + a.conj().T
    w, v = eigendecompose(h)
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-12


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))
    # a NaN entry makes the Hermiticity defect NaN, which the tolerance check must not pass
    with pytest.raises(ValueError, match="not Hermitian") as err:
        eigendecompose(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    assert err.value.field == "h"


def test_zero_time_propagator_is_exact_identity():
    u = unitary_exp(H1_TWO_SITE, 0.0)
    assert np.array_equal(u, np.eye(2))


def test_continuous_propagator_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        p = ChainParams(
            CouplingProfile(n, tuple(rng.normal(size=n - 1)),
                            tuple(rng.normal(size=n - 2))),
            dm_field=float(rng.normal()), b_field=float(rng.normal()))
        k = int(rng.integers(1, 3))
        h = build_hamiltonian(p, enumerate_basis(n, k))
        u = unitary_exp(h, float(rng.uniform(0.1, 10.0)))
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12


def test_two_site_transfer_amplitude_at_pi():
    # eigenphases split by 1, so t = pi swaps the sites up to a phase
    u = unitary_exp(H1_TWO_SITE, np.pi)
    amp = u[1, 0]
    assert abs(amp - cmath.exp(0.25j * np.pi)) < 1e-12
    assert abs(abs(amp) - 1.0) < 1e-12


def test_continuous_evolution_matches_full_space():
    n = 5
    rng = np.random.default_rng(17)
    j1 = rng.normal(size=n - 1).round(3).tolist()
    j2 = rng.normal(size=n - 2).round(3).tolist()
    p = ChainParams(CouplingProfile(n, tuple(j1), tuple(j2)),
                    dm_field=0.6, b_field=0.3)
    full_h = oracle.full_hamiltonian(j1, j2, 0.3, 0.6, n)
    for k in (1, 2):
        basis = enumerate_basis(n, k)
        idx = [oracle.full_index(c, n) for c in basis.configs]
        for t in (0.7, 2.9):
            u = unitary_exp(build_hamiltonian(p, basis), t)
            psi0 = np.zeros(basis.size, dtype=complex)
            psi0[0] = 1.0
            full0 = np.zeros(2 ** n, dtype=complex)
            full0[idx[0]] = 1.0
            expected = oracle.evolve(full_h, full0, t)[idx]
            assert np.abs(u @ psi0 - expected).max() < 1e-12


def test_energy_is_conserved_under_continuous_evolution():
    p = ChainParams(uniform_profile(6, 1.0, -1.0), dm_field=0.1)
    basis = enumerate_basis(6, 2)
    h = build_hamiltonian(p, basis)
    rng = np.random.default_rng(23)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    e0 = (psi.conj() @ h @ psi).real
    for t in (0.5, 3.1, 17.0):
        phi = unitary_exp(h, t) @ psi
        assert abs((phi.conj() @ h @ phi).real - e0) < 1e-9


# -- kick schedule and one-period propagator ----------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        KickSchedule(tau=0.0)
    with pytest.raises(ValueError):
        KickSchedule(tau=-1.0)
    with pytest.raises(ValueError):
        KickSchedule(tau=1.0, n_kicks=-1)


def test_kick_step_returns_the_sector_matrix():
    p = ChainParams(uniform_profile(5, 1.0, -1.0), dm_field=0.1)
    u = kick_step(p, KickSchedule(tau=1.0, e1=1.0), enumerate_basis(5, 2))
    assert isinstance(u, np.ndarray)
    assert u.shape == (10, 10)


def test_kick_step_rejects_unknown_convention():
    p = ChainParams(uniform_profile(4, 1.0, -1.0))
    with pytest.raises(ValueError):
        kick_step(p, KickSchedule(tau=1.0), enumerate_basis(4, 1),
                  u0_convention="eq5")


def test_zero_amplitude_kick_reduces_to_free_evolution():
    p = ChainParams(uniform_profile(5, 1.0, -1.0), dm_field=0.1)
    basis = enumerate_basis(5, 1)
    u = kick_step(p, KickSchedule(tau=1.7, e1=0.0), basis)
    assert np.abs(u - unitary_exp(build_hamiltonian(p, basis), 1.7)).max() < 1e-13


def test_short_interval_kick_approaches_bare_kick():
    p = ChainParams(uniform_profile(5, 1.0, -1.0))
    basis = enumerate_basis(5, 1)
    u = kick_step(p, KickSchedule(tau=1e-8, e1=0.9), basis)
    d = chirality_operator(basis)
    assert np.abs(u - unitary_exp(d, 0.9)).max() < 1e-6


def test_conventions_agree_at_unit_interval_and_differ_elsewhere():
    p = ChainParams(uniform_profile(6, 1.0, -1.0), dm_field=0.1)
    basis = enumerate_basis(6, 1)
    a = kick_step(p, KickSchedule(tau=1.0, e1=1.0), basis,
                  u0_convention="hamiltonian_tau")
    b = kick_step(p, KickSchedule(tau=1.0, e1=1.0), basis,
                  u0_convention="literal_eq5")
    assert np.abs(a - b).max() < 1e-12
    a2 = kick_step(p, KickSchedule(tau=2.0, e1=1.0), basis,
                   u0_convention="hamiltonian_tau")
    b2 = kick_step(p, KickSchedule(tau=2.0, e1=1.0), basis,
                   u0_convention="literal_eq5")
    assert np.abs(a2 - b2).max() > 1e-3


@pytest.mark.parametrize("convention", ["hamiltonian_tau", "literal_eq5"])
def test_kick_step_matches_full_space(convention):
    n = 4
    rng = np.random.default_rng(29)
    j1 = rng.normal(size=n - 1).round(3).tolist()
    j2 = rng.normal(size=n - 2).round(3).tolist()
    p = ChainParams(CouplingProfile(n, tuple(j1), tuple(j2)), dm_field=0.1, b_field=0.2)
    sched = KickSchedule(tau=1.3, e1=0.8)
    full = oracle.kick_unitary(j1, j2, 0.2, 0.1, 0.8, 1.3, n, convention)
    for k in (1, 2):
        basis = enumerate_basis(n, k)
        idx = [oracle.full_index(c, n) for c in basis.configs]
        u = kick_step(p, sched, basis, u0_convention=convention)
        assert np.abs(u - full[np.ix_(idx, idx)]).max() < 1e-12


# -- repeated kicks ------------------------------------------------------------

def kicked_sector(n=5, k=1, tau=2.0):
    p = ChainParams(uniform_profile(n, 1.0, -1.0), dm_field=0.1)
    return p, KickSchedule(tau=tau, e1=1.0), enumerate_basis(n, k)


def test_zero_kicks_returns_initial_state():
    cols = amplitude_columns(*kicked_sector(), [0], 0)
    assert np.array_equal(cols[0, :, 0], np.eye(cols.shape[1])[0])


def test_kick_counts_compose():
    # with every source the amplitudes after m kicks are the whole matrix step^m
    p, sched, basis = kicked_sector()
    powers = amplitude_columns(p, sched, basis, range(basis.size), 7)
    assert np.abs(powers[7] - powers[4] @ powers[3]).max() < 1e-12


def test_norm_is_preserved_over_many_kicks():
    cols = amplitude_columns(*kicked_sector(), [0], 500)
    assert np.abs(np.linalg.norm(cols[:, :, 0], axis=1) - 1.0).max() < 1e-10


def test_sector_mismatch_is_rejected():
    p, sched, _ = kicked_sector(n=5, k=1)
    with pytest.raises(ValueError, match="basis is for 6 sites") as err:
        kick_lattice(p, enumerate_basis(6, 1), (sched.tau,), sched.e1, [0], [0], 1,
                     lambda amps, taus, ms: np.abs(amps[..., 0, 0]))
    assert err.value.field == "basis"


# -- stroboscopic amplitude series ---------------------------------------------

def test_series_starts_with_kronecker_delta():
    p = ChainParams(uniform_profile(6, 1.0, -1.0), dm_field=0.1)
    sched = KickSchedule(tau=2.0, e1=1.0)
    basis = enumerate_basis(6, 1)
    same = amplitude_series(p, sched, basis, (1,), (1,), 3)
    other = amplitude_series(p, sched, basis, (1,), (6,), 3)
    assert same[0] == 1.0 + 0.0j
    assert other[0] == 0.0 + 0.0j


def test_series_matches_repeated_kick_readout():
    p = ChainParams(uniform_profile(5, 1.0, -1.0), dm_field=0.1)
    sched = KickSchedule(tau=1.5, e1=0.7)
    basis = enumerate_basis(5, 2)
    series = amplitude_series(p, sched, basis, (1, 2), (4, 5), 20)
    out = np.linalg.matrix_power(kick_step(p, sched, basis), 20)
    assert abs(series[20] - out[basis.index_map[(4, 5)], basis.index_map[(1, 2)]]) < 1e-12


@pytest.mark.parametrize("convention", ["hamiltonian_tau", "literal_eq5"])
def test_series_matches_full_space_kicks(convention):
    n, m_max = 4, 12
    p = ChainParams(uniform_profile(n, 1.0, -1.0), dm_field=0.1)
    sched = KickSchedule(tau=2.2, e1=1.0)
    basis = enumerate_basis(n, 1)
    series = amplitude_series(p, sched, basis, (1,), (n,), m_max,
                              u0_convention=convention)
    ufull = oracle.kick_unitary([1.0] * (n - 1), [-1.0] * (n - 2), 0.0,
                                0.1, 1.0, 2.2, n, convention)
    psi = oracle.basis_state((1,), n)
    tgt = oracle.full_index((n,), n)
    for m in range(m_max + 1):
        assert abs(series[m] - psi[tgt]) < 1e-11
        psi = ufull @ psi


def test_series_rejects_negative_m_max():
    p = ChainParams(uniform_profile(4, 1.0, -1.0))
    with pytest.raises(ValueError):
        amplitude_series(p, KickSchedule(tau=1.0), enumerate_basis(4, 1),
                         (1,), (4,), -1)
