"""Couplings, impurities, and sector Hamiltonian blocks."""

import cmath
import math

import numpy as np
import pytest

import oracle
from kickedchain import (
    IMPURITY_KINDS,
    ChainParams,
    CouplingProfile,
    ImpuritySpec,
    apply_impurity,
    build_hamiltonian,
    chirality_operator,
    default_impurity_site,
    enumerate_basis,
    impurity_from_strength,
    uniform_profile,
    vacuum_energy,
)
from kickedchain.model import FieldError
from partial_trace import vacuum_phase


def params_for(n, j1, j2, b=0.0, e=0.0):
    return ChainParams(uniform_profile(n, j1, j2), dm_field=e, b_field=b)


def test_the_package_exports_every_layer_name_once():
    # each public name is declared once, in its layer's __all__, and the
    # package's __all__ is their union
    import importlib

    import kickedchain
    layers = [importlib.import_module(f"kickedchain.{layer}")
              for layer in ("basis", "model", "propagator", "fidelity", "sweep", "cli")]
    declared = [(layer, name) for layer in layers for name in layer.__all__]
    missing = [f"{layer.__name__}.{name}" for layer, name in declared
               if getattr(kickedchain, name, None) is not getattr(layer, name)]
    assert missing == []
    assert kickedchain.__all__ == [name for _, name in declared]


# -- frozen two-site blocks, checked element by element ----------------------

def test_two_site_blocks_plain_exchange():
    p = params_for(2, 1.0, 0.0)
    h0 = build_hamiltonian(p, enumerate_basis(2, 0))
    h1 = build_hamiltonian(p, enumerate_basis(2, 1))
    h2 = build_hamiltonian(p, enumerate_basis(2, 2))
    assert np.array_equal(h0, np.array([[-0.25]]))
    assert np.array_equal(h1, np.array([[0.25, -0.5], [-0.5, 0.25]]))
    assert np.array_equal(h2, np.array([[-0.25]]))


def test_two_site_blocks_with_field_and_dm():
    p = params_for(2, 2.0, 0.0, b=0.5, e=1.0)
    h0 = build_hamiltonian(p, enumerate_basis(2, 0))
    h1 = build_hamiltonian(p, enumerate_basis(2, 1))
    h2 = build_hamiltonian(p, enumerate_basis(2, 2))
    assert np.array_equal(h0, np.array([[-1.0]]))
    # hop toward lower site index carries +iE/2
    assert np.array_equal(
        h1, np.array([[0.5, -1.0 + 0.5j], [-1.0 - 0.5j, 0.5]]))
    assert np.array_equal(h2, np.array([[0.0]]))


def test_four_site_impurity_blocks_exact():
    # type1 strength 1.5 at site 3 scales NN bond (1, 2) by 1.5 and the
    # bridging NNN bond (2, 4) by 0.875; every entry is a binary fraction.
    profile = apply_impurity(uniform_profile(4, 1.0, -1.0),
                             impurity_from_strength("type1", 3, 1.5))
    assert profile == CouplingProfile(4, (1.5, 1.0, 1.0), (-1.0, -0.875))
    p = ChainParams(profile, dm_field=0.25, b_field=0.5)
    u = 0.125j   # iE/2, carried by a hop down the chain
    h0 = build_hamiltonian(p, enumerate_basis(4, 0))
    h1 = build_hamiltonian(p, enumerate_basis(4, 1))
    h2 = build_hamiltonian(p, enumerate_basis(4, 2))
    assert np.array_equal(h0, np.array([[-1.40625]]))
    assert np.array_equal(h1, np.array([
        [-0.65625, -0.75 + u, 0.5, 0.0],
        [-0.75 - u, -0.09375, -0.5 + u, 0.4375],
        [0.5, -0.5 - u, -0.40625, -0.5 + u],
        [0.0, 0.4375, -0.5 - u, -0.84375],
    ]))
    # rows and columns: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    assert np.array_equal(h2, np.array([
        [-0.84375, -0.5 + u, 0.4375, 0.5, 0.0, 0.0],
        [-0.5 - u, 1.34375, -0.5 + u, -0.75 + u, 0.0, 0.0],
        [0.4375, -0.5 - u, -0.09375, 0.0, -0.75 + u, 0.5],
        [0.5, -0.75 - u, 0.0, -0.09375, -0.5 + u, 0.4375],
        [0.0, 0.0, -0.75 - u, -0.5 - u, 1.34375, -0.5 + u],
        [0.0, 0.0, 0.5, 0.4375, -0.5 - u, -0.84375],
    ]))


def test_block_is_exactly_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        profile = CouplingProfile(
            n,
            tuple(rng.normal(size=n - 1).round(3)),
            tuple(rng.normal(size=n - 2).round(3)),
        )
        p = ChainParams(profile, dm_field=float(rng.normal()),
                        b_field=float(rng.normal()))
        for k in (0, 1, 2):
            h = build_hamiltonian(p, enumerate_basis(n, k))
            assert np.array_equal(h, h.conj().T)


def test_basis_size_mismatch_rejected():
    p = params_for(4, 1.0, -1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(p, enumerate_basis(5, 1))


# -- every sector block is the projection of the full-space operator ---------

@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_matches_full_space_projection(n, k):
    rng = np.random.default_rng(100 * n + k)
    j1 = rng.normal(size=n - 1).round(3).tolist()
    j2 = rng.normal(size=n - 2).round(3).tolist()
    b, e = 0.4, 0.7
    p = ChainParams(CouplingProfile(n, tuple(j1), tuple(j2)),
                    dm_field=e, b_field=b)
    basis = enumerate_basis(n, k)
    h = build_hamiltonian(p, basis)
    full = oracle.full_hamiltonian(j1, j2, b, e, n)
    idx = [oracle.full_index(c, n) for c in basis.configs]
    assert np.abs(h - full[np.ix_(idx, idx)]).max() < 1e-12


def test_chirality_matches_full_space_projection():
    n = 5
    for k in (1, 2):
        basis = enumerate_basis(n, k)
        d = chirality_operator(basis)
        full = oracle.full_chirality(n)
        idx = [oracle.full_index(c, n) for c in basis.configs]
        assert np.abs(d - full[np.ix_(idx, idx)]).max() < 1e-12


def test_chirality_has_no_vacuum_or_diagonal_part():
    d0 = chirality_operator(enumerate_basis(6, 0))
    assert np.array_equal(d0, np.zeros((1, 1)))
    d1 = chirality_operator(enumerate_basis(6, 1))
    assert np.array_equal(np.diag(d1), np.zeros(6))


# -- vacuum energy and phase --------------------------------------------------

def test_vacuum_energy_two_sites_exact():
    assert vacuum_energy(params_for(2, 1.0, 0.0)) == -0.25


def test_vacuum_energy_uniform_closed_form():
    n, j1, j2, b = 7, 1.3, -0.6, 0.25
    p = params_for(n, j1, j2, b=b, e=0.9)
    expected = -(n - 1) * j1 / 4.0 - (n - 2) * j2 / 4.0 - b * n / 2.0
    assert vacuum_energy(p) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("impurity", [None, ("type1", 5, 1.7), ("type2", 4, 1.3)])
def test_vacuum_energy_equals_the_k0_block_bit_for_bit(impurity):
    profile = uniform_profile(9, 1.3, -0.6)
    if impurity is not None:
        profile = apply_impurity(profile, impurity_from_strength(*impurity))
    for b in (0.0, 0.25):
        p = ChainParams(profile, dm_field=0.9, b_field=b)
        block = build_hamiltonian(p, enumerate_basis(9, 0))
        assert vacuum_energy(p) == block[0, 0].real
    zero = ChainParams(uniform_profile(4, 0.0, 0.0))
    assert math.copysign(1.0, vacuum_energy(zero)) == 1.0


def test_vacuum_phase_is_exp_of_minus_i_e_t():
    p = params_for(2, 1.0, 0.0)
    assert vacuum_phase(p, math.pi) == cmath.exp(0.25j * math.pi)
    assert vacuum_phase(p, 0.0) == 1.0 + 0.0j


def test_dm_field_does_not_move_vacuum_energy():
    base = params_for(6, 1.0, -1.0)
    driven = params_for(6, 1.0, -1.0, e=2.5)
    assert vacuum_energy(base) == vacuum_energy(driven)


# -- impurity placement -------------------------------------------------------

def test_type1_impurity_frozen_bond_table():
    spec = impurity_from_strength("type1", 6, 1.7)
    out = apply_impurity(uniform_profile(10, 1.0, -1.0), spec)
    weak = 1.0 - (1.7 - 1.0) / 4.0
    assert out.j1_bonds == (1.0, 1.0, 1.0, 1.7, 1.0, 1.0, 1.7, 1.0, 1.0)
    assert out.j2_bonds == (-1.0, -1.0, -1.7, -1.0, -weak, -1.0, -1.7, -1.0)


def test_type2_impurity_frozen_bond_table():
    spec = impurity_from_strength("type2", 6, 3.0)
    out = apply_impurity(uniform_profile(10, 1.0, -1.0), spec)
    assert out.j1_bonds == (1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0)
    assert out.j2_bonds == (-1.0, -1.0, -0.5, -1.0, -3.0, -1.0, -0.5, -1.0)


def test_impuritys_own_bonds_are_untouched():
    out = apply_impurity(uniform_profile(10, 1.0, -1.0),
                         impurity_from_strength("type1", 6, 2.0))
    # bonds (5,6), (6,7) and (4,6), (6,8) belong to the impurity itself
    assert out.j1_bonds[4] == 1.0 and out.j1_bonds[5] == 1.0
    assert out.j2_bonds[3] == -1.0 and out.j2_bonds[5] == -1.0


def test_strength_linkage_weak_ratios():
    assert impurity_from_strength("type1", 6, 1.7).ratio_nnn_weak == 1.0 - (1.7 - 1.0) / 4.0
    assert impurity_from_strength("type1", 6, 2.1).ratio_nnn_weak == 1.0 - (2.1 - 1.0) / 4.0
    assert impurity_from_strength("type2", 6, 3.0).ratio_nn == 0.5
    assert impurity_from_strength("type2", 6, 3.0).ratio_nnn_weak == 0.5
    # unit strength collapses to the clean chain
    clean = apply_impurity(uniform_profile(10, 1.0, -1.0),
                           impurity_from_strength("type1", 6, 1.0))
    assert clean == uniform_profile(10, 1.0, -1.0)


def test_boundary_impurity_clips_missing_bonds():
    base = uniform_profile(10, 1.0, -1.0)
    out = apply_impurity(base, impurity_from_strength("type1", 2, 2.0))
    changed_j1 = [i for i, (a, b) in enumerate(zip(base.j1_bonds, out.j1_bonds)) if a != b]
    changed_j2 = [i for i, (a, b) in enumerate(zip(base.j2_bonds, out.j2_bonds)) if a != b]
    assert changed_j1 == [2]        # only (3,4); (0,1) is off-chain
    assert changed_j2 == [0, 2]     # bridge (1,3) and outer (3,5)

    out = apply_impurity(base, impurity_from_strength("type1", 9, 2.0))
    changed_j1 = [i for i, (a, b) in enumerate(zip(base.j1_bonds, out.j1_bonds)) if a != b]
    changed_j2 = [i for i, (a, b) in enumerate(zip(base.j2_bonds, out.j2_bonds)) if a != b]
    assert changed_j1 == [6]        # only (7,8); (10,11) is off-chain
    assert changed_j2 == [5, 7]     # outer (6,8) and bridge (8,10)


def test_every_interior_site_is_a_valid_impurity_location():
    base = uniform_profile(10, 1.0, -1.0)
    for p in range(2, 10):
        out = apply_impurity(base, impurity_from_strength("type2", p, 2.0))
        assert out.n_sites == 10
    for p in (1, 10, 0, 11):
        with pytest.raises(ValueError):
            apply_impurity(base, impurity_from_strength("type2", p, 2.0))


def test_default_impurity_site():
    assert default_impurity_site(10) == 6
    assert default_impurity_site(4) == 3


def test_impurity_spec_validation():
    with pytest.raises(ValueError):
        ImpuritySpec("type3", 6, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ImpuritySpec("type1", 6, 0.9, 1.5, 0.9)   # type1 needs ratio_nn >= 1
    with pytest.raises(ValueError):
        ImpuritySpec("type2", 6, 1.1, 1.5, 0.9)   # type2 needs ratio_nn <= 1
    with pytest.raises(ValueError):
        ImpuritySpec("type1", 6, 1.0, 0.9, 1.0)   # strong ratio below 1
    with pytest.raises(ValueError):
        ImpuritySpec("type1", 6, 1.0, 1.5, 1.1)   # weak ratio above 1
    with pytest.raises(ValueError):
        impurity_from_strength("type1", 6, 0.9)
    with pytest.raises(ValueError, match="unknown impurity kind"):
        impurity_from_strength("type3", 6, 1.5)


def test_impurity_strength_range_keeps_every_bond_positive():
    # strengths in [1, 5) give a weakened ratio in (0, 1]; 5 would cut bonds,
    # and more would flip their sign
    for kind in IMPURITY_KINDS:
        for strength in (1.0, 3.0, 4.99):
            spec = impurity_from_strength(kind, 6, strength)
            assert 0.0 < spec.ratio_nnn_weak <= 1.0 and spec.ratio_nn > 0.0
        for strength in (0.5, 5.0, 6.0):
            with pytest.raises(FieldError, match="impurity strength must lie in") as err:
                impurity_from_strength(kind, 6, strength)
            assert err.value.field == "strength"
        with pytest.raises(FieldError) as err:
            impurity_from_strength(kind, 6, math.nan)
        assert err.value.field == "strength"
        assert str(err.value) == "strength must be finite, got nan"


def test_profile_validation():
    with pytest.raises(ValueError, match="need at least 2 sites"):
        uniform_profile(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        CouplingProfile(4, (1.0, 1.0), (0.0, 0.0))       # one j1 bond short
    with pytest.raises(ValueError):
        CouplingProfile(4, (1.0, 1.0, 1.0), (0.0,))      # one j2 bond short
