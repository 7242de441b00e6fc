"""Mirror symmetry: reflection R (site i <-> N+1-i) composed with complex conjugation K.

R flips the sign of the DM term and K flips it back, so on a chain whose
couplings are mirror-symmetric RK is an antiunitary symmetry, and it maps an
impurity at site p onto one at N+1-p.  The kick-free omega0 and omega1
series of the two impurities are therefore equal.  Two scores fall outside
the identity and are pinned here as exceptions: omega2's literal score,
whose receiver table is not mirror-closed, and a kicked series, since RK
turns the step U1 U0 into (U0 U1)^+ and so reverses the order of kick and
free evolution within a period.  On a mirror-symmetric chain with a
non-degenerate one-excitation spectrum |v[N, a]| = |v[1, a]| for every
eigenvector, so the omega0 ceiling S = sum_a |v[N, a] v[1, a]| is 1.
"""

from dataclasses import replace

import numpy as np
import pytest

from kickedchain import (
    ChainParams,
    KickSchedule,
    apply_impurity,
    build_hamiltonian,
    continuous_fidelity_series,
    eigendecompose,
    enumerate_basis,
    fidelity_series,
    impurity_from_strength,
    single_qubit_fidelity,
    uniform_profile,
)

N = 10
TIMES = np.arange(1, 2001)
MIRRORED = [(kind, p) for kind in ("type1", "type2") for p in (2, 3, 4)]


def doped(kind: str, site: int, strength: float = 1.7, b_field: float = 0.3) -> ChainParams:
    pure = ChainParams(uniform_profile(N, 1.0, -1.0), dm_field=0.1, b_field=b_field)
    spec = impurity_from_strength(kind, site, strength)
    return replace(pure, profile=apply_impurity(pure.profile, spec))


def ceiling(params: ChainParams) -> float:
    """S = sum_a |v[N, a] v[1, a]| over the eigenvectors of the one-excitation block."""
    n = params.profile.n_sites
    _, v = eigendecompose(build_hamiltonian(params, enumerate_basis(n, 1)))
    return float(np.abs(v[n - 1, :] * v[0, :]).sum())


@pytest.mark.parametrize("kind,site", MIRRORED)
def test_kick_free_omega0_and_omega1_series_equal_those_of_the_mirrored_impurity(kind, site):
    for state in ("omega0", "omega1"):
        here = continuous_fidelity_series(doped(kind, site), TIMES, state)
        mirrored = continuous_fidelity_series(doped(kind, N + 1 - site), TIMES, state)
        assert np.abs(here - mirrored).max() < 1e-11, state


@pytest.mark.parametrize("kind,site", MIRRORED)
def test_literal_omega2_score_is_not_mirror_symmetric(kind, site):
    # its cross amplitudes reach (m, N-1) and (m, N); their mirror images are not in the table
    here = continuous_fidelity_series(doped(kind, site), TIMES, "omega2")
    mirrored = continuous_fidelity_series(doped(kind, N + 1 - site), TIMES, "omega2")
    assert np.abs(here - mirrored).max() >= 1e-2


@pytest.mark.parametrize("kind,site", MIRRORED)
def test_kicked_series_is_not_mirror_symmetric(kind, site):
    schedule = KickSchedule(tau=0.7, e1=1.0, n_kicks=500)
    here = fidelity_series(doped(kind, site), schedule, "omega0")
    mirrored = fidelity_series(doped(kind, N + 1 - site), schedule, "omega0")
    assert np.abs(here - mirrored).max() >= 1e-2


def test_pure_chain_omega0_ceiling_is_one():
    rng = np.random.default_rng(20)
    for n in range(5, 11):
        for _ in range(5):
            j2, e = rng.uniform(-2.0, 2.0, size=2)
            params = ChainParams(uniform_profile(n, 1.0, j2), dm_field=e,
                                 b_field=rng.uniform(-1.0, 1.0))
            assert abs(ceiling(params) - 1.0) < 1e-12, (n, j2, e)


@pytest.mark.parametrize("kind,site,strength,bound", [
    ("type1", 8, 1.1, 0.9944),
    ("type2", 7, 1.1, 0.9952),
    ("type1", 6, 1.7, 0.8746),
    ("type1", 6, 3.0, 0.6998),
    ("type2", 6, 2.1, 0.9397),
    ("type2", 6, 3.0, 0.9303),
])
def test_off_centre_impurity_caps_the_kick_free_omega0_fidelity(kind, site, strength, bound):
    # the README ceiling table: |f| <= S, so F <= S/3 + S^2/6 + 1/2 at every time
    params = doped(kind, site, strength, b_field=0.0)
    top = float(single_qubit_fidelity(ceiling(params)))
    assert round(top, 4) == bound
    assert continuous_fidelity_series(params, np.arange(1, 5001), "omega0").max() <= top
