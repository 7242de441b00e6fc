"""The batched kick kernel against a naive per-tau, per-kick loop, and its scorers.

The reference loop here is written out independently of the package's
kernel: one ``kick_step`` matrix per tau, repeated ``@``, and the scalar
closed-form scorers cell by cell.
"""

import cmath

import numpy as np
import pytest

import kickedchain.fidelity as fidelity_module
import kickedchain.model as model_module
import kickedchain.propagator as propagator_module
import kickedchain.sweep as sweep_module
import partial_trace
from kickedchain import (
    CONTINUOUS_TIMES,
    DEFAULT_TAU_GRID,
    ChainParams,
    KickSchedule,
    bell_fidelity_omega1,
    bell_fidelity_omega2,
    continuous_fidelity_series,
    enumerate_basis,
    fidelity_lattice,
    fidelity_series,
    float_grid,
    index_of,
    kick_step,
    max_fidelity,
    single_qubit_fidelity,
    uniform_profile,
    vacuum_energy,
)
from lattice import amplitude_columns
from partial_trace import conformance_report

N = 6
TAUS = (0.4, 1.3, 2.0, 2.7, 3.9)
M_MAX = 30
E1 = 0.8


def params_for(j1=1.0, j2=-0.7, e=0.1):
    return ChainParams(uniform_profile(N, j1, j2), dm_field=e)


def probe(state):
    """Sector, sources and targets of each input family, as the closed forms read them."""
    if state == "omega0":
        return 1, [(1,)], [(N,)]
    if state == "omega1":
        return 1, [(1,), (2,)], [(N - 1,), (N,)]
    cross = [(m, N - 1) for m in range(1, N - 1)] + [(m, N) for m in range(1, N - 1)]
    return 2, [(1, 2)], cross + [(N - 1, N)]


def naive_lattice(params, state, taus, m_max, u0_convention, omega2_convention):
    k, sources, targets = probe(state)
    basis = enumerate_basis(N, k)
    src = [index_of(basis, s) for s in sources]
    tgt = [index_of(basis, t) for t in targets]
    e_vac = vacuum_energy(params)
    out = np.empty((len(taus), m_max + 1))
    for i, tau in enumerate(taus):
        step = kick_step(params, KickSchedule(tau=tau, e1=E1), basis,
                         u0_convention=u0_convention)
        cols = np.eye(basis.size, dtype=complex)[:, src]
        for m in range(m_max + 1):
            if m:
                cols = step @ cols
            amp = cols[tgt, :]
            if state == "omega0":
                out[i, m] = single_qubit_fidelity(amp[0, 0] * cmath.exp(1j * e_vac * tau * m))
            elif state == "omega1":
                out[i, m] = bell_fidelity_omega1(amp[0, 0], amp[1, 1], amp[0, 1], amp[1, 0])
            else:
                out[i, m] = bell_fidelity_omega2(amp[:-1, 0], amp[-1, 0], omega2_convention)
    return out


def naive_argmax(lattice, taus):
    """Smallest tau, then smallest kick count, among the maxima: strict > in scan order."""
    best, where = -np.inf, None
    for i, row in enumerate(lattice):
        for m, value in enumerate(row):
            if value > best:
                best, where = value, (taus[i], m)
    return where


@pytest.mark.parametrize("omega2_convention", ["re_amplitude", "abs_amplitude"])
@pytest.mark.parametrize("u0_convention", ["hamiltonian_tau", "literal_eq5"])
@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_kernel_lattice_matches_naive_loop(state, u0_convention, omega2_convention):
    params = params_for()
    want = naive_lattice(params, state, TAUS, M_MAX, u0_convention, omega2_convention)
    got = fidelity_lattice(params, state, TAUS, M_MAX, e1=E1,
                           u0_convention=u0_convention, omega2_convention=omega2_convention)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    value, atau, am = max_fidelity(params, state, TAUS, M_MAX, e1=E1,
                                   u0_convention=u0_convention,
                                   omega2_convention=omega2_convention)
    assert (atau, am) == naive_argmax(want, TAUS)
    assert abs(value - want.max()) <= 1e-12


def test_kernel_chunking_does_not_change_the_lattice(monkeypatch):
    """Budgets small enough to split taus and kicks into many uneven chunks.

    The kicks per loop iteration (B) set how the powers of the step are
    factored, so the budgets here still fit one tau at the default B.
    """
    params = params_for()
    whole = fidelity_lattice(params, "omega2", TAUS, M_MAX, e1=E1)
    dim = enumerate_basis(N, 2).size
    b = propagator_module._kicks_per_iteration(M_MAX, dim, 9)
    step_bytes = 2 * 16 * dim * (dim + b * 9)                  # two taus per stack
    monkeypatch.setattr(propagator_module, "_STEP_STACK_BYTES", step_bytes)
    monkeypatch.setattr(propagator_module, "_CHUNK_BYTES", 2 * 7 * 9 * 16)
    assert propagator_module._kicks_per_iteration(M_MAX, dim, 9) == b > 1
    chunked = fidelity_lattice(params, "omega2", TAUS, M_MAX, e1=E1)
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_chunk_budget_changes_no_bit_at_the_canonical_point(monkeypatch, state):
    """Every scored loop, at chunks from 16 KiB to 4 MiB, gives the same bits.

    At N = 10 the 100-tau lattice runs blocked for omega0 and omega1 and in
    the eigenbasis for omega2; 4 MiB holds a whole omega0 tau stack.  The
    kick-free series (R = 71 probe times per coarse row) takes 1 (omega2),
    3 (omega1) or 12 (omega0) coarse rows per chunk at 16 KiB and all 71 in
    one chunk at 4 MiB.
    With ``*`` for omega0's vacuum-gauge product, numpy's temporary elision
    moved 516 omega0 cells at 4 MiB, by up to 2.2e-16.
    """
    params = ChainParams(uniform_profile(10, 1.0, -1.0), dm_field=0.1)
    results = []
    for chunk_bytes in (16 * 1024, 4 * 1024 * 1024):
        monkeypatch.setattr(propagator_module, "_CHUNK_BYTES", chunk_bytes)
        results.append((fidelity_lattice(params, state, DEFAULT_TAU_GRID, 500),
                        continuous_fidelity_series(params, CONTINUOUS_TIMES, state)))
    (small_lattice, small_series), (large_lattice, large_series) = results
    assert small_lattice.shape == (100, 501) and small_series.shape == (5000,)
    assert np.array_equal(small_lattice, large_lattice)
    assert np.array_equal(small_series, large_series)


def test_ties_go_to_the_smallest_tau_then_the_smallest_kick_count():
    # Without exchange or static field H0 vanishes, so U0(tau) is exactly the
    # identity and every tau row of the lattice is the same: the maximum is
    # attained once per tau.
    params = ChainParams(uniform_profile(N, 0.0, 0.0), dm_field=0.0)
    taus = (0.5, 1.0, 1.5)
    lattice = fidelity_lattice(params, "omega0", taus, M_MAX, e1=E1)
    assert np.array_equal(lattice[0], lattice[1]) and np.array_equal(lattice[0], lattice[2])
    value, atau, am = max_fidelity(params, "omega0", taus, M_MAX, e1=E1)
    assert value == lattice.max()
    assert (atau, am) == (0.5, int(np.argmax(lattice[0])))
    assert (atau, am) == naive_argmax(lattice, taus)


def test_ties_within_a_lattice_follow_row_major_order(monkeypatch):
    lattice = np.array([[0.1, 0.2, 0.3, 0.2],
                        [0.4, 0.9, 0.2, 0.9],
                        [0.9, 0.1, 0.9, 0.0]])
    monkeypatch.setattr(sweep_module, "fidelity_lattice", lambda *args, **kwargs: lattice)
    value, atau, am = max_fidelity(params_for(), "omega0", (1.0, 2.0, 3.0), 3)
    assert (value, atau, am) == (0.9, 2.0, 1)


# -- the H0 eigenbasis loop ----------------------------------------------------------

def eigenbasis_lattice(params, state, taus, m_max, omega2_convention="re_amplitude"):
    """The eigenbasis loop called directly, its blocks scored as fidelity_lattice scores them."""
    k, sources, targets = probe(state)
    basis = enumerate_basis(N, k)
    taus = np.asarray(taus, dtype=float)
    e_vac = vacuum_energy(params)
    out = np.full((taus.size, m_max + 1), np.nan)
    for m0, amps in propagator_module._eigenbasis_blocks(
            params, basis, taus, E1, [index_of(basis, s) for s in sources],
            [index_of(basis, t) for t in targets], m_max):
        ms = np.arange(m0, m0 + amps.shape[1])
        out[:, ms] = fidelity_module.family_score(state, amps, np.multiply.outer(e_vac * taus, ms),
                                                  omega2_convention)
    return out


@pytest.mark.parametrize("m_max", [0, 1, 2, 30])
@pytest.mark.parametrize("omega2_convention", ["re_amplitude", "abs_amplitude"])
@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_eigenbasis_loop_matches_naive_loop(state, omega2_convention, m_max):
    params = params_for()
    want = naive_lattice(params, state, TAUS, m_max, "hamiltonian_tau", omega2_convention)
    got = eigenbasis_lattice(params, state, TAUS, m_max, omega2_convention)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    i, m = np.unravel_index(int(np.argmax(got)), got.shape)
    assert (TAUS[i], m) == naive_argmax(want, TAUS)


@pytest.mark.parametrize("loop", ["eigenbasis", "blocked"])
@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_each_kick_loop_column_zero_is_the_untouched_input(state, loop):
    k, sources, targets = probe(state)
    basis = enumerate_basis(N, k)
    src = [index_of(basis, s) for s in sources]
    tgt = [index_of(basis, t) for t in targets]
    params, taus = params_for(), np.array(TAUS)
    if loop == "eigenbasis":
        blocks = propagator_module._eigenbasis_blocks(params, basis, taus, E1, src, tgt, M_MAX)
    else:
        steps = propagator_module._floquet_builder(params, basis, E1, "hamiltonian_tau")(taus)
        b = propagator_module._kicks_per_iteration(M_MAX, basis.size, len(tgt))
        blocks = propagator_module._stroboscopic_blocks(steps, src, tgt, M_MAX, b)
    m0, amps = next(blocks)
    assert m0 == 0
    for t in range(len(TAUS)):
        assert np.array_equal(amps[t, 0], np.eye(basis.size)[np.ix_(tgt, src)])


def test_eigenbasis_loop_chunking_does_not_change_the_lattice(monkeypatch):
    params = params_for()
    whole = eigenbasis_lattice(params, "omega2", TAUS, M_MAX)
    dim = enumerate_basis(N, 2).size                   # two kicks of rows and amplitudes per chunk
    monkeypatch.setattr(propagator_module, "_CHUNK_BYTES", 3 * 16 * len(TAUS) * (dim + 9) - 1)
    chunked = eigenbasis_lattice(params, "omega2", TAUS, M_MAX)
    assert np.array_equal(chunked, whole)


def test_eigenbasis_loop_gives_identical_rows_when_h0_vanishes():
    params = ChainParams(uniform_profile(N, 0.0, 0.0), dm_field=0.0)
    lattice = eigenbasis_lattice(params, "omega0", (0.5, 1.0, 1.5), M_MAX)
    assert np.array_equal(lattice[0], lattice[1]) and np.array_equal(lattice[0], lattice[2])


def test_the_eigenbasis_loop_runs_on_many_taus_with_more_targets_than_sources(monkeypatch):
    """The loop follows the family's shape and whether the grid has more than one tau.

    Only omega2 (one source, 2N - 3 targets) on a grid of two taus or more
    under "hamiltonian_tau" runs in the eigenbasis; omega0 (1 and 1) and
    omega1 (2 and 2) run blocked on any grid, and so does every one-tau
    series.  literal_eq5 has no shared eigenbasis.
    """
    taken = []
    for name in ("_eigenbasis_blocks", "_stroboscopic_blocks"):
        loop = getattr(propagator_module, name)
        monkeypatch.setattr(propagator_module, name,
                            lambda *args, _loop=loop, _name=name: taken.append(_name)
                            or _loop(*args))
    params = ChainParams(uniform_profile(10, 1.0, -1.0), dm_field=0.1)

    def loops(*args, **kwargs):
        taken.clear()
        fidelity_lattice(params, *args, **kwargs)
        return set(taken)

    assert loops("omega2", DEFAULT_TAU_GRID, 500) == {"_eigenbasis_blocks"}
    assert loops("omega0", DEFAULT_TAU_GRID, 500) == {"_stroboscopic_blocks"}
    assert loops("omega1", DEFAULT_TAU_GRID, 500) == {"_stroboscopic_blocks"}
    assert loops("omega2", (2.0,), 500) == {"_stroboscopic_blocks"}
    assert loops("omega2", (2.0,), 20000) == {"_stroboscopic_blocks"}
    assert loops("omega2", DEFAULT_TAU_GRID, 500,
                 u0_convention="literal_eq5") == {"_stroboscopic_blocks"}
    assert loops("omega1", float_grid(0.02, 10.0, 0.02), 500) == {"_stroboscopic_blocks"}
    assert loops("omega2", (2.0, 5.6), 500) == {"_eigenbasis_blocks"}


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_a_cell_has_the_same_value_on_every_grid_that_holds_its_tau(state):
    """A lattice cell depends on its own tau, not on the rest of its grid.

    At N = 10, J2/J1 = -1, e1 = 1 and 500 kicks, every cell of the default
    grid is bit-identical on tau step 0.02 and on a two-tau sub-grid.  A
    one-tau series always runs blocked, so for omega2, which runs in the H0
    eigenbasis on longer grids, it agrees with its row by round-off only.
    """
    params = ChainParams(uniform_profile(10, 1.0, -1.0), dm_field=0.1)
    coarse = fidelity_lattice(params, state, DEFAULT_TAU_GRID, 500)
    fine_taus = float_grid(0.02, 10.0, 0.02)
    fine = fidelity_lattice(params, state, fine_taus, 500)
    assert np.array_equal(fine[[fine_taus.index(tau) for tau in DEFAULT_TAU_GRID]], coarse)
    pair = fidelity_lattice(params, state, (2.0, 5.6), 500)
    assert np.array_equal(pair, coarse[[DEFAULT_TAU_GRID.index(2.0),
                                        DEFAULT_TAU_GRID.index(5.6)]])
    single = fidelity_lattice(params, state, (2.0,), 500)[0]
    if state == "omega2":
        assert np.abs(single - pair[0]).max() <= 1e-12
    else:
        assert np.array_equal(single, pair[0])


# -- B kicks per loop iteration -------------------------------------------------------

# (m_max, B): the kicks per iteration at that m_max, where m_max + 1 kicks end
# one short of, on, and one past a whole number of iterations.
BLOCK_EDGES = [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2), (14, 4), (15, 4), (16, 4),
               (62, 8), (63, 8), (64, 8)]


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
@pytest.mark.parametrize("m_max,b", BLOCK_EDGES)
def test_blocked_loop_matches_naive_loop_around_block_edges(m_max, b, state):
    k, _, targets = probe(state)
    dim = enumerate_basis(N, k).size
    assert propagator_module._kicks_per_iteration(m_max, dim, len(targets)) == b
    params = params_for()
    want = naive_lattice(params, state, TAUS, m_max, "hamiltonian_tau", "re_amplitude")
    got = fidelity_lattice(params, state, TAUS, m_max, e1=E1)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("u0_convention", ["hamiltonian_tau", "literal_eq5"])
@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_blocked_loop_matches_naive_loop_over_5000_kicks(state, u0_convention):
    params = params_for()
    want = naive_lattice(params, state, (2.1,), 5000, u0_convention, "re_amplitude")[0]
    got = fidelity_series(params, KickSchedule(tau=2.1, e1=E1, n_kicks=5000), state,
                          u0_convention=u0_convention)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n_kicks", [0, 1, 7, 8, 9, 63, 64, 65, 5000])
def test_kicked_columns_and_evolve_kicked_match_repeated_products(n_kicks):
    # whole kicked columns off kick_lattice, with every target, against repeated products;
    # the kick counts straddle the blocked loop's iteration boundaries
    basis = enumerate_basis(N, 2)
    schedule = KickSchedule(tau=1.3, e1=E1)
    step = kick_step(params_for(), schedule, basis)
    sources = [0, 4, 9]
    got = amplitude_columns(params_for(), schedule, basis, sources, n_kicks)
    one = amplitude_columns(params_for(), schedule, basis, sources[1:2], n_kicks)
    want = np.eye(basis.size, dtype=complex)[:, sources]
    for m in range(n_kicks + 1):
        assert np.abs(got[m] - want).max() <= 1e-12
        assert np.abs(one[m] - want[:, 1:2]).max() <= 1e-12
        want = step @ want


# -- elementwise scorers ----------------------------------------------------------

def unitary_columns(rng, dim, count):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q[:, :count]


def test_array_scorers_equal_scalar_scorers_elementwise():
    rng = np.random.default_rng(5)
    cols = np.stack([unitary_columns(rng, 15, 2) for _ in range(40)])    # (40, 15, 2)
    # each scorer on the whole stack equals its own per-element calls, and a
    # scalar in gives a float
    f = cols[:, 0, 0]
    singles = [single_qubit_fidelity(x) for x in f]
    assert np.array_equal(single_qubit_fidelity(f), singles)
    near, far, cross_near, cross_far = cols[:, 0, 0], cols[:, 1, 1], cols[:, 0, 1], cols[:, 1, 0]
    pairs = [bell_fidelity_omega1(*args) for args in zip(near, far, cross_near, cross_far)]
    assert np.array_equal(bell_fidelity_omega1(near, far, cross_near, cross_far), pairs)
    cross, final = cols[:, :-1, 0], cols[:, -1, 0]
    for convention in ("re_amplitude", "abs_amplitude"):
        vacua = [bell_fidelity_omega2(c, g, convention) for c, g in zip(cross, final)]
        assert np.array_equal(bell_fidelity_omega2(cross, final, convention), vacua)
        assert all(isinstance(v, float) for v in singles + pairs + vacua)


def test_single_qubit_array_clips_to_the_unit_interval():
    f = np.array([1.0 + 5e-10, -1.0, 0.0, 1j, 0.6 - 0.8j])
    values = single_qubit_fidelity(f)
    assert values[0] == 1.0
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.array_equal(values, [single_qubit_fidelity(x) for x in f])


def test_single_qubit_array_rejects_moduli_beyond_one():
    with pytest.raises(ValueError, match="exceeds 1"):
        single_qubit_fidelity(np.array([0.5, 1.0 + 1e-4j, 0.0]))
    with pytest.raises(ValueError, match="exceeds 1") as err:
        single_qubit_fidelity(1.0 + 1e-4j)
    assert err.value.field == "f"
    # a NaN modulus is no evidence of a unitary propagator either
    for f in (float("nan"), np.array([0.5, complex(0.0, float("nan"))])):
        with pytest.raises(ValueError, match="exceeds 1") as err:
            single_qubit_fidelity(f)
        assert err.value.field == "f"


def test_omega2_array_is_unclamped_above_one():
    values = bell_fidelity_omega2(np.zeros((3, 4)), np.array([1.0, -1.0, 1j]), "abs_amplitude")
    assert np.array_equal(values, [7.0 / 6.0] * 3)
    assert bell_fidelity_omega2(np.zeros(4), 1.0) == 7.0 / 6.0


# -- hoisting ------------------------------------------------------------------------

def count_calls(monkeypatch, name, original):
    """Wrap a function in every package module that holds it; returns the call counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (model_module, propagator_module, fidelity_module, sweep_module):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_hamiltonian_and_eigendecompositions_do_not_scale_with_the_tau_grid(monkeypatch):
    builds = count_calls(monkeypatch, "build_hamiltonian", model_module.build_hamiltonian)
    eighs = count_calls(monkeypatch, "eigendecompose", propagator_module.eigendecompose)
    counts = []
    for taus in (DEFAULT_TAU_GRID[:5], DEFAULT_TAU_GRID):
        builds[0] = eighs[0] = 0
        max_fidelity(params_for(), "omega2", taus, m_max=3)
        counts.append((builds[0], eighs[0]))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 3 and counts[0][1] <= 2


def test_conformance_report_builds_and_diagonalises_each_sector_once_per_point(monkeypatch):
    # one (N, t) point: the k=1 and k=2 sector blocks are built and exponentiated
    # once and shared by the literal values, the direct oracle and the family
    # average; the vacuum energy is read off the 1x1 k=0 block, for the sweeps'
    # vacuum gauge and for the vacuum phase of the omega2 branch, and never
    # diagonalised
    sectors = []
    original = model_module.build_hamiltonian

    def recorded(params, basis):
        sectors.append(basis.n_excitations)
        return original(params, basis)

    for module in (model_module, propagator_module, sweep_module, partial_trace):
        if hasattr(module, "build_hamiltonian"):
            monkeypatch.setattr(module, "build_hamiltonian", recorded)
    eighs = count_calls(monkeypatch, "eigendecompose", propagator_module.eigendecompose)
    conformance_report((5,), (1.0,))
    assert sorted(sectors) == [0, 0, 1, 2]
    assert eighs[0] == 2
