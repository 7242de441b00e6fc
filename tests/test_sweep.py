"""Grid sweeps, the no-kick branch, tie-breaking, and the periodogram."""

import numpy as np
import pytest

import kickedchain.sweep as sweep_module
from kickedchain import (
    CONTINUOUS_TIMES,
    DEFAULT_TAU_GRID,
    ChainParams,
    CouplingProfile,
    KickSchedule,
    SweepPlan,
    apply_impurity,
    bell_fidelity_omega1,
    bell_fidelity_omega2,
    build_hamiltonian,
    classical_threshold,
    continuous_fidelity_series,
    eigendecompose,
    enumerate_basis,
    fidelity_lattice,
    fidelity_series,
    float_grid,
    impurity_from_strength,
    index_of,
    max_fidelity,
    periodogram,
    single_qubit_fidelity,
    sweep_axis,
    uniform_profile,
    unitary_exp,
    vacuum_phase,
)
from kickedchain.sweep import _phase_table


def params_for(n, j1=1.0, j2=-1.0, e=0.1, b=0.0):
    return ChainParams(uniform_profile(n, j1, j2), dm_field=e, b_field=b)


def sector_eigenvalues(n, k):
    return eigendecompose(build_hamiltonian(params_for(n), enumerate_basis(n, k)))[0]


# -- grids ----------------------------------------------------------------------

def test_float_grid_values_are_decimal_clean():
    grid = float_grid(0.1, 10.0, 0.1)
    assert len(grid) == 100
    assert grid[0] == 0.1 and grid[-1] == 10.0
    assert 0.3 in grid and 2.0 in grid
    assert grid == DEFAULT_TAU_GRID


def test_float_grid_endpoint_handling():
    assert float_grid(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert float_grid(0.0, 1.0, 0.3) == (0.0, 0.3, 0.6, 0.9)
    assert float_grid(2.0, 2.0, 0.5) == (2.0,)
    assert float_grid(1.0, 2.2, 0.1) == (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6,
                                         1.7, 1.8, 1.9, 2.0, 2.1, 2.2)


def test_float_grid_validation():
    with pytest.raises(ValueError):
        float_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        float_grid(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        float_grid(2.0, 1.0, 0.1)


def test_continuous_times_cover_one_to_5000():
    assert CONTINUOUS_TIMES[0] == 1
    assert CONTINUOUS_TIMES[-1] == 5000
    assert len(CONTINUOUS_TIMES) == 5000


# -- stroboscopic and continuous series -------------------------------------------

def test_series_initial_values_are_exact():
    p = params_for(6)
    sched = KickSchedule(tau=2.0, e1=1.0, n_kicks=5)
    assert fidelity_series(p, sched, "omega0")[0] == 0.5
    assert fidelity_series(p, sched, "omega1")[0] == 0.0
    assert fidelity_series(p, sched, "omega2")[0] == 0.5


def test_series_length_and_budget_default():
    p = params_for(5)
    sched = KickSchedule(tau=1.0, e1=1.0, n_kicks=7)
    assert fidelity_series(p, sched, "omega0").shape == (8,)
    assert fidelity_series(p, sched, "omega0", m_max=3).shape == (4,)


def test_series_values_stay_physical_for_omega0_and_omega1():
    p = params_for(6)
    sched = KickSchedule(tau=2.0, e1=1.0)
    for state in ("omega0", "omega1"):
        series = fidelity_series(p, sched, state, m_max=200)
        assert series.min() >= 0.0 and series.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_zero_amplitude_kicks_reproduce_continuous_evolution(state):
    # with e1 = 0 the stroboscopic series is continuous evolution sampled at m*tau
    n, tau, m_max = 6, 0.7, 100
    sched = KickSchedule(tau=tau, e1=0.0)
    kicked = fidelity_series(params_for(n), sched, state, m_max=m_max)
    times = [tau * m for m in range(m_max + 1)]
    continuous = continuous_fidelity_series(params_for(n, e=0.1), times, state)
    assert np.abs(kicked - continuous).max() < 1e-9


def test_the_chain_dm_field_is_the_only_static_field():
    # zero-amplitude kicks at tau = 1 sample continuous evolution at integer
    # times under the chain's own DM field, which nothing else overrides
    params = params_for(6, e=0.37)
    k = 60
    kicked = fidelity_lattice(params, "omega0", (1.0,), k, e1=0.0)[0]
    continuous = continuous_fidelity_series(params, range(0, k + 1), "omega0")
    assert np.abs(kicked - continuous).max() <= 1e-12


def test_bell_states_need_four_sites():
    p = params_for(3)
    with pytest.raises(ValueError):
        fidelity_series(p, KickSchedule(tau=1.0, e1=1.0), "omega1", m_max=2)
    with pytest.raises(ValueError):
        continuous_fidelity_series(p, [1.0], "omega2")


def test_continuous_series_matches_per_time_amplitudes():
    from kickedchain import build_hamiltonian, enumerate_basis, index_of
    from kickedchain import single_qubit_fidelity, unitary_exp, vacuum_phase
    p = params_for(5)
    times = [0.9, 3.7, 11.0]
    series = continuous_fidelity_series(p, times, "omega0")
    basis = enumerate_basis(5, 1)
    h = build_hamiltonian(p, basis)
    for t, got in zip(times, series):
        u = unitary_exp(h, t)
        f = u[index_of(basis, (5,)), index_of(basis, (1,))]
        want = single_qubit_fidelity(f * vacuum_phase(p, t).conjugate())
        assert abs(got - want) < 1e-12


# -- the kick-free phase table ----------------------------------------------------

def phase_bound(w, t):
    """Both tables round each phase w*t to within about half an ulp, so entries
    may differ by a little over one ulp of |w| t, plus the exp and product round-off."""
    return 2 * np.spacing(np.abs(np.multiply.outer(w, t))) + 8 * np.finfo(float).eps


@pytest.mark.parametrize("t0, dt, n", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.0, 7),
                                       (1.0, 1.0, 5000), (0.5, 0.25, 20000)])
def test_factorized_phase_table_matches_direct_exponentials(t0, dt, n):
    w = sector_eigenvalues(10, 2)
    t = t0 + dt * np.arange(n)
    want = np.exp(-1j * np.outer(w, t))
    got = _phase_table(w, t)
    assert got.shape == want.shape == (45, n)
    assert np.all(np.abs(got - want) <= phase_bound(w, t))


def test_phase_table_takes_about_two_sqrt_n_exponentials_per_eigenvalue(monkeypatch):
    w = sector_eigenvalues(10, 2)
    entries = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda z: entries.append(np.size(z)) or exp(z))
    _phase_table(w, np.asarray(CONTINUOUS_TIMES, dtype=float))
    assert sum(entries) == 45 * (71 + 71)   # R = ceil(sqrt(5000)) = 71 = Q
    entries.clear()
    _phase_table(w, np.array([1.0, 2.0, 4.0]))
    assert sum(entries) == 45 * 3


def test_unevenly_spaced_grid_keeps_the_direct_exponentials():
    w = sector_eigenvalues(10, 2)
    t = np.array([0.5, 1.0, 2.0, 3.5, 4999.9])
    assert np.array_equal(_phase_table(w, t), np.exp(-1j * np.outer(w, t)))
    # a decimal-clean grid is even only up to round-off, so it is not factorized either
    t = np.array(float_grid(0.1, 0.4, 0.1))
    assert not np.array_equal(t, t[0] + (t[1] - t[0]) * np.arange(4))
    assert np.array_equal(_phase_table(w, t), np.exp(-1j * np.outer(w, t)))


def per_time_fidelity(p, state, t):
    """One propagator exp(-iHt) per time, scored with the scalar closed forms."""
    n = p.profile.n_sites
    basis = enumerate_basis(n, 2 if state == "omega2" else 1)
    u = unitary_exp(build_hamiltonian(p, basis), t)
    amp = lambda target, source: u[index_of(basis, target), index_of(basis, source)]
    if state == "omega0":
        return single_qubit_fidelity(amp((n,), (1,)) * vacuum_phase(p, t).conjugate())
    if state == "omega1":
        return bell_fidelity_omega1(amp((n - 1,), (1,)), amp((n,), (2,)),
                                    amp((n - 1,), (2,)), amp((n,), (1,)))
    cross = [amp((m, r), (1, 2)) for r in (n - 1, n) for m in range(1, n - 1)]
    return bell_fidelity_omega2(cross, amp((n - 1, n), (1, 2)))


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_continuous_series_on_the_probe_grid_matches_per_time_propagators(state):
    p = params_for(10)
    series = continuous_fidelity_series(p, CONTINUOUS_TIMES, state)
    for t in (1, 2, 2500, 4999, 5000):
        assert abs(series[t - 1] - per_time_fidelity(p, state, float(t))) < 1e-11


# -- exhaustive maxima ------------------------------------------------------------

def test_max_fidelity_scans_the_lattice():
    p = params_for(5)
    taus = (0.5, 1.0, 2.0)
    val, atau, am = max_fidelity(p, "omega0", taus, m_max=40)
    assert atau in taus and 0 <= am <= 40
    series = fidelity_series(p, KickSchedule(tau=atau, e1=1.0), "omega0", 40)
    assert val == series.max()
    assert series[am] == val


def test_max_fidelity_no_kick_branch_reports_time_in_kick_slot():
    p = params_for(5)
    val, atau, am = max_fidelity(p, "omega0", (1.0, 2.0), m_max=10, e1=0.0,
                                 continuous_times=range(1, 101))
    assert atau == 1.0
    assert 1 <= am <= 100
    series = continuous_fidelity_series(p, range(1, 101), "omega0")
    assert val == series.max() and series[am - 1] == val


def test_flat_landscape_ties_go_to_the_earliest_time():
    # zero couplings freeze the dynamics: fidelity is 0.5 at every time
    p = ChainParams(uniform_profile(4, 0.0, 0.0))
    val, atau, am = max_fidelity(p, "omega0", (1.0, 2.0), m_max=5, e1=0.0,
                                 continuous_times=range(1, 50))
    assert (val, atau, am) == (0.5, 1.0, 1)


def test_tau_ties_go_to_the_smallest_interval():
    # with no static Hamiltonian every interval gives the same kick series;
    # 40 kicks of 0.3 sweep the swap angle past 3*pi/2 where transfer peaks
    p = ChainParams(uniform_profile(2, 0.0, 0.0))
    val, atau, am = max_fidelity(p, "omega0", (0.5, 1.0, 2.0), m_max=40, e1=0.3)
    assert atau == 0.5
    assert val > 0.9
    assert 25 <= am <= 40


# -- sweep plans ------------------------------------------------------------------

def test_single_point_tau_sweep_equals_direct_maximum():
    p = params_for(5)
    plan = SweepPlan(params=p, axis="tau", grid=(2.0,), states=("omega0",),
                     m_max=40)
    row = sweep_axis(plan)[0]
    val, atau, am = max_fidelity(p, "omega0", (2.0,), m_max=40)
    assert (row.max_fidelity, row.argmax_tau, row.argmax_kicks) == (val, atau, am)
    assert row.grid_value == 2.0 and row.grid_index == 0
    assert not row.out_of_range


def test_e1_axis_switches_to_continuous_at_zero():
    plan = SweepPlan(params=params_for(5), axis="e1", grid=(0.0, 1.0),
                     states=("omega0",), tau_grid=(0.5, 1.0), m_max=30)
    rows = sweep_axis(plan)
    by_value = {row.grid_value: row for row in rows}
    assert by_value[0.0].argmax_tau == 1.0
    assert by_value[0.0].argmax_kicks >= 1
    assert by_value[1.0].argmax_tau in (0.5, 1.0)


def test_j2_over_j1_axis_rebuilds_a_uniform_profile():
    template = params_for(6, j1=1.3, j2=0.0)
    plan = SweepPlan(params=template, axis="j2_over_j1", grid=(-1.0, 0.5),
                     states=("omega0",), tau_grid=(1.0, 2.0), m_max=30)
    rows = sweep_axis(plan)
    manual = max_fidelity(params_for(6, j1=1.3, j2=1.3 * 0.5), "omega0",
                          (1.0, 2.0), m_max=30)
    got = rows[1]
    assert (got.max_fidelity, got.argmax_tau, got.argmax_kicks) == manual


def test_impurity_ratio_axis_scales_strength_per_point():
    template = impurity_from_strength("type1", 4, 1.0)
    plan = SweepPlan(params=params_for(7), axis="impurity_ratio",
                     grid=(1.0, 1.8), states=("omega0",), impurity=template,
                     tau_grid=(1.0, 2.0), m_max=30)
    rows = sweep_axis(plan)
    spec = impurity_from_strength("type1", 4, 1.8)
    perturbed = ChainParams(apply_impurity(uniform_profile(7, 1.0, -1.0), spec),
                            dm_field=0.1, b_field=0.0)
    manual = max_fidelity(perturbed, "omega0", (1.0, 2.0), m_max=30)
    got = rows[1]
    assert (got.max_fidelity, got.argmax_tau, got.argmax_kicks) == manual


def test_kick_count_axis_scores_the_series_endpoint():
    p = params_for(5)
    plan = SweepPlan(params=p, axis="kick_count", grid=(0.0, 3.0),
                     states=("omega0",), tau_grid=(1.0, 2.0))
    rows = sweep_axis(plan)
    assert rows[0].max_fidelity == 0.5            # zero kicks: untouched input
    assert rows[0].argmax_tau == 1.0              # flat in tau, ties to first
    assert rows[0].argmax_kicks == 0
    endpoints = [
        fidelity_series(p, KickSchedule(tau=tau, e1=1.0), "omega0", 3)[-1]
        for tau in (1.0, 2.0)
    ]
    assert rows[1].max_fidelity == max(endpoints)
    assert rows[1].argmax_kicks == 3


def test_rows_come_back_in_grid_then_state_order():
    plan = SweepPlan(params=params_for(5), axis="tau", grid=(1.0, 2.0),
                     states=("omega0", "omega1"), m_max=10)
    rows = sweep_axis(plan)
    labels = [(row.grid_index, row.state) for row in rows]
    assert labels == [(0, "omega0"), (0, "omega1"), (1, "omega0"), (1, "omega1")]


def test_worker_count_does_not_change_results():
    plan = SweepPlan(params=params_for(5), axis="tau", grid=(0.5, 1.0, 1.5, 2.0),
                     states=("omega0", "omega2"), m_max=25)
    assert sweep_axis(plan, workers=1) == sweep_axis(plan, workers=4)


def test_sweep_rows_equal_max_fidelity():
    plan = SweepPlan(params=params_for(5), axis="tau", grid=(1.0, 2.0),
                     states=("omega0",), m_max=20)
    for row in sweep_axis(plan):
        assert (row.max_fidelity, row.argmax_tau, row.argmax_kicks) == \
            max_fidelity(params_for(5), "omega0", (row.grid_value,), 20)

    # at N = 10 the omega2 lattice on the default tau grid runs in the H0 eigenbasis
    omega2 = SweepPlan(params=params_for(10), axis="e1", grid=(1.0,), states=("omega2",))
    row = sweep_axis(omega2)[0]
    assert (row.max_fidelity, row.argmax_tau, row.argmax_kicks) == \
        max_fidelity(params_for(10), "omega2")


def test_canonical_maxima_depend_on_the_tau_step():
    # A lattice maximum is exact for its lattice but not converged in the tau step:
    # at the canonical point (N = 10, J2/J1 = -1, e1 = 1, m <= 500) halving the
    # step lifts the omega1 maximum across the classical 2/3, while omega0 keeps
    # its maximum at the same lattice point.
    expected = {  # (tau step, state): (maximum, argmax tau, argmax kicks, above 2/3)
        (0.1, "omega0"): (0.9394008557674434, 0.2, 265, True),
        (0.05, "omega0"): (0.9394008557674434, 0.2, 265, True),
        (0.1, "omega1"): (0.6399033127702366, 9.6, 132, False),
        (0.05, "omega1"): (0.6780891940583381, 9.25, 154, True),
    }
    for (step, state), (value, tau, kicks, above) in expected.items():
        got, got_tau, got_kicks = max_fidelity(params_for(10), state,
                                               float_grid(step, 10.0, step), m_max=500)
        assert got == pytest.approx(value, abs=1e-9), (step, state)
        assert (got_tau, got_kicks) == (tau, kicks), (step, state)
        assert (got > classical_threshold()) == above, (step, state)


def test_kicked_sweep_takes_one_lattice_per_point_and_state(monkeypatch):
    plan = SweepPlan(params=params_for(5), axis="e1", grid=(0.5, 1.0),
                     states=("omega0", "omega2"), tau_grid=(0.5, 1.0, 1.5), m_max=20)
    calls = []
    compute = sweep_module.kick_lattice
    monkeypatch.setattr(sweep_module, "kick_lattice",
                        lambda *args, **kw: calls.append(args[1].n_excitations)
                        or compute(*args, **kw))
    rows = sweep_axis(plan)
    assert calls == [1, 2] * 2
    monkeypatch.undo()

    for row in rows:
        assert (row.max_fidelity, row.argmax_tau, row.argmax_kicks) == \
            max_fidelity(params_for(5), row.state, plan.tau_grid, 20, e1=row.grid_value)


def test_kick_free_series_is_computed_once_per_point_and_state(monkeypatch):
    plan = SweepPlan(params=params_for(5), axis="j2_over_j1", grid=(-1.0, 0.5),
                     states=("omega0", "omega2"), e1=0.0)
    calls = []
    compute = sweep_module.continuous_fidelity_series
    monkeypatch.setattr(sweep_module, "continuous_fidelity_series",
                        lambda *args, **kw: calls.append(args[2]) or compute(*args, **kw))
    rows = sweep_axis(plan)
    assert calls == ["omega0", "omega2"] * 2
    monkeypatch.undo()

    for row in rows:
        p = params_for(5, j2=row.grid_value)
        assert (row.max_fidelity, row.argmax_tau, row.argmax_kicks) == \
            max_fidelity(p, row.state, e1=0.0)


def test_failing_grid_point_reports_its_position():
    template = impurity_from_strength("type2", 4, 1.0)
    plan = SweepPlan(params=params_for(7), axis="impurity_ratio", grid=(0.5,),
                     states=("omega0",), impurity=template,
                     tau_grid=(1.0,), m_max=5)
    with pytest.raises(RuntimeError, match=r"sweep point 0 \(grid value 0\.5\)"):
        sweep_axis(plan)


def test_plan_validation_errors():
    p = params_for(5)
    good = dict(params=p, axis="tau", grid=(1.0,), states=("omega0",))
    SweepPlan(**good)
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "axis": "temperature"})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "grid": ()})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "grid": (2.0, 1.0)})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "tau_grid": (0.0, 1.0)})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "states": ()})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "states": ("omega3",)})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "states": ("omega0", "omega0")})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "m_max": 0})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "u0_convention": "eq5"})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "omega2_convention": "modulus"})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "axis": "impurity_ratio"})      # no impurity template
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "axis": "kick_count", "grid": (1.5,)})
    with pytest.raises(ValueError):
        SweepPlan(**{**good, "grid": (-1.0, 1.0)})             # tau axis: intervals > 0
    SweepPlan(**{**good, "axis": "e1", "grid": (-1.0, 1.0)})
    ragged = ChainParams(CouplingProfile(5, (1.0, 2.0, 1.0, 1.0),
                                         (-1.0, -1.0, -1.0)))
    with pytest.raises(ValueError):
        SweepPlan(params=ragged, axis="j2_over_j1", grid=(1.0,), states=("omega0",))
    with pytest.raises(ValueError):
        sweep_axis(SweepPlan(**good), workers=0)


# -- periodogram ------------------------------------------------------------------

def test_periodogram_of_pure_tone_finds_its_frequency():
    n = np.arange(64)
    series = 0.6 + 0.1 * np.cos(2 * np.pi * 8 * n / 64)
    freqs, mags, dominant = periodogram(series)
    assert dominant == 8 / 64
    assert freqs[np.argmax(mags[1:]) + 1] == dominant
    assert mags.shape == freqs.shape == (64,)


def test_periodogram_of_constant_series_has_no_dominant_frequency():
    _, mags, dominant = periodogram(np.full(32, 0.7))
    assert dominant is None
    assert mags.max() < 1e-12


def test_periodogram_breaks_ties_toward_the_lowest_frequency():
    # impulse spectrum: every nonzero bin has exactly unit magnitude
    freqs, mags, dominant = periodogram([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(mags[1:], np.ones(3))
    assert dominant == 0.25


def test_periodogram_dominant_frequency_of_a_real_series_is_at_most_one_half():
    # bins k and L-k of a real series have equal magnitude; the lower one is reported
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.normal(size=int(rng.integers(4, 130)))
        freqs, mags, dominant = periodogram(x)
        assert dominant <= 0.5
        assert mags[round(dominant * x.size)] >= mags[1:].max() * (1 - 1e-12)


def test_periodogram_dominant_bin_does_not_move_under_round_off():
    # configs/fig4a.yaml: omega0 after each of 500 kicks at tau = 2
    series = fidelity_series(params_for(10), KickSchedule(tau=2.0, e1=1.0),
                             "omega0", 500)
    _, _, dominant = periodogram(series)
    assert dominant is not None and dominant <= 0.5
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert periodogram(series + 1e-13 * rng.normal(size=series.size))[2] == dominant


def test_periodogram_respects_parseval():
    rng = np.random.default_rng(8)
    x = rng.normal(size=100)
    _, mags, _ = periodogram(x)
    y = x - x.mean()
    assert abs(np.sum(y ** 2) - np.sum(mags ** 2) / x.size) < 1e-9


def test_periodogram_input_validation():
    with pytest.raises(ValueError):
        periodogram([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        periodogram(np.ones((4, 4)))
