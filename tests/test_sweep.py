"""Grid sweeps, the no-kick branch, tie-breaking, and the periodogram."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import kickedchain.propagator as propagator_module
import kickedchain.sweep as sweep_module
from kickedchain import (
    CONTINUOUS_TIMES,
    DEFAULT_TAU_GRID,
    KNOWN_STATES,
    OMEGA2_CONVENTIONS,
    U0_CONVENTIONS,
    ChainParams,
    CouplingProfile,
    ImpuritySpec,
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
    kick_lattice,
    kick_step,
    max_fidelity,
    periodogram,
    single_qubit_fidelity,
    sweep_axis,
    uniform_profile,
    unitary_exp,
)
from kickedchain.model import FieldError
from kickedchain.propagator import _per_chunk
from partial_trace import vacuum_phase


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
    for bounds, field in [((0.0, 1.0, 0.0), "step"), ((0.0, 1.0, -0.1), "step"),
                          ((2.0, 1.0, 0.1), "stop"), ((0.0, 1e6, 1.0), "step")]:
        with pytest.raises(FieldError) as err:
            float_grid(*bounds)
        assert err.value.field == field, bounds


def test_float_grid_rejects_too_many_points_before_making_any():
    assert len(float_grid(1.0, 100_000.0, 1.0)) == 100_000
    with pytest.raises(ValueError, match="at most 100000"):
        float_grid(0.0, 100_000.0, 1.0)                 # one point too many
    for step in (1e-5, 1e-9, 5e-324):                   # 990 001, 1e10 and infinitely many
        with pytest.raises(ValueError, match="at most 100000"):
            float_grid(0.1, 10.0, step)


def test_kick_free_probe_times_cover_one_to_5000():
    assert CONTINUOUS_TIMES[0] == 1
    assert CONTINUOUS_TIMES[-1] == 5000
    assert len(CONTINUOUS_TIMES) == 5000
    # a read-only int64 array, so a series casts it to float in C
    assert CONTINUOUS_TIMES.dtype == np.int64
    assert np.array_equal(CONTINUOUS_TIMES, np.arange(1, 5001))
    with pytest.raises(ValueError):
        CONTINUOUS_TIMES[0] = 2


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
    assert fidelity_series(p, KickSchedule(tau=1.0, e1=1.0, n_kicks=3), "omega0").shape == (4,)


def test_series_values_stay_physical_for_omega0_and_omega1():
    p = params_for(6)
    sched = KickSchedule(tau=2.0, e1=1.0, n_kicks=200)
    for state in ("omega0", "omega1"):
        series = fidelity_series(p, sched, state)
        assert series.min() >= 0.0 and series.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_zero_amplitude_kicks_reproduce_continuous_evolution(state):
    # with e1 = 0 the stroboscopic series is continuous evolution sampled at m*tau
    n, tau, m_max = 6, 0.7, 100
    sched = KickSchedule(tau=tau, e1=0.0, n_kicks=m_max)
    kicked = fidelity_series(params_for(n), sched, state)
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
    # rejected on the state, whichever entry scores it; a config reports it as run.states[i]
    p = params_for(3)
    for state, entry in [
        ("omega1", lambda: fidelity_series(p, KickSchedule(tau=1.0, e1=1.0, n_kicks=2), "omega1")),
        ("omega2", lambda: continuous_fidelity_series(p, [1.0], "omega2")),
        ("omega1", lambda: fidelity_lattice(p, "omega1", (1.0,), 2)),
        ("omega2", lambda: max_fidelity(p, "omega2", (1.0,), 2)),
        ("omega1", lambda: max_fidelity(p, "omega1", e1=0.0)),
    ]:
        with pytest.raises(FieldError) as err:
            entry()
        assert err.value.field == "state"
        assert str(err.value) == (f"Bell transfer ({state}) needs n_sites >= 4 "
                                  "so the receiver pair is distinct")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_intervals_and_times_are_rejected(bad):
    # a FieldError on the grid or the times, not rows of NaN with a RuntimeWarning
    p = params_for(5)
    with pytest.raises(FieldError, match="^tau_grid values must be finite$") as err:
        fidelity_lattice(p, "omega0", [bad], 5)
    assert err.value.field == "tau_grid"
    with pytest.raises(FieldError, match="^tau_grid values must be finite$") as err:
        kick_lattice(p, enumerate_basis(5, 1), (1.0, bad), 1.0, [0], [4], 5,
                     lambda amps, taus, ms: abs(amps[..., 0, 0]) ** 2)
    assert err.value.field == "tau_grid"
    with pytest.raises(FieldError, match="^times must be finite$") as err:
        continuous_fidelity_series(p, [bad, 1.0], "omega0")
    assert err.value.field == "times"


@pytest.mark.parametrize("times,shape", [(2.0, "()"), ([[1.0, 2.0], [3.0, 4.0]], "(2, 2)")],
                         ids=["scalar", "2-d"])
def test_times_that_are_not_1d_are_rejected(times, shape):
    # not an IndexError or a broadcast ValueError deep in the scoring
    with pytest.raises(FieldError) as err:
        continuous_fidelity_series(params_for(4), times, "omega0")
    assert err.value.field == "times"
    assert str(err.value) == f"times must be 1-d, got shape {shape}"


def test_continuous_series_matches_per_time_amplitudes():
    from kickedchain import build_hamiltonian, enumerate_basis, index_of
    from kickedchain import single_qubit_fidelity, unitary_exp
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


# -- the kick-free time split -----------------------------------------------------

def exp_arguments(monkeypatch, t):
    """The argument of each np.exp an omega2 series at N = 10 takes: the coarse, then the fine table.

    The omega2 score takes no exponential, so these are the series' only two.
    """
    arguments = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda z: arguments.append(np.asarray(z)) or exp(z))
    series = continuous_fidelity_series(params_for(10), t, "omega2")
    monkeypatch.setattr(np, "exp", exp)
    assert series.shape == (len(t),) and len(arguments) == 2
    return arguments


def phase_bound(w, t):
    """The split and the direct product each round the phase w*t to within about an ulp,
    so entries may differ by a little over one ulp of |w| t, plus the exp and product round-off."""
    return 2 * np.spacing(np.abs(np.multiply.outer(w, t))) + 8 * np.finfo(float).eps


@pytest.mark.parametrize("t0, dt, n", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.0, 7),
                                       (1.0, 1.0, 5000), (0.5, 0.25, 20000)])
def test_factorized_phase_table_matches_direct_exponentials(monkeypatch, t0, dt, n):
    w = sector_eigenvalues(10, 2)
    t = t0 + dt * np.arange(n)
    coarse, fine = (np.exp(z) for z in exp_arguments(monkeypatch, t))
    r = math.isqrt(n - 1) + 1 if n > 1 else 1
    assert coarse.shape == (-(-n // r), 45) and fine.shape == (45, r)
    # entry k = q*r + j of the table is coarse row q times fine column j
    table = (coarse.T[:, :, None] * fine[:, None, :]).reshape(45, -1)[:, :n]
    want = np.exp(-1j * np.outer(w, t))
    assert table.shape == want.shape == (45, n)
    assert np.all(np.abs(table - want) <= phase_bound(w, t))


def test_phase_table_takes_about_two_sqrt_n_exponentials_per_eigenvalue(monkeypatch):
    arguments = exp_arguments(monkeypatch, CONTINUOUS_TIMES)
    assert sum(z.size for z in arguments) == 45 * (71 + 71)  # R = isqrt(4999) + 1 = 71 = Q
    arguments = exp_arguments(monkeypatch, np.array([1.0, 2.0, 4.0]))
    assert sum(z.size for z in arguments) == 45 * (3 + 1)    # R = 1: a row per time, one column


def test_unevenly_spaced_grid_keeps_the_direct_exponentials(monkeypatch):
    w = sector_eigenvalues(10, 2)
    # a decimal-clean grid is even only up to round-off, so it is not factorized either
    clean = np.array(float_grid(0.1, 0.4, 0.1))
    assert not np.array_equal(clean, clean[0] + (clean[1] - clean[0]) * np.arange(4))
    for t in (np.array([0.5, 1.0, 2.0, 3.5, 4999.9]), clean, np.linspace(0.3, 700.0, 1001)):
        coarse, fine = exp_arguments(monkeypatch, t)
        # the coarse table is e^{-i w t} itself and the fine table exactly 1
        assert np.array_equal(coarse, -1j * np.outer(t, w))
        assert fine.shape == (45, 1) and np.array_equal(np.exp(fine), np.ones((45, 1)))


# B of the blocked loop at N = 10 and 500 kicks (16) and at 5 000 (64), the eigenbasis
# loop and the kick-free series (1)
@pytest.mark.parametrize("multiple", [16, 1, 64])
def test_a_chunk_is_whole_groups_of_items_within_the_byte_budget(multiple):
    # kick-free coarse rows of the probe grid at N = 10 (R = 71): (targets * sources) rows of
    # the product and of its result, dim + R columns in all
    assert _per_chunk(16 * 17 * (45 + 71)) == 12        # omega2
    assert _per_chunk(16 * 4 * (10 + 71)) == 75         # omega1
    assert _per_chunk(16 * 1 * (10 + 71)) == 303        # omega0
    for item in (16, 32, 160, 720, 16 * 120, 16 * 5000, 10 ** 7):
        n = _per_chunk(item, multiple)
        assert n % multiple == 0 and n >= multiple
        assert n == multiple or item * n <= propagator_module._CHUNK_BYTES


@pytest.mark.parametrize("times", [
    CONTINUOUS_TIMES,                                   # R = 71 = Q: the last row runs past n
    np.linspace(0.3, 700.0, 3001),                      # exactly even here: R = 55, base 0.3
    np.linspace(0.3, 700.0, 1001),                      # uneven: R = 1, a row per time
    np.array([3.0]),                                    # n = 1
    np.arange(1, 1001),                                 # R = 32 = Q, n = 31 * 32 + 8
], ids=["probe-grid", "even-linspace", "uneven", "one-time", "n-1000"])
@pytest.mark.parametrize("state", ["omega0", "omega1", "omega2"])
def test_narrow_blocks_give_the_same_series_bit_for_bit(monkeypatch, state, times):
    p = params_for(10)
    default = continuous_fidelity_series(p, times, state)
    monkeypatch.setattr(propagator_module, "_CHUNK_BYTES", 1)       # one coarse row per chunk
    assert _per_chunk(16 * 1 * (10 + 1)) == 1           # the smallest row here: omega0, R = 1
    narrow = continuous_fidelity_series(p, times, state)
    assert default.shape == narrow.shape == (len(times),)
    assert np.array_equal(narrow, default)


def test_series_memory_does_not_grow_with_the_probe_grid():
    # one (45, 200 000) phase table would be 144 MB; at R = 448 the coarse and fine
    # tables are 0.3 MB each and a chunk of two coarse rows 0.3 MB
    p = params_for(10)
    times = np.arange(1, 200_001)
    tracemalloc.start()
    try:
        series = continuous_fidelity_series(p, times, "omega2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (200_000,) and np.all(np.isfinite(series))
    assert peak < 12e6


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
    series = fidelity_series(p, KickSchedule(tau=atau, e1=1.0, n_kicks=40), "omega0")
    assert val == series.max()
    assert series[am] == val


def test_max_fidelity_no_kick_branch_reports_time_in_kick_slot():
    p = params_for(5)
    val, atau, am = max_fidelity(p, "omega0", (1.0, 2.0), m_max=10, e1=0.0)
    assert atau == 1.0
    assert 1 <= am <= 5000
    series = continuous_fidelity_series(p, CONTINUOUS_TIMES, "omega0")
    assert val == series.max() and series[am - 1] == val
    assert type(am) is int


def test_flat_landscape_ties_go_to_the_earliest_time():
    # zero couplings freeze the dynamics: fidelity is 0.5 at every time
    p = ChainParams(uniform_profile(4, 0.0, 0.0))
    val, atau, am = max_fidelity(p, "omega0", (1.0, 2.0), m_max=5, e1=0.0)
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
        fidelity_series(p, KickSchedule(tau=tau, e1=1.0, n_kicks=3), "omega0")[-1]
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


def test_failing_grid_point_reports_its_position(monkeypatch):
    def fail(*args, **kwargs):
        raise FloatingPointError("search failed")

    template = impurity_from_strength("type2", 4, 1.0)
    plan = SweepPlan(params=params_for(7), axis="impurity_ratio", grid=(1.5,),
                     states=("omega0",), impurity=template,
                     tau_grid=(1.0,), m_max=5)
    monkeypatch.setattr(sweep_module, "_maximum", fail)
    with pytest.raises(RuntimeError, match=r"sweep point 0 \(grid value 1\.5\)"):
        sweep_axis(plan)


def test_impurity_strength_grid_is_checked_when_the_plan_is_built():
    # a strength outside [1, 5) fails here, not at its sweep point
    template = impurity_from_strength("type2", 4, 1.0)
    good = dict(params=params_for(7), axis="impurity_ratio", states=("omega0",),
                impurity=template, tau_grid=(1.0,), m_max=5)
    SweepPlan(**good, grid=(1.0, 4.5))
    for grid in ((0.5, 1.0), (1.0, 5.0), (1.0, 6.0)):
        with pytest.raises(FieldError, match="impurity strength must lie in") as err:
            SweepPlan(**good, grid=grid)
        assert err.value.field == "grid"


def test_each_grid_value_is_judged_by_building_its_point():
    # a J2 = J1 * value that overflows fails on grid when the plan is built, not
    # at its sweep point and not on a field the plan does not have
    with pytest.raises(FieldError, match="j2_bonds must be finite") as err:
        SweepPlan(params=params_for(5, j1=1e300), axis="j2_over_j1", grid=(0.5, 1e10))
    assert err.value.field == "grid"
    assert str(err.value).startswith("j2_over_j1 grid value 1")
    # the grid value is judged first, then the template's site
    template = impurity_from_strength("type2", 9, 1.0)
    with pytest.raises(FieldError, match="impurity strength") as err:
        SweepPlan(params=params_for(5), axis="impurity_ratio", grid=(6.0,), impurity=template)
    assert err.value.field == "grid"


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
    for bell in ("omega1", "omega2"):                          # receiver pair overlaps senders
        with pytest.raises(ValueError, match="n_sites >= 4"):
            SweepPlan(**{**good, "params": params_for(3), "states": (bell,)})
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


NAN, INF = float("nan"), float("inf")


def _names(target) -> set[str]:
    if dataclasses.is_dataclass(target):
        return {f.name for f in dataclasses.fields(target)}
    return set(inspect.signature(target).parameters)


def test_every_field_error_names_a_field_or_parameter():
    # each library check a config value can reach raises FieldError with the
    # field of its dataclass or the parameter of its function; apply_impurity
    # checks its spec, so it names a field of ImpuritySpec
    plan = dict(params=params_for(5), axis="tau", grid=(1.0,), states=("omega0",))
    imp = dict(kind="type1", site=3, ratio_nn=1.5, ratio_nnn_strong=1.5, ratio_nnn_weak=0.8)
    template = ImpuritySpec(**imp)
    ragged = ChainParams(CouplingProfile(5, (1.0, 2.0, 1.0, 1.0), (-1.0, -1.0, -1.0)))
    cases = [
        (CouplingProfile, dict(n_sites=1, j1_bonds=(), j2_bonds=()), "n_sites"),
        (CouplingProfile, dict(n_sites=4, j1_bonds=(1.0,), j2_bonds=(0.0, 0.0)), "j1_bonds"),
        (CouplingProfile, dict(n_sites=4, j1_bonds=(1.0,) * 3, j2_bonds=(0.0,)), "j2_bonds"),
        (ImpuritySpec, {**imp, "kind": "type3"}, "kind"),
        (ImpuritySpec, {**imp, "ratio_nnn_strong": 0.5}, "ratio_nnn_strong"),
        (ImpuritySpec, {**imp, "ratio_nnn_weak": -0.8}, "ratio_nnn_weak"),
        (ImpuritySpec, {**imp, "ratio_nn": 0.5}, "ratio_nn"),
        (ImpuritySpec, {**imp, "kind": "type2", "ratio_nn": 0.0}, "ratio_nn"),
        (CouplingProfile, dict(n_sites=4, j1_bonds=(1.0, NAN, 1.0), j2_bonds=(0.0, 0.0)),
         "j1_bonds"),
        (CouplingProfile, dict(n_sites=4, j1_bonds=(1.0,) * 3, j2_bonds=(0.0, -INF)), "j2_bonds"),
        (ChainParams, dict(profile=uniform_profile(5, 1.0, -1.0), dm_field=NAN), "dm_field"),
        (ChainParams, dict(profile=uniform_profile(5, 1.0, -1.0), b_field=INF), "b_field"),
        (ImpuritySpec, {**imp, "ratio_nn": INF}, "ratio_nn"),
        (ImpuritySpec, {**imp, "ratio_nnn_strong": INF}, "ratio_nnn_strong"),
        (ImpuritySpec, {**imp, "ratio_nnn_weak": NAN}, "ratio_nnn_weak"),
        (impurity_from_strength, dict(kind="type2", site=3, strength=5.0), "strength"),
        (impurity_from_strength, dict(kind="type3", site=3, strength=1.5), "kind"),
        (apply_impurity, dict(profile=uniform_profile(5, 1.0, -1.0),
                              spec=ImpuritySpec(**{**imp, "site": 5})), "site"),
        (KickSchedule, dict(tau=0.0), "tau"),
        (KickSchedule, dict(tau=1.0, n_kicks=-1), "n_kicks"),
        (SweepPlan, {**plan, "axis": "temperature"}, "axis"),
        (SweepPlan, {**plan, "grid": ()}, "grid"),
        (SweepPlan, {**plan, "grid": (2.0, 1.0)}, "grid"),
        (SweepPlan, {**plan, "grid": (-1.0, 1.0)}, "grid"),
        (SweepPlan, {**plan, "tau_grid": (0.0, 1.0)}, "tau_grid"),
        (SweepPlan, {**plan, "states": ()}, "states"),
        (SweepPlan, {**plan, "states": ("omega3",)}, "states"),
        (SweepPlan, {**plan, "states": ("omega0", "omega0")}, "states"),
        (SweepPlan, {**plan, "m_max": 0}, "m_max"),
        (SweepPlan, {**plan, "u0_convention": "eq5"}, "u0_convention"),
        (SweepPlan, {**plan, "omega2_convention": "modulus"}, "omega2_convention"),
        (SweepPlan, {**plan, "axis": "impurity_ratio"}, "impurity"),
        (SweepPlan, {**plan, "axis": "impurity_ratio", "impurity": template,
                     "grid": (1.0, 6.0)}, "grid"),
        (SweepPlan, {**plan, "axis": "kick_count", "grid": (1.5,)}, "grid"),
        (SweepPlan, {**plan, "axis": "j2_over_j1", "params": ragged}, "params"),
    ]
    for target, kwargs, field in cases:
        with pytest.raises(FieldError) as err:
            target(**kwargs)
        names = _names(ImpuritySpec if target is apply_impurity else target)
        assert err.value.field == field, (target.__name__, kwargs)
        assert field in names, (target.__name__, field)


PLAN = dict(params=params_for(5), axis="tau", grid=(1.0,), states=("omega0",))
LATTICE = dict(params=params_for(5), basis=enumerate_basis(5, 1), taus=(1.0,), e1=1.0,
               sources=[0], targets=[4], score=lambda amps, taus, ms: abs(amps[..., 0, 0]) ** 2)


@pytest.mark.parametrize("target,kwargs,field", [
    (KickSchedule, dict(tau=NAN, e1=1.0, n_kicks=5), "tau"),
    (KickSchedule, dict(tau=INF), "tau"),
    (KickSchedule, dict(tau=1.0, e1=NAN), "e1"),
    (KickSchedule, dict(tau=1.0, e1=-INF), "e1"),
    (KickSchedule, dict(tau=1.0, n_kicks=2.5), "n_kicks"),
    (KickSchedule, dict(tau=1.0, n_kicks=True), "n_kicks"),
    (SweepPlan, {**PLAN, "grid": (1.0, NAN)}, "grid"),
    (SweepPlan, {**PLAN, "grid": (1.0, INF)}, "grid"),
    (SweepPlan, {**PLAN, "axis": "e1", "grid": (NAN,)}, "grid"),
    (SweepPlan, {**PLAN, "tau_grid": (INF,)}, "tau_grid"),
    (SweepPlan, {**PLAN, "tau_grid": (0.5, NAN)}, "tau_grid"),
    (SweepPlan, {**PLAN, "e1": NAN}, "e1"),
    (SweepPlan, {**PLAN, "e1": INF}, "e1"),
    (SweepPlan, {**PLAN, "axis": "e1", "m_max": 2.5}, "m_max"),
    (SweepPlan, {**PLAN, "axis": "e1", "m_max": True}, "m_max"),
    (kick_lattice, dict(LATTICE, m_max=True), "m_max"),
    (kick_lattice, dict(LATTICE, m_max=2.5), "m_max"),
    (kick_lattice, dict(LATTICE, m_max=-1), "m_max"),
], ids=["schedule-tau-nan", "schedule-tau-inf", "schedule-e1-nan", "schedule-e1-inf",
        "schedule-n_kicks-2.5", "schedule-n_kicks-true", "plan-grid-nan", "plan-grid-inf",
        "plan-e1-grid-nan", "plan-tau_grid-inf", "plan-tau_grid-nan", "plan-e1-nan",
        "plan-e1-inf", "plan-m_max-2.5", "plan-m_max-true", "lattice-m_max-true",
        "lattice-m_max-2.5", "lattice-m_max-negative"])
def test_non_finite_drive_and_grid_values_and_fractional_kick_counts_fail_on_their_field(
        target, kwargs, field):
    # at construction, not as NaN rows or a TypeError inside the kick loop
    with pytest.raises(FieldError) as err:
        target(**kwargs)
    assert err.value.field == field
    assert field in _names(target)


def test_numpy_integer_kick_counts_are_accepted():
    assert KickSchedule(tau=1.0, n_kicks=np.int64(3)).n_kicks == 3
    assert SweepPlan(**PLAN, m_max=np.int64(2)).m_max == 2
    assert _lattice_entry("kick_lattice", np.int64(3)).shape == (2, 4)
    assert _lattice_entry("fidelity_lattice", np.int64(3)).shape == (2, 4)
    assert _lattice_entry("max_fidelity", np.int64(3))[2] <= 3
    assert _lattice_entry("max_fidelity-kick-free", np.int64(3))[1] == 1.0


def _lattice_entry(entry, m_max):
    """One N = 6 omega0 search on tau (0.5, 1.0) through ``entry``, at kick budget ``m_max``."""
    p, taus = params_for(6), (0.5, 1.0)
    if entry == "kick_lattice":
        return kick_lattice(p, enumerate_basis(6, 1), taus, 1.0, [0], [5], m_max,
                            lambda amps, taus, ms: abs(amps[..., 0, 0]) ** 2)
    if entry == "fidelity_lattice":
        return fidelity_lattice(p, "omega0", taus, m_max)
    return max_fidelity(p, "omega0", taus, m_max=m_max, e1=0.0 if "kick-free" in entry else 1.0)


@pytest.mark.parametrize("m_max,message", [
    (2.5, "m_max must be an integer, got 2.5"),
    (True, "m_max must be an integer, got True"),
    (-5, "m_max must be >= 0, got -5"),
], ids=["fractional", "bool", "negative"])
@pytest.mark.parametrize("entry", ["kick_lattice", "fidelity_lattice", "max_fidelity",
                                   "max_fidelity-kick-free"])
def test_lattice_entries_reject_a_non_integer_kick_budget(entry, m_max, message):
    # not run as m_max = 1, nor a TypeError deep in the kick loop; the kick-free
    # search never builds the lattice, but still rejects a bad budget
    with pytest.raises(FieldError) as err:
        _lattice_entry(entry, m_max)
    assert err.value.field == "m_max"
    assert str(err.value) == message


def test_plan_rejects_an_impurity_template_off_its_chain():
    # site 9 on a 5-site chain: rejected when the plan is built, not at sweep point 0
    with pytest.raises(FieldError, match=r"\[2, 4\], got 9") as err:
        SweepPlan(**PLAN, impurity=impurity_from_strength("type1", 9, 1.5))
    assert err.value.field == "impurity"


# Each library entry point a convention name can reach, called with keyword arguments;
# the states are ones whose score never reads the omega2 convention.
P4 = params_for(4)
CONVENTION_ENTRIES = {
    "fidelity_lattice": lambda **kw: fidelity_lattice(P4, "omega0", (1.0, 2.0), 5, **kw),
    "fidelity_series": lambda **kw: fidelity_series(P4, KickSchedule(2.0, 1.0, 5), "omega1",
                                                    **kw),
    "continuous_fidelity_series": lambda **kw: continuous_fidelity_series(P4, [1.0, 2.0],
                                                                          "omega1", **kw),
    "max_fidelity": lambda **kw: max_fidelity(P4, "omega0", (1.0, 2.0), 5, **kw),
    "max_fidelity-kick-free": lambda **kw: max_fidelity(P4, "omega0", e1=0.0, **kw),
    "kick_lattice": lambda **kw: kick_lattice(P4, enumerate_basis(4, 1), (1.0, 2.0), 1.0, [0],
                                              [3], 5, lambda a, t, m: a[..., 0, 0].real, **kw),
    "kick_step": lambda **kw: kick_step(P4, KickSchedule(2.0, 1.0), enumerate_basis(4, 1), **kw),
    "bell_fidelity_omega2": lambda **kw: bell_fidelity_omega2([0.5, 0.5], 0.5, **kw),
    "SweepPlan": lambda **kw: SweepPlan(P4, "e1", (1.0,), tau_grid=(1.0, 2.0), m_max=5, **kw),
}
CONVENTION_PARAMETERS = {"u0_convention": U0_CONVENTIONS, "omega2_convention": OMEGA2_CONVENTIONS,
                         "convention": OMEGA2_CONVENTIONS}


@pytest.mark.parametrize("entry,parameter", [
    pytest.param(entry, parameter, id=f"{entry}-{parameter}")
    for entry, parameters in [
        ("fidelity_lattice", ("u0_convention", "omega2_convention")),
        ("fidelity_series", ("u0_convention", "omega2_convention")),
        ("continuous_fidelity_series", ("omega2_convention",)),
        ("max_fidelity", ("u0_convention", "omega2_convention")),
        ("max_fidelity-kick-free", ("u0_convention", "omega2_convention")),
        ("kick_lattice", ("u0_convention",)),
        ("kick_step", ("u0_convention",)),
        ("bell_fidelity_omega2", ("convention",)),
        ("SweepPlan", ("u0_convention", "omega2_convention")),
    ]
    for parameter in parameters])
def test_an_unknown_convention_is_rejected_wherever_it_enters(entry, parameter):
    # one rule (model._require_choice) judges it, on entry, whichever state is scored
    CONVENTION_ENTRIES[entry]()
    with pytest.raises(FieldError) as err:
        CONVENTION_ENTRIES[entry](**{parameter: "bogus"})
    assert err.value.field == parameter
    assert str(err.value) == (f"unknown {parameter} 'bogus'; "
                              f"expected one of {CONVENTION_PARAMETERS[parameter]}")


# Each library entry point a tau grid can reach, called with that grid.
TAU_GRID_ENTRIES = {
    "kick_lattice": lambda taus: kick_lattice(P4, enumerate_basis(4, 1), taus, 1.0, [0], [3], 5,
                                              lambda a, t, m: a[..., 0, 0].real),
    "fidelity_lattice": lambda taus: fidelity_lattice(P4, "omega0", taus, 5),
    "max_fidelity": lambda taus: max_fidelity(P4, "omega0", taus, 5),
    "SweepPlan": lambda taus: SweepPlan(P4, "e1", (1.0,), tau_grid=taus, m_max=5),
}


@pytest.mark.parametrize("taus,message", [
    ((), "tau_grid must be nonempty"),
    ((1.0, NAN), "tau_grid values must be finite"),
    ((1.0, INF), "tau_grid values must be finite"),
    ((0.0, 1.0), "tau_grid values must be positive"),
    ((-1.0, 1.0), "tau_grid values must be positive"),
    ((2.0, 1.0), "tau_grid must be strictly increasing"),
    ((1.0, 1.0), "tau_grid must be strictly increasing"),
    (((1.0, 2.0),), "tau_grid must be 1-d, got shape (1, 2)"),
    (("a",), "tau_grid must be a 1-d sequence of numbers"),
    (([1.0], [1.0, 2.0]), "tau_grid must be a 1-d sequence of numbers"),
], ids=["empty", "nan", "inf", "zero", "negative", "decreasing", "repeated", "2-d", "not-numbers",
        "ragged"])
@pytest.mark.parametrize("entry", list(TAU_GRID_ENTRIES))
def test_a_bad_tau_grid_is_rejected_wherever_it_enters(entry, taus, message):
    # one rule (model._require_grid) judges it, with one field and one message
    TAU_GRID_ENTRIES[entry]((1.0, 2.0))
    with pytest.raises(FieldError) as err:
        TAU_GRID_ENTRIES[entry](taus)
    assert err.value.field == "tau_grid"
    assert str(err.value) == message


def test_every_convention_and_state_default_is_its_sets_first_entry():
    # changing a default means reordering one tuple
    for function in (fidelity_lattice, fidelity_series, continuous_fidelity_series,
                     max_fidelity, kick_lattice, kick_step, bell_fidelity_omega2):
        for name, parameter in inspect.signature(function).parameters.items():
            if name in CONVENTION_PARAMETERS:
                assert parameter.default == CONVENTION_PARAMETERS[name][0], (function, name)
    plan = SweepPlan(P4, "e1", (1.0,), tau_grid=(1.0,), m_max=1)
    assert (plan.u0_convention, plan.omega2_convention) == (U0_CONVENTIONS[0],
                                                            OMEGA2_CONVENTIONS[0])
    assert plan.states == KNOWN_STATES[:1]


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
    series = fidelity_series(params_for(10), KickSchedule(tau=2.0, e1=1.0, n_kicks=500),
                             "omega0")
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
    with pytest.raises(FieldError, match="^series too short") as err:
        periodogram([1.0, 2.0, 3.0])
    assert err.value.field == "series"
    with pytest.raises(FieldError, match=r"^expected a 1-d series, got shape \(4, 4\)$") as err:
        periodogram(np.ones((4, 4)))
    assert err.value.field == "series"
