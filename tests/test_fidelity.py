"""Closed-form fidelities and the partial-trace cross-check."""

import cmath

import numpy as np
import pytest

import oracle
from kickedchain import (
    ChainParams,
    KickSchedule,
    bell_fidelity_omega1,
    bell_fidelity_omega2,
    build_hamiltonian,
    classical_threshold,
    continuous_fidelity_series,
    enumerate_basis,
    index_of,
    out_of_range,
    single_qubit_fidelity,
    uniform_profile,
    unitary_exp,
)
from partial_trace import (
    BellInput,
    bell_fidelity_direct,
    conformance_report,
    direct_family_average,
    vacuum_phase,
)


def params_for(n, j1=1.0, j2=-1.0, e=0.1, b=0.0):
    return ChainParams(uniform_profile(n, j1, j2), dm_field=e, b_field=b)


# -- single-qubit closed form --------------------------------------------------

def test_threshold_and_range_helpers():
    assert classical_threshold() == 2.0 / 3.0
    assert not out_of_range(0.0)
    assert not out_of_range(1.0)
    assert out_of_range(1.0 + 1e-12)
    assert out_of_range(-1e-12)


def test_single_qubit_trivial_amplitudes_are_exact():
    assert single_qubit_fidelity(0.0) == 0.5
    assert single_qubit_fidelity(1.0) == 1.0
    # purely imaginary amplitude scores exactly at the classical threshold
    assert single_qubit_fidelity(1j) == classical_threshold()
    assert single_qubit_fidelity(-1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_single_qubit_rejects_superunitary_amplitude():
    with pytest.raises(ValueError):
        single_qubit_fidelity(1.1)
    with pytest.raises(ValueError):
        single_qubit_fidelity(1.0 + 1e-4j)
    # round-off just past 1 is tolerated and clamped
    assert single_qubit_fidelity(1.0 + 5e-10) == 1.0


def test_single_qubit_values_stay_in_range_and_grow_with_real_amplitude():
    grid = np.linspace(0.0, 1.0, 21)
    values = [single_qubit_fidelity(r) for r in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    phases = [single_qubit_fidelity(0.8 * np.exp(1j * t))
              for t in np.linspace(0, 2 * np.pi, 17)]
    assert all(0.0 <= v <= 1.0 for v in phases)


def test_single_qubit_formula_matches_exact_bloch_average():
    p = params_for(4)
    basis = enumerate_basis(4, 1)
    u = unitary_exp(build_hamiltonian(p, basis), 1.7)
    f = u[index_of(basis, (4,)), index_of(basis, (1,))]
    f_gauged = f * vacuum_phase(p, 1.7).conjugate()
    closed = single_qubit_fidelity(f_gauged)
    average = direct_family_average(p, "omega0", time=1.7)
    assert abs(closed - average) < 1e-12


def test_exact_bloch_average_without_gauge_disagrees():
    # dropping the vacuum phase from the closed form must be detectable
    p = params_for(4, b=0.9)
    basis = enumerate_basis(4, 1)
    u = unitary_exp(build_hamiltonian(p, basis), 2.0)
    f = u[index_of(basis, (4,)), index_of(basis, (1,))]
    average = direct_family_average(p, "omega0", time=2.0)
    gauged = single_qubit_fidelity(f * vacuum_phase(p, 2.0).conjugate())
    raw = single_qubit_fidelity(f)
    assert abs(gauged - average) < 1e-12
    assert abs(raw - average) > 0.02


# -- Bell closed forms ----------------------------------------------------------

def test_omega1_trivial_values_are_exact():
    assert bell_fidelity_omega1(1.0, 1.0, 0.0, 0.0) == 1.0
    assert bell_fidelity_omega1(0.0, 0.0, 0.0, 0.0) == 0.0
    assert bell_fidelity_omega1(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_omega1_is_invariant_under_a_global_phase():
    amps = (0.61 + 0.2j, -0.33 + 0.41j, 0.12 - 0.08j, 0.27 + 0.31j)
    base = bell_fidelity_omega1(*amps)
    for theta in (0.3, 1.1, 2.9):
        z = cmath.exp(1j * theta)
        assert bell_fidelity_omega1(*(a * z for a in amps)) == pytest.approx(base, abs=1e-12)


def test_omega2_trivial_values_are_exact():
    assert bell_fidelity_omega2([], 0.0) == 0.5
    assert bell_fidelity_omega2([], 1.0) == 7.0 / 6.0
    assert out_of_range(bell_fidelity_omega2([], 1.0))
    assert bell_fidelity_omega2([1.0], 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_omega2_conventions_differ_only_through_the_final_term():
    assert bell_fidelity_omega2([], 1j, "re_amplitude") == 5.0 / 6.0
    assert bell_fidelity_omega2([], 1j, "abs_amplitude") == 7.0 / 6.0
    assert bell_fidelity_omega2([], -1.0, "re_amplitude") == 0.5
    assert bell_fidelity_omega2([], -1.0, "abs_amplitude") == 7.0 / 6.0
    with pytest.raises(ValueError):
        bell_fidelity_omega2([], 0.0, "modulus")


def test_bell_input_validation():
    with pytest.raises(ValueError):
        BellInput("omega0", (1.0, 0.0))
    with pytest.raises(ValueError):
        BellInput("omega1", (1.0, 1.0))
    BellInput("omega1", (1.0, 0.0))   # lopsided but normalized: accepted


def test_maximal_bell_input_is_exactly_normalized():
    for family in ("omega1", "omega2"):
        bell = BellInput.maximal(family)
        c0, c1 = bell.coefficients
        assert c0.real ** 2 + c0.imag ** 2 == 0.5
        assert c0 == c1 == 0.5 + 0.5j


# -- direct partial-trace evaluation --------------------------------------------

def test_direct_fidelity_at_time_zero_is_exact():
    for n in (4, 5, 6):
        p = params_for(n)
        assert bell_fidelity_direct(p, BellInput.maximal("omega1"), time=0.0) == 0.0
        assert bell_fidelity_direct(p, BellInput.maximal("omega2"), time=0.0) == 0.5


def test_direct_fidelity_argument_errors():
    p = params_for(5)
    bell = BellInput.maximal("omega1")
    with pytest.raises(ValueError):
        bell_fidelity_direct(p, bell)                         # neither time nor schedule
    with pytest.raises(ValueError):
        bell_fidelity_direct(p, bell, time=1.0,
                             schedule=KickSchedule(tau=1.0))  # both
    with pytest.raises(ValueError):
        bell_fidelity_direct(params_for(3), bell, time=1.0)   # pairs overlap


@pytest.mark.parametrize("family", ["omega1", "omega2"])
@pytest.mark.parametrize("n", [4, 5])
def test_direct_fidelity_matches_full_space_continuous(family, n):
    rng = np.random.default_rng(40 + n)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    bell = BellInput(family, (complex(z[0]), complex(z[1])))
    p = params_for(n, e=0.1, b=0.3)
    full_h = oracle.full_hamiltonian([1.0] * (n - 1), [-1.0] * (n - 2), 0.3, 0.1, n)
    for t in (0.9, 2.3):
        got = bell_fidelity_direct(p, bell, time=t)
        psi = oracle.evolve(full_h, oracle.bell_sender_state(family, z[0], z[1], n), t)
        want = oracle.bell_fidelity_full(psi, family, z[0], z[1], n)
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("family", ["omega1", "omega2"])
def test_direct_fidelity_matches_full_space_kicked(family):
    n, m = 5, 6
    bell = BellInput(family, (0.8, 0.6j))   # lopsided pair, exactly normalized
    p = ChainParams(uniform_profile(n, 1.0, -1.0), dm_field=0.1)
    sched = KickSchedule(tau=1.4, e1=0.8, n_kicks=m)
    got = bell_fidelity_direct(p, bell, schedule=sched)
    ufull = oracle.kick_unitary([1.0] * (n - 1), [-1.0] * (n - 2), 0.0,
                                0.1, 0.8, 1.4, n)
    psi = oracle.bell_sender_state(family, *bell.coefficients, n)
    for _ in range(m):
        psi = ufull @ psi
    want = oracle.bell_fidelity_full(psi, family, *bell.coefficients, n)
    assert abs(got - want) < 1e-9


def test_omega1_closed_form_equals_family_average():
    # the omega1 formula reproduces the Haar mean over coefficient pairs
    n, t = 5, 1.3
    p = params_for(n)
    basis = enumerate_basis(n, 1)
    u = unitary_exp(build_hamiltonian(p, basis), t)
    s1, s2 = index_of(basis, (1,)), index_of(basis, (2,))
    near, far = index_of(basis, (n - 1,)), index_of(basis, (n,))
    literal = bell_fidelity_omega1(u[near, s1], u[far, s2], u[near, s2], u[far, s1])
    averaged = direct_family_average(p, "omega1", time=t)
    assert abs(literal - averaged) < 0.01


def test_two_site_round_trip_is_perfect_after_gauge():
    # eigenphase splitting of the two-site chain makes t = pi a full swap
    p = ChainParams(uniform_profile(2, 1.0, 0.0))
    basis = enumerate_basis(2, 1)
    u = unitary_exp(build_hamiltonian(p, basis), np.pi)
    f = u[index_of(basis, (2,)), index_of(basis, (1,))]
    f_gauged = f * vacuum_phase(p, np.pi).conjugate()
    assert single_qubit_fidelity(f_gauged) == pytest.approx(1.0, abs=1e-12)


# -- conformance report ----------------------------------------------------------

def test_conformance_report_shape_and_time_zero_rows():
    rows = conformance_report(n_sites_values=(4,), times=(0.0, 1.0))
    assert len(rows) == 4
    keys = {"n_sites", "time", "state", "literal", "literal_alt",
            "direct_maximal", "direct_family_avg", "delta_maximal",
            "delta_family"}
    assert all(set(r) == keys for r in rows)

    at_zero = {r["state"]: r for r in rows if r["time"] == 0.0}
    assert at_zero["omega1"]["literal"] == 0.0
    assert at_zero["omega1"]["direct_maximal"] == 0.0
    assert at_zero["omega1"]["literal_alt"] is None
    assert at_zero["omega2"]["literal"] == 0.5
    assert at_zero["omega2"]["direct_maximal"] == 0.5
    assert at_zero["omega2"]["delta_maximal"] == 0.0
    # the exact family averages at t = 0 take the same values
    assert at_zero["omega1"]["direct_family_avg"] == 0.0
    assert at_zero["omega2"]["direct_family_avg"] == 0.5


def test_conformance_report_scores_the_layout_the_sweeps_run():
    # the report's literal columns and the kick-free sweep series read the same
    # family table, so they agree up to the two ways of forming e^{-iHt}
    rows = conformance_report(n_sites_values=(4, 5, 6), times=(1.0, 2.0, 4.0))
    assert len(rows) == 18
    for r in rows:
        params = params_for(r["n_sites"])
        series = continuous_fidelity_series(params, [r["time"]], r["state"])
        assert abs(r["literal"] - series[0]) <= 1e-12
        if r["state"] == "omega2":
            alt = continuous_fidelity_series(params, [r["time"]], "omega2",
                                             omega2_convention="abs_amplitude")
            assert abs(r["literal_alt"] - alt[0]) <= 1e-12
