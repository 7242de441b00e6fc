"""End-to-end acceptance gate.

Each test prints one machine-greppable verdict line; run with

    pytest -sv tests/test_acceptance.py

to see every line as it happens.  Tolerances and runtime budgets are
asserted, not just reported.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from kickedchain import (
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
    enumerate_basis,
    eigendecompose,
    fidelity_series,
    float_grid,
    impurity_from_strength,
    index_of,
    kick_step,
    max_fidelity,
    out_of_range,
    parse_config,
    periodogram,
    single_qubit_fidelity,
    sweep_axis,
    uniform_profile,
    unitary_exp,
)
from kickedchain.cli import _experiment, main
from lattice import amplitude_series
from partial_trace import conformance_report, direct_family_average, vacuum_phase

CONFIGS = Path(__file__).parent.parent / "configs"


def report(number, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE] criterion {number} ({label}): {status}{suffix}")
    assert passed, f"criterion {number} ({label}) failed  {detail}"


def canonical_params(n=10, j1=1.0, j2=-1.0, e=0.1, b=0.0) -> ChainParams:
    return ChainParams(uniform_profile(n, j1, j2), dm_field=e, b_field=b)


def test_criterion_1_hermiticity_and_unitarity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_h, worst_u = 0.0, 0.0
    for i in range(200):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(0, 3))
        profile = CouplingProfile(n, tuple(rng.normal(size=n - 1)),
                                  tuple(rng.normal(size=max(n - 2, 0))))
        params = ChainParams(profile, dm_field=float(rng.normal()),
                             b_field=float(rng.normal()))
        basis = enumerate_basis(n, k)
        h = build_hamiltonian(params, basis)
        worst_h = max(worst_h, float(np.abs(h - h.conj().T).max()))
        tau = float(rng.uniform(0.1, 10.0))
        kicked = replace(params, dm_field=float(rng.normal()))
        schedule = KickSchedule(tau=tau, e1=float(rng.normal()))
        convention = ("hamiltonian_tau", "literal_eq5")[i % 2]
        for u in (kick_step(kicked, schedule, basis, u0_convention=convention),
                  unitary_exp(h, float(rng.uniform(0.1, 10.0)))):
            defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
            worst_u = max(worst_u, defect)
    elapsed = time.perf_counter() - started
    report(1, "hermiticity and unitarity property sweep",
           worst_h <= 1e-14 and worst_u <= 1e-10 and elapsed < 10.0,
           f"max|H-H+|={worst_h:.2e} max|U+U-I|={worst_u:.2e} {elapsed:.1f}s/200 points")


def test_criterion_2_full_space_oracle_equivalence():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    points = 0
    for n in (3, 4, 5, 6):
        j1 = rng.normal(size=n - 1).round(3).tolist()
        j2 = rng.normal(size=n - 2).round(3).tolist()
        b, e0 = round(float(rng.normal()), 3), 0.1
        params = ChainParams(CouplingProfile(n, tuple(j1), tuple(j2)),
                             dm_field=e0, b_field=b)
        full_h = oracle.full_hamiltonian(j1, j2, b, e0, n)
        for _ in range(3):                        # continuous points
            t = float(rng.uniform(0.2, 6.0))
            prop_full = None
            for k in (0, 1, 2):
                basis = enumerate_basis(n, k)
                idx = [oracle.full_index(c, n) for c in basis.configs]
                u = unitary_exp(build_hamiltonian(params, basis), t)
                if prop_full is None:
                    from scipy.linalg import expm
                    prop_full = expm(-1j * t * full_h)
                worst = max(worst, float(np.abs(u - prop_full[np.ix_(idx, idx)]).max()))
            points += 1
        for j in range(3):                        # kicked points
            sched = KickSchedule(tau=float(rng.uniform(0.3, 3.0)),
                                 e1=float(rng.uniform(0.2, 2.0)))
            convention = ("hamiltonian_tau", "literal_eq5")[j % 2]
            ufull = oracle.kick_unitary(j1, j2, b, e0, sched.e1, sched.tau, n,
                                        convention)
            m = int(rng.integers(1, 6))
            ufull_m = np.linalg.matrix_power(ufull, m)
            for k in (0, 1, 2):
                basis = enumerate_basis(n, k)
                idx = [oracle.full_index(c, n) for c in basis.configs]
                u = np.linalg.matrix_power(
                    kick_step(params, sched, basis, u0_convention=convention), m)
                worst = max(worst, float(np.abs(u - ufull_m[np.ix_(idx, idx)]).max()))
            points += 1
    elapsed = time.perf_counter() - started
    report(2, "full-space oracle equivalence",
           worst <= 1e-9 and points >= 20 and elapsed < 30.0,
           f"max deviation={worst:.2e} over {points} points, k=0..2, {elapsed:.1f}s")


def test_criterion_3_kick_identity_at_zero_amplitude():
    params = canonical_params()
    tau, m_max = 2.0, 100
    schedule = KickSchedule(tau=tau, e1=0.0)
    worst = 0.0
    for k, source, target in ((1, (1,), (10,)), (2, (1, 2), (9, 10))):
        basis = enumerate_basis(10, k)
        kicked = amplitude_series(params, schedule, basis, source, target, m_max)
        h = build_hamiltonian(params, basis)
        w, v = eigendecompose(h)
        src, tgt = index_of(basis, source), index_of(basis, target)
        weights = v[tgt, :] * v[src, :].conj()
        for m in range(m_max + 1):
            continuous = complex(np.sum(weights * np.exp(-1j * w * tau * m)))
            worst = max(worst, abs(kicked[m] - continuous))
    report(3, "kick identity at zero amplitude", worst <= 1e-9,
           f"max amplitude deviation={worst:.2e} for m<=100, k=1 and k=2")


def test_criterion_4_single_qubit_formula_vs_exact_bloch_average():
    started = time.perf_counter()
    cases = []
    for n, b, t in ((4, 0.0, 0.8), (4, 0.9, 1.7), (6, 0.0, 3.1), (6, 0.5, 0.9),
                    (8, 0.0, 2.4), (8, 0.7, 5.0)):
        cases.append((canonical_params(n, b=b), t, None, None))
    for n, b, tau, m in ((4, 0.0, 2.0, 3), (6, 0.9, 1.3, 7),
                         (8, 0.0, 2.0, 5), (10, 0.4, 2.1, 9)):
        cases.append((canonical_params(n, b=b), None, tau, m))
    assert len(cases) == 10
    worst = 0.0
    for params, t, tau, m in cases:
        n = params.profile.n_sites
        basis = enumerate_basis(n, 1)
        if t is not None:
            u = unitary_exp(build_hamiltonian(params, basis), t)
            f = u[index_of(basis, (n,)), index_of(basis, (1,))]
            gauge = vacuum_phase(params, t).conjugate()
            average = direct_family_average(params, "omega0", time=t)
        else:
            schedule = KickSchedule(tau=tau, e1=1.0, n_kicks=m)
            f = amplitude_series(params, schedule, basis, (1,), (n,), m)[m]
            gauge = vacuum_phase(params, m * tau).conjugate()
            average = direct_family_average(params, "omega0", schedule=schedule)
        closed = single_qubit_fidelity(complex(f) * gauge)
        worst = max(worst, abs(closed - average))
    elapsed = time.perf_counter() - started
    report(4, "single-qubit closed form vs exact Bloch average",
           worst <= 1e-12 and elapsed < 60.0,
           f"max |closed-average|={worst:.2e} over 10 points, {elapsed:.1f}s")


def test_criterion_5_threshold_crossing_and_periodicity():
    params = canonical_params()
    threshold = classical_threshold()
    crossings = {}
    for tau in (2.0, 2.1, 2.2, 2.3):
        schedule = KickSchedule(tau=tau, e1=1.0, n_kicks=500)
        series = fidelity_series(params, schedule, "omega0")
        crossings[tau] = int(np.sum(series > threshold))
    series0 = fidelity_series(params, KickSchedule(tau=2.0, e1=1.0, n_kicks=500), "omega0")
    _, mags, dominant = periodogram(series0)
    peak_ratio = float(mags[1:].max() / np.median(mags[1:]))
    passed = all(c > 0 for c in crossings.values()) and dominant is not None \
        and peak_ratio > 2.0
    report(5, "threshold crossing and periodicity at the canonical point", passed,
           f"crossings per tau={crossings} dominant={dominant} peak/median={peak_ratio:.1f}")


def test_criterion_6_tau_sweep_peak():
    started = time.perf_counter()
    value, atau, am = max_fidelity(canonical_params(), "omega0",
                                   DEFAULT_TAU_GRID, 500, e1=1.0)
    elapsed = time.perf_counter() - started
    report(6, "kick-interval sweep peak at the canonical couplings",
           value >= 0.88 and elapsed < 600.0,
           f"max={value:.4f} at tau={atau} after {am} kicks, {elapsed:.1f}s")


def test_criterion_7_bell_closed_form_hand_arithmetic():
    checks = [
        bell_fidelity_omega1(1.0, 1.0, 0.0, 0.0) == 1.0,
        bell_fidelity_omega1(0.0, 0.0, 0.0, 0.0) == 0.0,
        bell_fidelity_omega1(1.0, 0.0, 0.0, 0.0) == 1.0 / 3.0,
        bell_fidelity_omega2([], 0.0) == 0.5,
        bell_fidelity_omega2([], 1.0) == 7.0 / 6.0,
        out_of_range(bell_fidelity_omega2([], 1.0)),
        bell_fidelity_omega2([1.0], 0.0) == 1.0 / 3.0,
        bell_fidelity_omega2([], 1j, "re_amplitude") == 5.0 / 6.0,
        bell_fidelity_omega2([], 1j, "abs_amplitude") == 7.0 / 6.0,
    ]
    report(7, "Bell closed-form hand arithmetic", all(checks),
           f"{sum(checks)}/{len(checks)} exact identities (7/6 flagged out of range)")


def test_criterion_8_conformance_report_anchors():
    rows = conformance_report(n_sites_values=(4, 5, 6),
                              times=(0.0, 0.5, 1.0, 2.0, 4.0))
    expected_rows = 3 * 5 * 2
    tabulated = all(
        np.isfinite([r["literal"], r["direct_maximal"], r["direct_family_avg"],
                     r["delta_maximal"], r["delta_family"]]).all()
        for r in rows
    )
    zeros_exact = all(
        (r["direct_maximal"] == 0.0 if r["state"] == "omega1"
         else r["direct_maximal"] == 0.5)
        for r in rows if r["time"] == 0.0
    )
    report(8, "conformance report exact anchors",
           len(rows) == expected_rows and tabulated and zeros_exact,
           f"{len(rows)} rows; omega1/omega2 oracle at t=0 equal 0 and 1/2 exactly")


def test_criterion_9_impurity_bond_locality():
    n = 10
    base = uniform_profile(n, 1.0, -1.0)
    failures = []
    for kind in ("type1", "type2"):
        for site in range(2, n):
            spec = impurity_from_strength(kind, site, 2.0)
            out = apply_impurity(base, spec)
            nn_expect = {i - 1 for i in (site - 2, site + 1) if 1 <= i <= n - 1}
            nnn_expect = {i - 1 for i in (site - 3, site + 1, site - 1)
                          if 1 <= i <= n - 2}
            nn_changed = {i for i, (a, b) in enumerate(zip(base.j1_bonds, out.j1_bonds))
                          if a != b}
            nnn_changed = {i for i, (a, b) in enumerate(zip(base.j2_bonds, out.j2_bonds))
                           if a != b}
            if nn_changed != nn_expect or nnn_changed != nnn_expect:
                failures.append((kind, site, nn_changed, nnn_changed))
            outer = spec.ratio_nnn_strong if kind == "type1" else spec.ratio_nnn_weak
            bridge = spec.ratio_nnn_weak if kind == "type1" else spec.ratio_nnn_strong
            for i in (site - 3, site + 1):
                if 1 <= i <= n - 2 and out.j2_bonds[i - 1] != base.j2_bonds[i - 1] * outer:
                    failures.append((kind, site, "outer", i))
            i = site - 1
            if 1 <= i <= n - 2 and out.j2_bonds[i - 1] != base.j2_bonds[i - 1] * bridge:
                failures.append((kind, site, "bridge", i))
    report(9, "impurity bond locality", not failures,
           f"both kinds, all sites 2..{n - 1}; mismatches={failures or 'none'}")


def test_criterion_10_determinism_across_reruns_and_workers(tmp_path):
    def run_config(name: str, out: Path, workers=None) -> dict[str, bytes]:
        argv = [*_mode_for(name), "--config", str(CONFIGS / name),
                "--out", str(out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        assert main(argv) == 0
        return {p.suffix: p.read_bytes()
                for p in (out.with_suffix(".csv"), out.with_suffix(".json"))}

    def _mode_for(name: str):
        return ["sweep"] if "sweep" in name else ["evolve"]

    evolve_a = run_config("fig4a.yaml", tmp_path / "ev_a")
    evolve_b = run_config("fig4a.yaml", tmp_path / "ev_b")
    sweep_1 = run_config("ci_sweep_coarse.yaml", tmp_path / "sw_1", workers=1)
    sweep_3 = run_config("ci_sweep_coarse.yaml", tmp_path / "sw_3", workers=3)
    same_evolve = evolve_a == evolve_b
    same_sweep = sweep_1 == sweep_3
    rows = json.loads(sweep_1[".json"].decode("utf-8"))
    report(10, "determinism across reruns and worker counts",
           same_evolve and same_sweep and len(rows) == 9,
           f"evolve rerun identical={same_evolve}; sweep workers 1 vs 3 identical={same_sweep}")


def test_trend_stronger_type1_impurity_never_helps_omega2_without_kicks():
    # kick-free protocol: continuous evolution probed at integer times.  This holds
    # at N = 10 only: at N = 6 and N = 8 the best type1 strength beats the pure chain
    # on kick-free omega2, by +0.039 and +0.038 (ROADMAP item 25)
    template = impurity_from_strength("type1", 6, 1.0)
    plan = SweepPlan(params=canonical_params(), axis="impurity_ratio",
                     grid=float_grid(1.0, 2.2, 0.1), states=("omega2",),
                     impurity=template, e1=0.0)
    rows = sweep_axis(plan)
    values = np.array([row.max_fidelity for row in rows])
    slope = float(np.polyfit(np.array(plan.grid), values, 1)[0])
    passed = slope <= 0.0 and values[-1] <= values[0]
    line = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE] trend check (type1 strength vs omega2 ceiling, kick-free): {line}"
          f"  [slope={slope:.3f} first={values[0]:.3f} last={values[-1]:.3f}]")
    assert passed


# Impurity against pure chain, for the panels with a margin of at least 0.01
# and the same winner on every lattice probed (README "Impurity against the
# pure chain"): (recipe, winner, impurity strengths run besides the pure 1.0;
# None = the whole recipe grid).  Values on the default lattice or the
# integer probes.  The lattices probed are the default grid, tau step 0.02
# and m_max 1000; the certified-window search of ROADMAP item 17 reverses the
# verdicts of fig7b_kicked, fig9b_kicked and fig9c_kicked, and fig9b_kicked
# is pinned here on its default-lattice margin.
IMPURITY_VERDICTS = [
    ("fig7a_nokick", "pure", None),          # 0.8674 vs 0.8359
    ("fig7c_nokick", "pure", None),          # 0.8755 vs 0.8474
    ("fig9a_nokick", "pure", None),          # 0.8674 vs 0.8110
    ("fig9b_nokick", "impurity", None),      # 0.7147 at 1.2 vs 0.6675
    ("fig9c_nokick", "impurity", None),      # 0.8986 at 1.1 vs 0.8755
    ("fig7a_kicked", "impurity", (1.3,)),    # 0.8740 at 1.3 vs 0.8544
    ("fig9b_kicked", "impurity", (1.9,)),    # 0.7471 at 1.9 vs 0.6399
    ("fig7c_kicked", "pure", None),          # 0.9394 vs 0.9113
]


@pytest.mark.parametrize("recipe,winner,strengths", IMPURITY_VERDICTS,
                         ids=[row[0] for row in IMPURITY_VERDICTS])
def test_impurity_vs_pure_verdict_holds_by_a_clear_margin(recipe, winner, strengths):
    plan = _experiment(parse_config((CONFIGS / f"{recipe}.yaml").read_text(encoding="utf-8")))[2]
    assert plan.grid[0] == 1.0          # strength 1 is the pure chain
    if strengths is not None:
        plan = replace(plan, grid=(1.0, *(g for g in plan.grid if round(g, 9) in strengths)))
        assert len(plan.grid) == 1 + len(strengths)
    pure, *impurity = (row.max_fidelity for row in sweep_axis(plan))
    margin = max(impurity) - pure
    passed = (margin if winner == "impurity" else -margin) >= 0.01
    line = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE] verdict check ({recipe}: {winner} wins): {line}"
          f"  [pure={pure:.4f} best impurity={max(impurity):.4f} margin={margin:+.4f}]")
    assert passed
