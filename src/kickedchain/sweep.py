"""Grid searches over drive and chain parameters, plus periodicity analysis.

A sweep walks one axis (kick interval, kick amplitude, coupling ratio,
impurity strength, or kick count) and reports, per grid value and per
input family, the maximum fidelity over an exhaustive kick-interval by
kick-count lattice together with where it was attained.  Setting the kick
amplitude to zero switches a point to the no-kick protocol: continuous
evolution probed at integer times 1..5000.

Grid points are evaluated one after another, in grid order, in the
caller's thread.

How the kick-free path runs: each (point, state) diagonalises its sector
once, H = V diag(w) V+, and every receiver amplitude at every probe time is
one product of a weight matrix V[r,a] conj(V[s,a]) with the phase table
e^{-i w_a t}.  On an evenly spaced grid (the integer probe times are one)
the table is factorized into a coarse and a fine table of about sqrt(n)
columns each (``_phase_table``), so it costs about 2*sqrt(n) complex
exponentials per eigenvalue instead of n.  The series is computed once per
(point, state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fidelity import KNOWN_STATES, OMEGA2_CONVENTIONS, family_score, family_sector, out_of_range
from .model import (
    ChainParams,
    ImpuritySpec,
    apply_impurity,
    build_hamiltonian,
    impurity_from_strength,
    uniform_profile,
    vacuum_energy,
)
from .propagator import U0_CONVENTIONS, KickSchedule, eigendecompose, kick_lattice

__all__ = [
    "SWEEP_AXES",
    "DEFAULT_TAU_GRID",
    "CONTINUOUS_TIMES",
    "float_grid",
    "SweepPlan",
    "SweepRow",
    "fidelity_series",
    "fidelity_lattice",
    "continuous_fidelity_series",
    "max_fidelity",
    "sweep_axis",
    "periodogram",
]

SWEEP_AXES = ("tau", "e1", "j2_over_j1", "impurity_ratio", "kick_count")


def float_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with decimal-clean values.

    Values are rounded to 12 decimals so a grid like 0.1..10 step 0.1
    carries 0.3, not 0.30000000000000004; the endpoint is included when it
    lies on the lattice within half a step.
    """
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"empty grid: stop {stop} < start {start}")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    values = tuple(round(start + i * step, 12) for i in range(count))
    return tuple(v for v in values if v <= stop + step * 1e-9)


DEFAULT_TAU_GRID = float_grid(0.1, 10.0, 0.1)
CONTINUOUS_TIMES = tuple(range(1, 5001))


def _check_grid(grid: Sequence[float], name: str, positive: bool = False) -> tuple[float, ...]:
    values = tuple(float(g) for g in grid)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if positive and values[0] <= 0:
        raise ValueError(f"{name} values must be positive")
    return values


@dataclass(frozen=True)
class SweepPlan:
    """One swept axis over a chain template.

    ``params`` (plus the optional ``impurity``) describes the point every
    grid value perturbs; its ``dm_field`` is the static field of every
    point.  For axis ``tau`` the grid values are kick intervals and must be
    positive.  For axis ``j2_over_j1`` the template profile
    must be uniform, since the grid value replaces the ratio of the two
    uniform couplings; for axis ``impurity_ratio`` the template impurity
    supplies kind and site while the grid value sets the strength; for
    axis ``kick_count`` the grid values are kick counts and the search
    runs over ``tau_grid`` at that fixed count.
    """

    params: ChainParams
    axis: str
    grid: tuple[float, ...]
    states: tuple[str, ...] = ("omega0",)
    impurity: ImpuritySpec | None = None
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    m_max: int = 500
    e1: float = 1.0
    u0_convention: str = "hamiltonian_tau"
    omega2_convention: str = "re_amplitude"

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        object.__setattr__(self, "grid", _check_grid(self.grid, "grid",
                                                     positive=self.axis == "tau"))
        object.__setattr__(self, "tau_grid", _check_grid(self.tau_grid, "tau_grid", positive=True))
        states = tuple(self.states)
        if not states:
            raise ValueError("states must be nonempty")
        for s in states:
            if s not in KNOWN_STATES:
                raise ValueError(f"unknown state {s!r}; expected one of {KNOWN_STATES}")
        if len(set(states)) != len(states):
            raise ValueError("duplicate states in plan")
        object.__setattr__(self, "states", states)
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if self.u0_convention not in U0_CONVENTIONS:
            raise ValueError(f"unknown u0_convention {self.u0_convention!r}")
        if self.omega2_convention not in OMEGA2_CONVENTIONS:
            raise ValueError(f"unknown omega2_convention {self.omega2_convention!r}")
        if self.axis == "impurity_ratio" and self.impurity is None:
            raise ValueError("impurity_ratio axis needs an impurity template (kind and site)")
        if self.axis == "kick_count":
            for g in self.grid:
                if g != int(g) or g < 0:
                    raise ValueError(f"kick_count grid values must be non-negative integers, got {g}")
        if self.axis == "j2_over_j1":
            profile = self.params.profile
            if len(set(profile.j1_bonds)) != 1 or len(set(profile.j2_bonds)) > 1:
                raise ValueError("j2_over_j1 axis requires a uniform coupling template")


@dataclass(frozen=True)
class SweepRow:
    """Maximum fidelity for one grid value and one input family."""

    grid_index: int
    grid_value: float
    state: str
    max_fidelity: float
    argmax_tau: float
    argmax_kicks: int
    out_of_range: bool


def fidelity_lattice(params: ChainParams, state: str, tau_grid: Sequence[float], m_max: int,
                     e1: float = 1.0,
                     u0_convention: str = "hamiltonian_tau",
                     omega2_convention: str = "re_amplitude") -> np.ndarray:
    """Fidelity after 0..m_max kicks at every kick interval: a (len(tau_grid), m_max + 1) array.

    Entry [i, m] is evaluated just after the m-th kick at interval
    tau_grid[i]; column 0 is the untouched initial state (0.5 for the single
    qubit, whose amplitude has not yet reached the receiver).
    """
    basis, sources, targets = family_sector(state, params.profile.n_sites)
    e_vac = vacuum_energy(params)

    def score(amps, taus, ms):
        return family_score(state, amps, np.multiply.outer(e_vac * taus, ms), omega2_convention)

    return kick_lattice(params, basis, tau_grid, e1, sources, targets, m_max, score,
                        u0_convention=u0_convention)


def fidelity_series(params: ChainParams, schedule: KickSchedule, state: str,
                    m_max: int | None = None, u0_convention: str = "hamiltonian_tau",
                    omega2_convention: str = "re_amplitude") -> np.ndarray:
    """Fidelity after each of 0..m_max kicks for one input family.

    Entry m is evaluated just after the m-th kick; entry 0 is the
    untouched initial state (0.5 for the single qubit, whose amplitude has
    not yet reached the receiver).
    """
    if m_max is None:
        m_max = schedule.n_kicks
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    return fidelity_lattice(params, state, (schedule.tau,), m_max, e1=schedule.e1,
                            u0_convention=u0_convention,
                            omega2_convention=omega2_convention)[0]


def _phase_table(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (len(w), len(t)) table e^{-i w_a t_k}.

    An evenly spaced grid, t_k == t0 + k*dt exactly in floating point (as
    every integer-time grid is), is factorized: with R = ceil(sqrt(n)) and
    k = q*R + r, e^{-i w t_k} = e^{-i w q R dt} * e^{-i w t_r}, so a (dim, Q)
    and a (dim, R) table of exponentials and one broadcast product give the
    whole table from about 2*sqrt(n) exponentials per eigenvalue instead of
    n.  Any other grid takes one exponential per entry.  The two forms round
    the phase argument w*t differently, each to within about half an ulp of
    |w| t (the ulp is 3.6e-12 for the omega2 sector at N = 10, where |w| t
    reaches 16 464 at t = 5000), so neither is more exact than the other and
    their entries differ by little more than one such ulp.
    """
    n = t.size
    dt = t[1] - t[0] if n > 1 else 0.0
    if n == 0 or not np.array_equal(t, t[0] + dt * np.arange(n)):
        return np.exp(-1j * np.outer(w, t))
    r = math.isqrt(n - 1) + 1
    q = -(-n // r)
    coarse = np.exp(-1j * np.outer(w, (r * dt) * np.arange(q)))
    fine = np.exp(-1j * np.outer(w, t[:r]))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(w.size, q * r)[:, :n]


def continuous_fidelity_series(params: ChainParams, times: Sequence[float], state: str,
                               omega2_convention: str = "re_amplitude") -> np.ndarray:
    """Fidelity under continuous (kick-free) evolution at each requested time.

    All requested amplitudes come from one eigendecomposition per sector,
    so long integer-time grids are cheap.
    """
    basis, sources, targets = family_sector(state, params.profile.n_sites)
    w, v = eigendecompose(build_hamiltonian(params, basis))
    # <t|e^{-iHt}|s> = sum_a v[t,a] conj(v[s,a]) e^{-i w_a t}, one weight row per (t, s)
    weights = np.stack([v[ti, :] * v[si, :].conj() for ti in targets for si in sources])
    t_arr = np.asarray(times, dtype=float)
    amp_all = weights @ _phase_table(w, t_arr)
    # (targets * sources, times) -> a (times, targets, sources) view
    amps = np.moveaxis(amp_all.reshape(len(targets), len(sources), t_arr.size), -1, 0)
    return family_score(state, amps, vacuum_energy(params) * t_arr, omega2_convention)


def _maximum(params: ChainParams, state: str, tau_grid: Sequence[float], m_max: int,
             e1: float, u0_convention: str, omega2_convention: str,
             continuous_times: Sequence[float] = CONTINUOUS_TIMES, endpoint_only: bool = False):
    """(max value, argmax tau, argmax kick count) of one exhaustive search.

    The kicked search scores the tau by kick-count lattice and takes the
    first maximum in row-major order: the smallest tau, then the smallest
    kick count.  With ``endpoint_only`` only the kick count m_max is
    scored, so the search runs over tau alone.  With e1 = 0 there is no
    kick, and the search runs over ``continuous_times`` instead (the tau
    grid is still validated); it reports tau 1.0 and the argmax time in the
    kick-count slot (ties to the earliest).
    """
    taus = _check_grid(tau_grid, "tau_grid", positive=True)
    if e1 == 0.0:
        series = continuous_fidelity_series(params, continuous_times, state,
                                            omega2_convention=omega2_convention)
        best = int(np.argmax(series))
        return float(series[best]), 1.0, int(continuous_times[best])
    first = m_max if endpoint_only else 0
    lattice = fidelity_lattice(params, state, taus, m_max, e1=e1, u0_convention=u0_convention,
                               omega2_convention=omega2_convention)[:, first:]
    i, m = np.unravel_index(int(np.argmax(lattice)), lattice.shape)
    return float(lattice[i, m]), taus[i], first + int(m)


def max_fidelity(params: ChainParams, state: str,
                 tau_grid: Sequence[float] = DEFAULT_TAU_GRID, m_max: int = 500,
                 e1: float = 1.0, u0_convention: str = "hamiltonian_tau",
                 omega2_convention: str = "re_amplitude",
                 continuous_times: Sequence[float] = CONTINUOUS_TIMES):
    """Exhaustive maximum of the fidelity over the kick-interval by kick-count lattice.

    Returns (max value, argmax tau, argmax kick count); ties go to the
    smallest tau, then the smallest kick count, so reported argmaxima are
    reproducible.  With e1 = 0 there is no kick at all and the lattice
    degenerates, so the search instead runs over ``continuous_times``
    (integer times by default); the row then reports the equivalent
    stroboscopic interval 1.0 and the argmax time in the kick-count slot.
    """
    return _maximum(params, state, tau_grid, m_max, e1, u0_convention, omega2_convention,
                    continuous_times)


def _point_setup(plan: SweepPlan, value: float):
    """Chain parameters, kick amplitude, tau lattice, and fixed kick count for one grid value."""
    params = plan.params
    impurity = plan.impurity
    e1 = plan.e1
    taus = plan.tau_grid
    fixed_kicks = None
    if plan.axis == "tau":
        taus = (float(value),)
    elif plan.axis == "e1":
        e1 = float(value)
    elif plan.axis == "j2_over_j1":
        j1 = params.profile.j1_bonds[0]
        profile = uniform_profile(params.profile.n_sites, j1, j1 * float(value))
        params = replace(params, profile=profile)
    elif plan.axis == "impurity_ratio":
        impurity = impurity_from_strength(impurity.kind, impurity.site, float(value))
    elif plan.axis == "kick_count":
        fixed_kicks = int(value)
    if impurity is not None:
        params = replace(params, profile=apply_impurity(params.profile, impurity))
    return params, e1, taus, fixed_kicks


def _evaluate_point(plan: SweepPlan, idx: int) -> list[SweepRow]:
    value = plan.grid[idx]
    params, e1, taus, fixed_kicks = _point_setup(plan, value)
    rows = []
    for state in plan.states:
        val, atau, am = _maximum(
            params, state, taus, plan.m_max if fixed_kicks is None else fixed_kicks, e1,
            plan.u0_convention, plan.omega2_convention, endpoint_only=fixed_kicks is not None)
        rows.append(SweepRow(
            grid_index=idx, grid_value=float(value), state=state,
            max_fidelity=val, argmax_tau=atau, argmax_kicks=am,
            out_of_range=out_of_range(val),
        ))
    return rows


def sweep_axis(plan: SweepPlan, workers: int = 1) -> tuple[SweepRow, ...]:
    """Rows for every (grid value, state) pair, ordered by grid index then plan state order.

    The plan is evaluated at every grid value, in grid order, in the caller's thread.

    ``workers`` is validated (>= 1) but does not change scheduling or
    results: the grid points are BLAS-bound, and a thread pool over them
    measured slower than running them in order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = []
    for idx, value in enumerate(plan.grid):
        try:
            rows += _evaluate_point(plan, idx)
        except Exception as exc:
            raise RuntimeError(f"sweep point {idx} (grid value {value!r}) failed: {exc}") from exc
    return tuple(rows)


def periodogram(series: Sequence[float]):
    """Discrete Fourier transform of a mean-subtracted fidelity series.

    Returns (frequencies, magnitudes, dominant): frequencies are k/L in
    cycles per sample, magnitudes the unnormalized |DFT|, and dominant the
    frequency in (0, 0.5] with the largest magnitude (ties to the lowest
    frequency).  A flat series has no dominant frequency and reports None;
    the cutoff is a round-off-level threshold, L*eps*max(1, max|x|).
    Parseval's identity holds as sum(y^2) = sum(|Y|^2)/L.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {x.shape}")
    if x.size < 4:
        raise ValueError(f"series too short for a periodogram: {x.size} < 4")
    y = x - x.mean()
    spectrum = np.fft.fft(y)
    magnitudes = np.abs(spectrum)
    frequencies = np.arange(x.size) / x.size
    threshold = x.size * np.finfo(float).eps * max(1.0, float(np.max(np.abs(x))))
    # a real series has |Y[k]| == |Y[L-k]|, so only bins 1..L//2 are searched;
    # over the mirror half, round-off alone would pick between equal peaks
    k = 1 + int(np.argmax(magnitudes[1:x.size // 2 + 1]))
    dominant = float(frequencies[k]) if magnitudes[k] > threshold else None
    return frequencies, magnitudes, dominant
