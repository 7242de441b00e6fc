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
once, H = V diag(w) V+, and every receiver amplitude at a probe time t is
sum_a V[r,a] conj(V[s,a]) e^{-i w_a t}.  The n times are split as
t[qR + j] = (t[qR] - base) + (t[j] - t[0] + base).  On an exactly even grid
(the integer probe times are one) R = isqrt(n - 1) + 1 and base = t[0], so
a coarse table of about sqrt(n) rows and a fine table of R columns take
about 2*sqrt(n) complex exponentials per eigenvalue instead of n; on any
other grid R = 1 and base = 0, so the coarse table is e^{-i w t} itself and
the fine table is exactly 1.  The vacuum angles come from the same split,
equal to E_vac * t bit for bit on integer grids.  A chunk of whole coarse
rows (``propagator._per_chunk``, 384 KiB) is one batched product,
(coarse row * weights) @ fine, scored through a view; no phase table is
built, so memory does not grow with the probe count, and since every coarse
row is its own product of one fixed shape, the chunk size changes no output
bit.  The series is computed once per (point, state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fidelity import (KNOWN_STATES, OMEGA2_CONVENTIONS, _state_list_error, family_score,
                       family_sector, out_of_range)
from .model import (
    ChainParams,
    FieldError,
    ImpuritySpec,
    _require_choice,
    _require_count,
    _require_finite,
    _require_grid,
    apply_impurity,
    build_hamiltonian,
    impurity_from_strength,
    uniform_profile,
    vacuum_energy,
)
from .propagator import U0_CONVENTIONS, KickSchedule, _per_chunk, eigendecompose, kick_lattice

__all__ = [
    "SWEEP_AXES",
    "DEFAULT_TAU_GRID",
    "DEFAULT_M_MAX",
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
_MAX_GRID_POINTS = 100_000


def float_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic grid with decimal-clean values.

    Values are rounded to 12 decimals so a grid like 0.1..10 step 0.1
    carries 0.3, not 0.30000000000000004; the endpoint is included when it
    lies on the lattice within half a step.  A grid of more than
    _MAX_GRID_POINTS (100 000) points is rejected before any point is made.
    """
    if step <= 0:
        raise FieldError("step", f"grid step must be positive, got {step}")
    if stop < start:
        raise FieldError("stop", f"empty grid: stop {stop} < start {start}")
    span = (stop - start) / step           # a float: inf when the step underflows it
    if span + 0.5 >= _MAX_GRID_POINTS:
        raise FieldError("step", f"grid of about {span + 1:.3g} points; "
                                 f"at most {_MAX_GRID_POINTS} allowed")
    count = int(math.floor(span + 0.5)) + 1
    values = tuple(round(start + i * step, 12) for i in range(count))
    return tuple(v for v in values if v <= stop + step * 1e-9)


DEFAULT_TAU_GRID = float_grid(0.1, 10.0, 0.1)
DEFAULT_M_MAX = 500
PERIODOGRAM_MIN_SAMPLES = 4       # the shortest series: kicks 0..3 of an evolve run
# read-only int64, so a series converts it to float with one C cast
CONTINUOUS_TIMES = np.arange(1, 5001, dtype=np.int64)
CONTINUOUS_TIMES.flags.writeable = False


@dataclass(frozen=True)
class SweepPlan:
    """One swept axis over a chain template.

    ``params`` (plus the optional ``impurity``) describes the point every
    grid value perturbs; its ``dm_field`` is the static field of every
    point.  The states pass the one state-list rule, N >= 4 for the Bell
    states included (``fidelity._state_list_error``), and both grids the one
    grid rule (``model._require_grid``), positive on axis ``tau``.  For axis
    ``j2_over_j1`` the grid value replaces the ratio of the two uniform
    couplings of the template; for axis ``impurity_ratio`` the template
    impurity supplies kind and site while the grid value sets the strength;
    for ``kick_count`` the grid values are kick counts and the search runs
    over ``tau_grid`` at that count.  Each grid value is judged by building
    its point (``_point_setup``), so a plan that is made can be swept.
    """

    params: ChainParams
    axis: str
    grid: tuple[float, ...]
    states: tuple[str, ...] = KNOWN_STATES[:1]
    impurity: ImpuritySpec | None = None
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    m_max: int = DEFAULT_M_MAX
    e1: float = 1.0
    u0_convention: str = U0_CONVENTIONS[0]
    omega2_convention: str = OMEGA2_CONVENTIONS[0]

    def __post_init__(self):
        _require_choice("axis", self.axis, SWEEP_AXES)
        for name, positive in (("grid", self.axis == "tau"), ("tau_grid", True)):
            object.__setattr__(self, name, _require_grid(name, getattr(self, name), positive))
        object.__setattr__(self, "states", tuple(self.states))
        if (error := _state_list_error(self.states, self.params.profile.n_sites)) is not None:
            raise FieldError("states", error[1])
        _require_count("m_max", self.m_max, least=1)
        _require_finite(self, "e1")
        _require_choice("u0_convention", self.u0_convention, U0_CONVENTIONS)
        _require_choice("omega2_convention", self.omega2_convention, OMEGA2_CONVENTIONS)
        if self.axis == "impurity_ratio" and self.impurity is None:
            raise FieldError("impurity", "impurity_ratio axis needs an impurity template")
        for value in self.grid:
            _point_setup(self, value)


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
                     e1: float = 1.0, u0_convention: str = U0_CONVENTIONS[0],
                     omega2_convention: str = OMEGA2_CONVENTIONS[0]) -> np.ndarray:
    """Fidelity after 0..m_max kicks at every kick interval: a (len(tau_grid), m_max + 1) array.

    Entry [i, m] is evaluated just after the m-th kick at interval
    tau_grid[i]; column 0 is the untouched initial state (0.5 for the single
    qubit, whose amplitude has not yet reached the receiver).
    """
    _require_choice("omega2_convention", omega2_convention, OMEGA2_CONVENTIONS)
    basis, sources, targets = family_sector(state, params.profile.n_sites)
    e_vac = vacuum_energy(params)

    def score(amps, taus, ms):
        return family_score(state, amps, np.multiply.outer(e_vac * taus, ms), omega2_convention)

    return kick_lattice(params, basis, tau_grid, e1, sources, targets, m_max, score,
                        u0_convention=u0_convention)


def fidelity_series(params: ChainParams, schedule: KickSchedule, state: str,
                    u0_convention: str = U0_CONVENTIONS[0],
                    omega2_convention: str = OMEGA2_CONVENTIONS[0]) -> np.ndarray:
    """Fidelity after each of 0..schedule.n_kicks kicks for one input family.

    Entry m is evaluated just after the m-th kick; entry 0 is the
    untouched initial state (0.5 for the single qubit, whose amplitude has
    not yet reached the receiver).
    """
    return fidelity_lattice(params, state, (schedule.tau,), schedule.n_kicks, e1=schedule.e1,
                            u0_convention=u0_convention,
                            omega2_convention=omega2_convention)[0]


def continuous_fidelity_series(params: ChainParams, times: Sequence[float], state: str,
                               omega2_convention: str = OMEGA2_CONVENTIONS[0]) -> np.ndarray:
    """Fidelity under continuous (kick-free) evolution at each requested time.

    ``times`` is a 1-d sequence of finite times, in any order.  All requested
    amplitudes come from one eigendecomposition per sector, and each chunk of
    coarse rows of the time split is one batched product (module docstring),
    so long integer-time grids are cheap in time and in memory.
    """
    _require_choice("omega2_convention", omega2_convention, OMEGA2_CONVENTIONS)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise FieldError("times", f"times must be 1-d, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise FieldError("times", "times must be finite")
    basis, sources, targets = family_sector(state, params.profile.n_sites)
    w, v = eigendecompose(build_hamiltonian(params, basis))
    # <t|e^{-iHt}|s> = sum_a v[t,a] conj(v[s,a]) e^{-i w_a t}, one weight row per (t, s)
    weights = np.stack([v[ti, :] * v[si, :].conj() for ti in targets for si in sources])
    e_vac = vacuum_energy(params)
    n = t.size
    even = n > 1 and np.array_equal(t, t[0] + (t[1] - t[0]) * np.arange(n))
    r, base = (math.isqrt(n - 1) + 1, t[0]) if even else (1, 0.0)
    # t[q*r + j] = coarse_t[q] + fine_t[j]: exactly on an integer grid, and on any grid with r = 1
    coarse_t, fine_t = t[::r] - base, t[:r] - t[:1] + base
    coarse = np.exp(-1j * np.outer(coarse_t, w))
    fine = np.exp(-1j * np.outer(w, fine_t))
    series = np.empty((coarse_t.size, r))
    per_chunk = _per_chunk(16 * len(weights) * (w.size + r))
    for q0 in range(0, coarse_t.size, per_chunk):
        q1 = min(q0 + per_chunk, coarse_t.size)
        # one (targets * sources, dim) @ (dim, r) product per coarse row, whatever the chunk
        amps = np.matmul(coarse[q0:q1, None, :] * weights, fine)
        # (coarse rows, targets, sources, r) -> a (coarse rows, r, targets, sources) view
        amps = np.moveaxis(amps.reshape(q1 - q0, len(targets), len(sources), r), -1, 1)
        series[q0:q1] = family_score(state, amps, e_vac * (coarse_t[q0:q1, None] + fine_t),
                                     omega2_convention)
    return series.ravel()[:n]


def _maximum(params: ChainParams, state: str, taus: tuple[float, ...], m_max: int,
             e1: float, u0_convention: str, omega2_convention: str,
             endpoint_only: bool = False):
    """(max value, argmax tau, argmax kick count) of one exhaustive search.

    The kicked search scores the tau by kick-count lattice and takes the
    first maximum in row-major order: the smallest tau, then the smallest
    kick count.  With ``endpoint_only`` only the kick count m_max is
    scored, so the search runs over tau alone.  With e1 = 0 there is no
    kick, and the search runs over ``CONTINUOUS_TIMES`` instead; it reports
    tau 1.0 and the argmax time in the kick-count slot (ties to the
    earliest).
    """
    if e1 == 0.0:
        series = continuous_fidelity_series(params, CONTINUOUS_TIMES, state,
                                            omega2_convention=omega2_convention)
        best = int(np.argmax(series))
        return float(series[best]), 1.0, int(CONTINUOUS_TIMES[best])
    first = m_max if endpoint_only else 0
    lattice = fidelity_lattice(params, state, taus, m_max, e1=e1, u0_convention=u0_convention,
                               omega2_convention=omega2_convention)[:, first:]
    i, m = np.unravel_index(int(np.argmax(lattice)), lattice.shape)
    return float(lattice[i, m]), taus[i], first + int(m)


def max_fidelity(params: ChainParams, state: str,
                 tau_grid: Sequence[float] = DEFAULT_TAU_GRID, m_max: int = DEFAULT_M_MAX,
                 e1: float = 1.0, u0_convention: str = U0_CONVENTIONS[0],
                 omega2_convention: str = OMEGA2_CONVENTIONS[0]):
    """Exhaustive maximum of the fidelity over the kick-interval by kick-count lattice.

    Returns (max value, argmax tau, argmax kick count); ties go to the
    smallest tau, then the smallest kick count, so reported argmaxima are
    reproducible.  With e1 = 0 there is no kick at all and the lattice
    degenerates, so the search instead runs over ``CONTINUOUS_TIMES``
    (the integer times 1..5000); the row then reports the equivalent
    stroboscopic interval 1.0 and the argmax time in the kick-count slot.
    ``tau_grid`` and ``m_max`` are checked whatever ``e1`` is.
    """
    _require_choice("u0_convention", u0_convention, U0_CONVENTIONS)
    taus = _require_grid("tau_grid", tau_grid, positive=True)
    _require_count("m_max", m_max)
    return _maximum(params, state, taus, m_max, e1, u0_convention, omega2_convention)


def _point_setup(plan: SweepPlan, value: float):
    """(params, e1, tau lattice, kick count, endpoint_only) of one grid value.

    Building the point judges the value: a FieldError on ``params`` for a
    non-uniform j2_over_j1 template, on ``impurity`` for a site off the
    chain, and on ``grid`` for a bad kick count or impurity strength.
    """
    params, impurity, e1, taus = plan.params, plan.impurity, plan.e1, plan.tau_grid
    profile, m_max, endpoint_only = params.profile, plan.m_max, False
    if plan.axis == "j2_over_j1" and (len(set(profile.j1_bonds)) != 1
                                      or len(set(profile.j2_bonds)) > 1):
        raise FieldError("params", "j2_over_j1 axis requires a uniform coupling template")
    if plan.axis == "kick_count" and (value != int(value) or value < 0):
        raise FieldError("grid", f"kick_count grid values must be non-negative integers, got {value}")
    try:
        if plan.axis == "tau":
            taus = (value,)
        elif plan.axis == "e1":
            e1 = value
        elif plan.axis == "j2_over_j1":
            j1 = profile.j1_bonds[0]
            params = replace(params, profile=uniform_profile(profile.n_sites, j1, j1 * value))
        elif plan.axis == "impurity_ratio":
            impurity = impurity_from_strength(impurity.kind, impurity.site, value)
        elif plan.axis == "kick_count":
            m_max, endpoint_only = int(value), True
    except FieldError as exc:
        raise FieldError("grid", f"{plan.axis} grid value {value}: {exc}") from None
    if impurity is not None:
        try:
            params = replace(params, profile=apply_impurity(params.profile, impurity))
        except FieldError as exc:     # its site on this chain
            raise FieldError("impurity", str(exc)) from None
    return params, e1, taus, m_max, endpoint_only


def sweep_axis(plan: SweepPlan) -> tuple[SweepRow, ...]:
    """Rows for every (grid value, state) pair, ordered by grid index then plan state order."""
    rows = []
    for idx, value in enumerate(plan.grid):
        try:
            params, e1, taus, m_max, endpoint_only = _point_setup(plan, value)
            for state in plan.states:
                val, atau, am = _maximum(params, state, taus, m_max, e1, plan.u0_convention,
                                         plan.omega2_convention, endpoint_only)
                rows.append(SweepRow(idx, value, state, val, atau, am, out_of_range(val)))
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
        raise FieldError("series", f"expected a 1-d series, got shape {x.shape}")
    if x.size < PERIODOGRAM_MIN_SAMPLES:
        raise FieldError("series", "series too short for a periodogram: "
                                   f"{x.size} < {PERIODOGRAM_MIN_SAMPLES}")
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
