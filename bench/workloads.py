"""Benchmark workloads: seeded configs built from the figure recipes, and the row check.

Each workload starts from one or more checked-in recipes under ``configs/``
and narrows them to a seed-chosen subset (grid points, or the evolve
interval) so that every seed costs the same amount of work.  The check
compares every CSV row the CLI writes against reference values stored in
``bench/reference`` (made by ``bench/make_reference.py``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECIPES = ROOT / "configs"
REFERENCE = BENCH / "reference"

FIDELITY_TOL = 1e-9
STATES = ("omega0", "omega1", "omega2")
# The recipes leave the lattice at the CLI defaults: 100 kick intervals
# (0.1..10) by kick counts 0..500, and 5000 probe times without kicks.
TAU_COUNT = 100
KICK_COUNTS = 501
PROBE_TIMES = 5000
EVOLVE_TAUS = (2.0, 2.1, 2.2, 2.3)
EVOLVE_KICKS = 20000
TINY_EVOLVE_KICKS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    workers: int
    points: int          # grid points per sample (sweeps only)


WORKLOADS = {
    w.name: w for w in (
        Workload("kicked_omega0_j2", "sweep", 1, 2),
        Workload("kicked_omega2_e1_w2", "sweep", 2, 2),
        Workload("nokick_all_states", "sweep", 1, 6),
        Workload("evolve_long", "evolve", 1, 0),
    )
}


@dataclass(frozen=True)
class Case:
    """One concrete workload instance: the config the CLI gets and what it must print."""

    workload: Workload
    config: dict
    grid: tuple[float, ...]      # sweep points, in output order
    states: tuple[str, ...]
    tau: float | None            # evolve only
    n_kicks: int                 # evolve only
    cells: int

    @property
    def expected_rows(self) -> int:
        if self.workload.mode == "evolve":
            return self.n_kicks + 1
        return len(self.grid) * len(self.states)


def config_yaml(config: dict, out_path: str) -> str:
    """The YAML the CLI reads: the workload config with its output under ``out_path``."""
    doc = json.loads(json.dumps(config))
    doc["output"] = {"path": out_path}
    return yaml.safe_dump(doc, sort_keys=False)


def load_recipe(name: str) -> dict:
    return yaml.safe_load((RECIPES / f"{name}.yaml").read_text(encoding="utf-8"))


def recipe_grid(recipe: dict) -> tuple[float, ...]:
    """The recipe's sweep grid, expanded with the CLI's inclusive decimal-clean rule.

    Restated here rather than imported, so the benchmark depends on the
    package only through its command line.
    """
    grid = recipe["run"]["grid"]
    if isinstance(grid, list):
        return tuple(float(g) for g in grid)
    start, stop, step = float(grid["start"]), float(grid["stop"]), float(grid["step"])
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    values = (round(start + i * step, 12) for i in range(count))
    return tuple(v for v in values if v <= stop + step * 1e-9)


def _nokick_recipe() -> dict:
    """fig5{a,b,c}_nokick differ only in their state; merge them into one all-state recipe."""
    recipes = [load_recipe(f"fig5{x}_nokick") for x in "abc"]
    base = recipes[0]
    for other in recipes[1:]:
        if (other.get("chain"), other.get("drive"), recipe_grid(other)) != \
                (base.get("chain"), base.get("drive"), recipe_grid(base)):
            raise ValueError("fig5{a,b,c}_nokick no longer share chain, drive and grid")
    states = {s for r in recipes for s in r["run"]["states"]}
    merged = json.loads(json.dumps(base))
    merged["run"]["states"] = [s for s in STATES if s in states]
    return merged


def full_recipe(name: str) -> dict:
    """The workload's recipe over everything a seed can pick (the reference covers all of it)."""
    if name == "kicked_omega0_j2":
        return load_recipe("fig5c_kicked")
    if name == "kicked_omega2_e1_w2":
        return load_recipe("fig8a_r17")
    if name == "nokick_all_states":
        return _nokick_recipe()
    if name == "evolve_long":
        recipe = load_recipe("fig4a")
        recipe["run"]["states"] = list(STATES)
        recipe["drive"]["n_kicks"] = EVOLVE_KICKS
        return recipe
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")


def pickable_points(name: str, recipe: dict) -> tuple[float, ...]:
    grid = recipe_grid(recipe)
    if name == "kicked_omega2_e1_w2":
        # e1 = 0 takes the cheaper kick-free path; leaving it out keeps every seed's cost equal
        grid = tuple(g for g in grid if g != 0.0)
    return grid


def make_case(name: str, seed: int, tiny: bool = False) -> Case:
    """The seed's instance of a workload; ``tiny`` shrinks it for the benchmark's own tests."""
    recipe = full_recipe(name)
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    states = tuple(recipe["run"].get("states", ["omega0"]))
    if workload.mode == "evolve":
        tau = rng.choice(EVOLVE_TAUS)
        n_kicks = TINY_EVOLVE_KICKS if tiny else EVOLVE_KICKS
        recipe["drive"].update(tau=tau, n_kicks=n_kicks)
        return Case(workload, recipe, (), states, tau, n_kicks,
                    cells=len(states) * (n_kicks + 1))
    count = 1 if tiny else workload.points
    grid = tuple(sorted(rng.sample(pickable_points(name, recipe), count)))
    recipe["run"]["grid"] = list(grid)
    per_point = PROBE_TIMES if recipe["drive"]["e1"] == 0 else TAU_COUNT * KICK_COUNTS
    return Case(workload, recipe, grid, states, None, 0,
                cells=len(grid) * len(states) * per_point)


# ---------------------------------------------------------------------------
# Reference rows and the check
# ---------------------------------------------------------------------------

def reference_path(name: str) -> Path:
    if WORKLOADS[name].mode == "evolve":
        return REFERENCE / f"{name}.npz"
    return REFERENCE / f"{name}.csv"


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def load_reference(name: str):
    """Sweep workloads: {(grid_value, state): row}.  Evolve: {tau: (kicks+1, states) array}."""
    path = reference_path(name)
    if WORKLOADS[name].mode == "evolve":
        with np.load(path) as data:
            return {float(key.split("_", 1)[1]): data[key] for key in data.files}
    rows = _read_csv(path.read_text(encoding="utf-8"))
    return {(float(r["grid_value"]), r["state"]): r for r in rows}


def _sweep_row_ok(row: dict, ref: dict) -> bool:
    return (abs(float(row["max_fidelity"]) - float(ref["max_fidelity"])) <= FIDELITY_TOL
            and float(row["argmax_tau"]) == float(ref["argmax_tau"])
            and int(row["argmax_kicks"]) == int(ref["argmax_kicks"])
            and row["out_of_range_flag"] == ref["out_of_range_flag"])


def _evolve_row_ok(m: int, row: dict, case: Case, ref: np.ndarray) -> bool:
    if int(row["kick_index"]) != m or abs(float(row["time"]) - m * case.tau) > FIDELITY_TOL:
        return False
    return all(abs(float(row[f"fidelity_{s}"]) - ref[m, j]) <= FIDELITY_TOL
               for j, s in enumerate(case.states))


def check_rows(case: Case, csv_text: str | None, reference) -> tuple[int, int]:
    """(rows checked, rows failed) for one CLI output; ``None`` means the run failed.

    Every expected row is checked.  A missing, extra or unparsable row
    fails, and a failed run fails all of its expected rows.
    """
    expected = case.expected_rows
    if csv_text is None:
        return expected, expected
    try:
        rows = _read_csv(csv_text)
    except csv.Error:
        return expected, expected
    checked = max(expected, len(rows))
    failed = checked - min(expected, len(rows))
    if case.workload.mode == "evolve":
        ref = reference[case.tau]
        keys = range(expected)
    else:
        keys = [(g, s) for g in case.grid for s in case.states]
    for key, row in zip(keys, rows):
        try:
            if case.workload.mode == "evolve":
                ok = _evolve_row_ok(key, row, case, ref)
            else:
                ok = (float(row["grid_value"]), row["state"]) == key \
                    and _sweep_row_ok(row, reference[key])
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return checked, failed
