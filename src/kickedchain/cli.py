"""Config-driven command line: evolutions, sweeps, spectra, and validation.

Experiments are described by a YAML document with five blocks (``chain``,
``drive``, ``impurity``, ``run``, ``output``), all optional except that
sweep mode needs an axis and a grid.  The block dataclasses are the
schema: each field is a key, its default is what a missing key takes (the
canonical ten-site point: N=10, J1=1, J2=-1, E0=0.1, E1=1, tau=2), and a
present value is read by the field's type or, for a choice, checked
against the choice set in the field's metadata.  The impurity block is a
``model.ImpuritySpec``, given by a strength or by all three ratios.
Unknown keys anywhere are rejected with the offending key path.  Command
line flags are keys too: the subcommand's ``run.mode``, ``--out``
(``output.path``) and ``--workers`` (``run.workers``) are written into the
document before it is read, so each is checked like its key and the
mode-dependent checks see the final mode.

Every run writes two files with the same records, a CSV table (the
plot-ready artifact) and a JSON mirror; reruns of the same config are
byte-identical.  Each mode hands the writer numpy columns, typed by dtype
kind alone.  A table longer than one 2048-row block (a long evolve or
periodogram) has its JSON written by a forked child while the CSV is
written here, so the two use both cores; every sweep and recipe table is
shorter and is written in-process, as on a platform without os.fork.
Failures, the child's included, print a one-line machine-readable JSON
error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from .fidelity import KNOWN_STATES, OMEGA2_CONVENTIONS, classical_threshold, family_sector
from .model import (
    ChainParams,
    IMPURITY_KINDS,
    ImpuritySpec,
    apply_impurity,
    default_impurity_site,
    impurity_from_strength,
    uniform_profile,
)
from .propagator import U0_CONVENTIONS, KickSchedule
from .sweep import (
    DEFAULT_TAU_GRID,
    SWEEP_AXES,
    SweepPlan,
    fidelity_series,
    float_grid,
    periodogram,
    sweep_axis,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ChainBlock",
    "DriveBlock",
    "RunBlock",
    "OutputBlock",
    "parse_config",
    "serialize_config",
    "run",
    "main",
]

MODES = ("evolve", "sweep", "periodogram")
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Configuration problem, tagged with the key path that caused it."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)


# ---------------------------------------------------------------------------
# Config blocks
# ---------------------------------------------------------------------------

def _choice(default: str | None, choices: tuple[str, ...]):
    """A field whose value, when given, must be one of ``choices``."""
    return field(default=default, metadata={"choices": choices})


@dataclass(frozen=True)
class ChainBlock:
    n_sites: int = 10
    j1: float = 1.0
    j2: float = -1.0
    b_field: float = 0.0


@dataclass(frozen=True)
class DriveBlock:
    e0: float = 0.1
    e1: float = 1.0
    tau: float = 2.0
    n_kicks: int = 500
    u0_convention: str = _choice("hamiltonian_tau", U0_CONVENTIONS)
    omega2_convention: str = _choice("re_amplitude", OMEGA2_CONVENTIONS)


@dataclass(frozen=True)
class RunBlock:
    mode: str = _choice("evolve", MODES)
    states: tuple[str, ...] = ("omega0",)
    axis: str | None = _choice(None, SWEEP_AXES)
    grid: tuple[float, ...] | None = None
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    m_max: int = 500
    workers: int = 1


@dataclass(frozen=True)
class OutputBlock:
    path: str = "results"
    format: str = _choice("csv", OUTPUT_FORMATS)
    physical_time_column: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainBlock = ChainBlock()
    drive: DriveBlock = DriveBlock()
    impurity: ImpuritySpec | None = None
    run: RunBlock = RunBlock()
    output: OutputBlock = OutputBlock()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _expect_mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return dict(obj)


def _reject_unknown(block: dict, path: str):
    if block:
        key = sorted(str(k) for k in block)[0]
        raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    """A finite number from a config value; bools, non-numbers, NaN and +-inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return float(value)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(where, f"expected a boolean, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, f"expected a string, got {value!r}")
    return value


def _as_choice(value, choices: tuple[str, ...], where: str) -> str:
    if value not in choices:
        raise ConfigError(where, f"expected one of {choices}, got {value!r}")
    return value


def _read_grid(value, where: str) -> tuple[float, ...]:
    """A grid is either an explicit list of numbers or {start, stop, step}."""
    if isinstance(value, dict):
        spec = dict(value)
        bounds = [_as_float(spec.pop(k), f"{where}.{k}") for k in ("start", "stop", "step")
                  if k in spec]
        _reject_unknown(spec, where)
        if len(bounds) < 3:
            raise ConfigError(where, "grid mapping needs start, stop and step")
        try:
            return float_grid(*bounds)
        except ValueError as exc:
            raise ConfigError(where, str(exc)) from None
    if isinstance(value, list):
        out = [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if not out:
            raise ConfigError(where, "grid must be nonempty")
        return tuple(out)
    raise ConfigError(where, "expected a list of numbers or a start/stop/step mapping")


def _read_states(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(where, "expected a nonempty list of state names")
    states = []
    for i, s in enumerate(value):
        _as_choice(s, KNOWN_STATES, f"{where}[{i}]")
        if s in states:
            raise ConfigError(f"{where}[{i}]", f"duplicate state {s!r}")
        states.append(s)
    return tuple(states)


# How a present value is read, by its field's annotation with any "| None" dropped.
_READERS = {"int": _as_int, "float": _as_float, "bool": _as_bool, "str": _as_str,
            "tuple[float, ...]": _read_grid, "tuple[str, ...]": _read_states}


def _read_fields(cls, raw: dict, path: str) -> dict:
    """The keys of ``raw`` that are fields of ``cls``, each read by its type or choice set.

    Any other key is rejected.  A missing field is left out of the result,
    so ``cls(**result)`` gives it its default.
    """
    values = {}
    for f in fields(cls):
        if f.name in raw:
            where = f"{path}.{f.name}"
            if "choices" in f.metadata:
                values[f.name] = _as_choice(raw.pop(f.name), f.metadata["choices"], where)
            else:
                values[f.name] = _READERS[f.type.removesuffix(" | None")](raw.pop(f.name), where)
    _reject_unknown(raw, path)
    return values


def _parse_impurity(raw: dict, chain: ChainBlock) -> ImpuritySpec | None:
    """An impurity kind and site (mid-chain by default) with a strength or all three ratios."""
    if not raw:
        return None
    path = "impurity"
    strength = _as_float(raw.pop("strength"), f"{path}.strength") if "strength" in raw else None
    ratios = _read_fields(ImpuritySpec, raw, path)     # kind and site are popped off
    if "kind" not in ratios:
        raise ConfigError(f"{path}.kind", "required when an impurity block is present")
    kind = _as_choice(ratios.pop("kind"), IMPURITY_KINDS, f"{path}.kind")
    site = ratios.pop("site", default_impurity_site(chain.n_sites))
    if strength is not None and ratios:
        raise ConfigError(f"{path}.strength", "give either strength or explicit ratios, not both")
    if strength is None and len(ratios) < 3:
        raise ConfigError(path, "need either strength or all of ratio_nn, "
                                "ratio_nnn_strong, ratio_nnn_weak")
    try:
        spec = (impurity_from_strength(kind, site, strength) if strength is not None
                else ImpuritySpec(kind, site, **ratios))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None

    # re-validate against the chain geometry so bad sites fail at parse time
    try:
        apply_impurity(uniform_profile(chain.n_sites, chain.j1, chain.j2), spec)
    except ValueError as exc:
        raise ConfigError(f"{path}.site", str(exc)) from None
    return spec


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment description.

    Empty or missing blocks take the canonical defaults; every upstream
    numeric constraint is re-checked here so invalid configs fail before
    any computation starts.
    """
    return _read_config(text, {})


def _read_config(text: str, flags: dict) -> ExperimentConfig:
    """``parse_config`` with ``flags`` ({"block.key": value}) written into the document first."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "document"
        raise ConfigError("", f"YAML parse error at {where}: {exc}") from None
    top = _expect_mapping(doc, "document")
    raw = {f.name: _expect_mapping(top.pop(f.name, None), f.name)
           for f in fields(ExperimentConfig)}
    _reject_unknown(top, "")
    for key_path, value in flags.items():
        block, key = key_path.split(".")
        raw[block][key] = value

    chain = ChainBlock(**_read_fields(ChainBlock, raw["chain"], "chain"))
    if chain.n_sites < 2:
        raise ConfigError("chain.n_sites", f"need at least 2 sites, got {chain.n_sites}")

    drive = DriveBlock(**_read_fields(DriveBlock, raw["drive"], "drive"))
    try:
        _schedule(drive)
    except ValueError as exc:
        raise ConfigError("drive", str(exc)) from None

    impurity = _parse_impurity(raw["impurity"], chain)

    run_block = RunBlock(**_read_fields(RunBlock, raw["run"], "run"))
    if run_block.m_max < 1:
        raise ConfigError("run.m_max", f"must be >= 1, got {run_block.m_max}")
    if run_block.workers < 1:
        raise ConfigError("run.workers", f"must be >= 1, got {run_block.workers}")
    for i, state in enumerate(run_block.states):
        try:
            family_sector(state, chain.n_sites)
        except ValueError as exc:
            raise ConfigError(f"run.states[{i}]", str(exc)) from None

    output = OutputBlock(**_read_fields(OutputBlock, raw["output"], "output"))
    if Path(output.path).name in ("", ".."):
        raise ConfigError("output.path", f"needs a file name, got {output.path!r}")

    config = ExperimentConfig(chain=chain, drive=drive, impurity=impurity,
                              run=run_block, output=output)
    if run_block.mode == "sweep":
        _sweep_plan(config)
    if run_block.mode == "periodogram" and drive.n_kicks < 3:
        raise ConfigError("drive.n_kicks", f"a periodogram needs at least 3 kicks (4 samples), "
                                           f"got {drive.n_kicks}")
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Normalized YAML for a config; parse_config(serialize_config(c)) == c.

    Blocks and keys follow the dataclass field order, tuples are written as
    lists, and ``None`` fields and an absent impurity are left out.
    """
    doc = {name: {key: list(value) if isinstance(value, tuple) else value
                  for key, value in block.items() if value is not None}
           for name, block in asdict(config).items() if block is not None}
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _template_params(config: ExperimentConfig, with_impurity: bool) -> ChainParams:
    profile = uniform_profile(config.chain.n_sites, config.chain.j1, config.chain.j2)
    if with_impurity and config.impurity is not None:
        profile = apply_impurity(profile, config.impurity)
    return ChainParams(profile, dm_field=config.drive.e0, b_field=config.chain.b_field)


def _schedule(drive: DriveBlock) -> KickSchedule:
    return KickSchedule(tau=drive.tau, e1=drive.e1, n_kicks=drive.n_kicks)


def _sweep_plan(config: ExperimentConfig) -> SweepPlan:
    """The sweep plan of a config; a plan the library rejects is a ConfigError on ``run``."""
    run_block = config.run
    if run_block.axis is None:
        raise ConfigError("run.axis", "required for sweep mode")
    if run_block.grid is None:
        raise ConfigError("run.grid", "required for sweep mode")
    try:
        return SweepPlan(
            params=_template_params(config, with_impurity=False),
            axis=run_block.axis,
            grid=run_block.grid,
            states=run_block.states,
            impurity=config.impurity,
            tau_grid=run_block.tau_grid,
            m_max=run_block.m_max,
            e1=config.drive.e1,
            u0_convention=config.drive.u0_convention,
            omega2_convention=config.drive.omega2_convention,
        )
    except ValueError as exc:
        raise ConfigError("run", str(exc)) from None


def _kicked_series(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Each configured state's fidelity after kicks 0..n_kicks at the drive's one tau."""
    params = _template_params(config, with_impurity=True)
    drive = config.drive
    return {s: fidelity_series(params, _schedule(drive), s, drive.n_kicks,
                               u0_convention=drive.u0_convention,
                               omega2_convention=drive.omega2_convention)
            for s in config.run.states}


def _evolve_tables(config: ExperimentConfig):
    series = _kicked_series(config)
    drive = config.drive
    states = config.run.states
    with_ps = config.output.physical_time_column
    names = ["kick_index", "time"]
    if with_ps:
        names.append("physical_time_ps")   # tau = 1 corresponds to 0.5 ps
    names += [f"fidelity_{s}" for s in states]
    names.append("classical_threshold")
    kicks = np.arange(drive.n_kicks + 1)
    times = kicks * drive.tau
    columns = [kicks, times]
    if with_ps:
        columns.append(0.5 * times)
    columns += [series[s] for s in states]
    columns.append(np.full(kicks.size, classical_threshold()))
    return names, columns


def _sweep_tables(config: ExperimentConfig, workers: int):
    rows = sweep_axis(_sweep_plan(config), workers=workers)
    keys = ("grid_value", "state", "max_fidelity", "argmax_tau", "argmax_kicks", "out_of_range")
    names = [*keys[:-1], "out_of_range_flag"]
    return names, [np.array([getattr(row, key) for row in rows]) for key in keys]


def _periodogram_tables(config: ExperimentConfig):
    names = ["state", "frequency", "magnitude", "is_dominant"]
    states, frequencies, magnitudes, dominant = [], [], [], []
    for state, series in _kicked_series(config).items():
        f, mag, peak = periodogram(series)
        states.append(np.full(f.size, state))
        frequencies.append(f)
        magnitudes.append(mag)
        dominant.append(f == peak if peak is not None else np.zeros(f.size, dtype=bool))
    return names, [np.concatenate(states), np.concatenate(frequencies),
                   np.concatenate(magnitudes), np.concatenate(dominant)]


# Rows per block: each block is one %-format pass per file, so a writer
# holds one block's cells and text at a time, however long the table is.
# Only a table longer than one block forks its JSON writer: fork and wait cost
# about 3 ms in a process that has imported numpy, twice what the JSON of a
# 501-row recipe table takes to write.
_BLOCK_ROWS = 2048
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_bools(cells):
    return ["true" if v else "false" for v in cells]


def _json_strings(cells):
    encoded = {s: json.dumps(s) for s in set(cells)}
    return list(map(encoded.__getitem__, cells))


def _json_nonfinite_floats(cells):
    return [_JSON_NONFINITE.get(t, t) for t in map(repr, cells)]


# (CSV spec, JSON spec, JSON token function or None) by dtype kind.  JSON ints and
# finite floats go straight into %d and %r (float repr is what json.dumps writes);
# bools, strs and a float column with a non-finite cell pass through a token function.
_FORMATS = {"b": ("%d", "%s", _json_bools), "i": ("%d", "%d", None), "u": ("%d", "%d", None),
            "f": ("%.17g", "%r", None), "U": ("%s", "%s", _json_strings)}


def _column_format(name: str, cells) -> tuple:
    """(CSV spec, JSON spec, JSON token function or None) of one column, by its dtype kind."""
    kind = cells.dtype.kind if isinstance(cells, np.ndarray) else None
    if kind not in _FORMATS:
        found = cells.dtype if kind else type(cells).__name__
        raise TypeError(f"column {name!r} must be a bool, int, float or str array, not {found}")
    if kind == "f" and not np.isfinite(cells).all():
        return _FORMATS["f"][0], "%s", _json_nonfinite_floats
    return _FORMATS[kind]


def _is_constant(cells: np.ndarray) -> bool:
    """Whether a nonempty column holds one value; floats compare bits, so 0.0 and
    -0.0 differ and an all-NaN column is constant."""
    if not cells.size:
        return False
    if cells.dtype.kind == "f":
        cells = cells.view(f"u{cells.itemsize}")
    return bool((cells == cells[0]).all())


def _output_paths(config: ExperimentConfig) -> tuple[Path, Path]:
    """(CSV path, JSON path): ``output.path`` with any .csv or .json suffix replaced."""
    raw = Path(config.output.path)
    base = raw.with_suffix("") if raw.suffix in (".csv", ".json") else raw
    return base.parent / (base.name + ".csv"), base.parent / (base.name + ".json")


@dataclass(frozen=True)
class _Table:
    """A typed table: row templates with its constant columns baked in as text,
    and the varying columns as (cells, JSON token function or None)."""
    names: list[str]
    n_rows: int
    csv_row: str
    json_record: str
    varying: list


def _typed_table(names: list[str], columns: list) -> _Table:
    """Check and type every column and build the row templates of both files."""
    lengths = {len(cells) for cells in columns}
    if len(columns) != len(names) or len(lengths) > 1:
        raise ValueError(f"need one column per name, all of one length; got {len(names)} "
                         f"names and columns of lengths {[len(c) for c in columns]}")
    csv_row, json_fields, varying = [], [], []
    for name, cells in zip(names, columns):
        csv_spec, json_spec, to_json = _column_format(name, cells)
        if _is_constant(cells):
            value = cells[:1].tolist()
            csv_spec = (csv_spec % tuple(value)).replace("%", "%%")
            json_spec = (json_spec % tuple(to_json(value) if to_json else value)).replace("%", "%%")
        else:
            varying.append((cells, to_json))
        csv_row.append(csv_spec)
        json_fields.append(f'\n    {json.dumps(name).replace("%", "%%")}: {json_spec}')
    return _Table(names=names, n_rows=lengths.pop() if lengths else 0,
                  csv_row=",".join(csv_row) + "\n",
                  json_record="  {" + ",".join(json_fields) + "\n  }", varying=varying)


def _blocks(table: _Table):
    """(first row, row count, varying cells as Python lists) for each block of the table."""
    for start in range(0, table.n_rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, table.n_rows)
        yield start, stop - start, [cells[start:stop].tolist() for cells, _ in table.varying]


def _write_csv(file, table: _Table):
    file.write(",".join(table.names) + "\n")
    for _, n, block in _blocks(table):
        file.write(table.csv_row * n % tuple(chain.from_iterable(zip(*block))))


def _write_json(file, table: _Table):
    file.write("[")
    for start, n, block in _blocks(table):
        tokens = [to_json(b) if to_json else b for b, (_, to_json) in zip(block, table.varying)]
        records = ("," if start else "") + "\n" + ",\n".join([table.json_record] * n)
        file.write(records % tuple(chain.from_iterable(zip(*tokens))))
    file.write("\n]\n" if table.n_rows else "]\n")


def _write_forked(csv_file, json_file, json_path: Path, table: _Table):
    """Write the JSON in a forked child while this process writes the CSV.

    Returns once both files are written.  The child reports a failure
    through a pipe, so stderr keeps the command line's one error record, and
    leaves through os._exit, so it runs no atexit handler and flushes no
    buffer it shares with this process.  An exception here kills the child;
    either way the child is reaped before this returns or raises.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:            # e.g. out of processes
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            _write_json(json_file, table)
            json_file.flush()
            status = 0
        except BaseException as exc:   # the child must never unwind into its caller
            with open(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(f"{type(exc).__name__}: {exc}")
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        _write_csv(csv_file, table)
    except BaseException:
        import signal    # here, not at the top: it adds about 1 ms to every start-up
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with open(read_fd, encoding="utf-8", errors="replace") as pipe:
            message = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError(f"writing {json_path} failed: "
                           f"{message or f'the writer exited with status {status}'}")


def write_tables(config: ExperimentConfig, names: list[str], columns: list) -> list[Path]:
    """Emit the CSV table and its JSON mirror; returns paths, primary first.

    ``columns`` holds one column per name, all of one length, each a numpy
    bool, int, uint, float or str array, typed by its dtype kind through
    _FORMATS before either file is opened: any other column (a list, an
    object or complex array) raises TypeError naming it and writes nothing.
    A column whose cells are bit-identical is formatted once into the row
    templates.
    Each file is written in blocks of _BLOCK_ROWS rows, one %-format pass per
    block.  The bytes equal a cell-by-cell rendering: CSV cells as 1/0, %d,
    %.17g and %s, and the JSON as json.dumps(records, indent=2) of one
    record per row.

    Both files are opened (and so created) before either is written.  A
    table of at most one block, which covers every sweep and recipe, is
    then written here, CSV first: forking costs more than its JSON takes.
    A longer one, where os.fork exists, has its JSON written by a forked
    child while this process writes the CSV; a failure in the child raises
    RuntimeError naming the JSON path and carrying the child's error, and
    no child outlives the call.  The child only formats text and makes no
    BLAS call; on Python >= 3.12 a process whose BLAS runs threads gets a
    DeprecationWarning from the fork.
    """
    table = _typed_table(names, columns)
    csv_path, json_path = _output_paths(config)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with (open(csv_path, "w", encoding="utf-8") as csv_file,
          open(json_path, "w", encoding="utf-8") as json_file):
        if table.n_rows > _BLOCK_ROWS and hasattr(os, "fork"):
            _write_forked(csv_file, json_file, json_path, table)
        else:
            _write_csv(csv_file, table)
            _write_json(json_file, table)
    return [json_path, csv_path] if config.output.format == "json" else [csv_path, json_path]


def run(config: ExperimentConfig, workers: int | None = None) -> list[Path]:
    """Execute one experiment; returns the written files, primary format first."""
    mode = config.run.mode
    if mode == "evolve":
        names, columns = _evolve_tables(config)
    elif mode == "sweep":
        names, columns = _sweep_tables(config, workers or config.run.workers)
    elif mode == "periodogram":
        names, columns = _periodogram_tables(config)
    else:
        raise ConfigError("run.mode", f"expected one of {MODES}, got {mode!r}")
    return write_tables(config, names, columns)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedchain",
        description="Quantum state transfer through a periodically kicked spin chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "evolve": "fidelity after each kick at one parameter point",
        "sweep": "maximum fidelity along a parameter grid",
        "periodogram": "discrete Fourier spectrum of the fidelity series",
        "validate": "parse a config and print its normalized form",
    }
    # a flag's dest is the key path it sets; the subcommand sets run.mode
    for name, text in help_text.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", type=Path, default=None,
                        help="YAML experiment file (defaults apply when omitted)")
        sp.add_argument("--out", dest="output.path", metavar="OUT",
                        help="override output.path")
        sp.add_argument("--workers", dest="run.workers", metavar="WORKERS", type=int,
                        help="override run.workers (does not change scheduling or results)")
        if name in MODES:
            sp.set_defaults(**{"run.mode": name})
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        flags = {k: v for k, v in vars(args).items() if "." in k and v is not None}
        config = _read_config(text, flags)
        if args.command == "validate":
            sys.stdout.write(serialize_config(config))
            return 0
        for path in run(config):
            print(f"wrote {path}")
        return 0
    except Exception as exc:   # all failures become one machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        key_path = getattr(exc, "key_path", None)
        if key_path:
            record["key_path"] = key_path
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
