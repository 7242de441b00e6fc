"""Config-driven command line: evolutions, sweeps, spectra, and validation.

Experiments are described by a YAML document with five blocks (``chain``,
``drive``, ``impurity``, ``run``, ``output``), all optional except that
sweep mode needs an axis and a grid.  The block dataclasses are the
schema: each field is a key, its default is what a missing key takes (the
canonical ten-site point: N=10, J1=1, J2=-1, E0=0.1, E1=1, tau=2).
``_read_config`` reads a config and ``_experiment`` judges it, once per
command: it reads each field, parsed or built by hand, by its type (a float
is finite; a NumPy scalar is a number) and choice set, then applies every
other rule on a value.  The impurity block is a ``model.ImpuritySpec``,
given by a strength or by all three ratios.  Unknown keys anywhere, and a
key given twice, are rejected with the offending key path.  Command line
flags are keys too: the command's ``run.mode``, ``--out``
(``output.path``) and ``--workers`` (``run.workers``) are written into the
document before it is read, so each is checked like its key and the
mode-dependent checks see the final mode.

Every run writes two files with the same records, a CSV table (the
plot-ready artifact) and a JSON mirror; reruns of the same config are
byte-identical.  Each mode hands the writer one name -> column mapping in
output order, of numpy arrays typed by dtype kind alone.  Both files are
written in one pass over blocks of 2048 rows, so the writer's memory does
not grow with the table; a failed write removes the files it opened, so it
leaves no half-written pair (a killed process still can).  Failures print a
one-line machine-readable JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from .fidelity import KNOWN_STATES, OMEGA2_CONVENTIONS, _state_list_error, classical_threshold
from .model import (
    ChainParams,
    FieldError,
    ImpuritySpec,
    _require_choice,
    _require_count,
    apply_impurity,
    default_impurity_site,
    impurity_from_strength,
    uniform_profile,
)
from .propagator import U0_CONVENTIONS, KickSchedule
from .sweep import (
    DEFAULT_M_MAX,
    DEFAULT_TAU_GRID,
    PERIODOGRAM_MIN_SAMPLES,
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

def _choice(choices: tuple[str, ...], optional: bool = False):
    """A field whose value, when given, must be one of ``choices``; its default is
    the first, or None when ``optional``."""
    return field(default=None if optional else choices[0], metadata={"choices": choices})


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
    u0_convention: str = _choice(U0_CONVENTIONS)
    omega2_convention: str = _choice(OMEGA2_CONVENTIONS)


@dataclass(frozen=True)
class RunBlock:
    mode: str = _choice(MODES)
    states: tuple[str, ...] = KNOWN_STATES[:1]
    axis: str | None = _choice(SWEEP_AXES, optional=True)
    grid: tuple[float, ...] | None = None
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    m_max: int = DEFAULT_M_MAX
    workers: int = 1


@dataclass(frozen=True)
class OutputBlock:
    path: str = "results"
    format: str = _choice(OUTPUT_FORMATS)
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
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str) -> float:
    """A finite real number, NumPy's too, not a bool; int and float skip the slow ABC check."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        hint = ""
        if isinstance(value, str) and "e" in value.lower():
            with suppress(ValueError):      # PyYAML reads 1e-3 and 1.0e3 as strings
                float(value)
                hint = ("; YAML reads a number with an exponent only with a decimal point "
                        "and a signed exponent (1.0e-3, 1.0e+3)")
        raise ConfigError(where, f"expected a number, got {value!r}{hint}")
    try:
        number = float(value)
    except OverflowError:     # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return number


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(where, f"expected a boolean, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, f"expected a string, got {value!r}")
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
    if isinstance(value, (list, tuple)):
        out = [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if not out:
            raise ConfigError(where, "grid must be nonempty")
        return tuple(out)
    raise ConfigError(where, "expected a list of numbers or a start/stop/step mapping")


def _read_states(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(where, f"expected a list of state names, got {value!r}")
    return tuple(value)


# How a present value is read, by its field's annotation with any "| None" dropped.
_READERS = {"int": _as_int, "float": _as_float, "bool": _as_bool, "str": _as_str,
            "tuple[float, ...]": _read_grid, "tuple[str, ...]": _read_states}


def _read_fields(cls, raw: dict, path: str) -> dict:
    """The keys of ``raw`` that are fields of ``cls``, each read by its type and choice set.

    Any other key is rejected.  A missing field is left out of the result,
    so ``cls(**result)`` gives it its default.
    """
    values = {}
    for f in fields(cls):
        if f.name in raw:
            where = f"{path}.{f.name}"
            value = _READERS[f.type.removesuffix(" | None")](raw.pop(f.name), where)
            with _reported_on(path):
                _require_choice(f.name, value, f.metadata.get("choices", (value,)))
            values[f.name] = value
    _reject_unknown(raw, path)
    return values


def _parse_impurity(raw: dict, n_sites: int) -> ImpuritySpec | None:
    """An impurity kind and site (mid-chain by default) with a strength or all three ratios."""
    if not raw:
        return None
    path = "impurity"
    strength = _as_float(raw.pop("strength"), f"{path}.strength") if "strength" in raw else None
    ratios = _read_fields(ImpuritySpec, raw, path)     # kind and site are popped off
    if "kind" not in ratios:
        raise ConfigError(f"{path}.kind", "required when an impurity block is present")
    kind = ratios.pop("kind")
    site = ratios.pop("site", default_impurity_site(n_sites))
    if strength is not None and ratios:
        raise ConfigError(f"{path}.strength", "give either strength or explicit ratios, not both")
    if strength is None and len(ratios) < 3:
        raise ConfigError(path, "need either strength or all of ratio_nn, "
                                "ratio_nnn_strong, ratio_nnn_weak")
    with _reported_on(path):      # the spec's own checks; _experiment checks its site
        return (impurity_from_strength(kind, site, strength) if strength is not None
                else ImpuritySpec(kind, site, **ratios))


def _reject_repeated_keys(node, path: str, seen: set):
    """Raise a ConfigError on a key given twice in one mapping under ``node``; a ``<<``
    merge is not a key, and ``seen`` stops an alias cycle."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _reject_repeated_keys(item, f"{path}[{i}]", seen)
    elif isinstance(node, yaml.MappingNode):
        keys = set()
        for key, value in node.value:
            where = path
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                where = f"{path}.{key.value}" if path else key.value
                if (key.tag, key.value) in keys:
                    raise ConfigError(where, f"given twice (line {key.start_mark.line + 1})")
                keys.add((key.tag, key.value))
            _reject_repeated_keys(value, where, seen)


def _load_yaml(text: str):
    """``yaml.safe_load``, but a key given twice is rejected instead of losing its first value."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        _reject_repeated_keys(node, "", set())
        return loader.construct_document(node) if node is not None else None
    finally:
        loader.dispose()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment description.

    Empty or missing blocks take the canonical defaults; every rule is
    checked here, by ``_experiment`` as in ``run``, before any computation.
    """
    config = _read_config(text, {})
    _experiment(config)
    return config


def _read_config(text: str, flags: dict) -> ExperimentConfig:
    """Read a config with ``flags`` ({"block.key": value}) written in; ``_experiment`` judges it."""
    try:
        doc = _load_yaml(text)
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
    drive = DriveBlock(**_read_fields(DriveBlock, raw["drive"], "drive"))
    impurity = _parse_impurity(raw["impurity"], chain.n_sites)
    run_block = RunBlock(**_read_fields(RunBlock, raw["run"], "run"))
    output = OutputBlock(**_read_fields(OutputBlock, raw["output"], "output"))
    return ExperimentConfig(chain=chain, drive=drive, impurity=impurity,
                            run=run_block, output=output)


def serialize_config(config: ExperimentConfig) -> str:
    """Normalized YAML for a config; parse_config(serialize_config(c)) == c.

    Blocks and keys follow the dataclass field order, tuples are written as
    lists, a NumPy scalar as the plain number it holds (in a list too), and
    ``None`` fields and an absent impurity are left out.
    """
    def plain(value):
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value.item() if isinstance(value, np.generic) else value

    doc = {name: {key: plain(value) for key, value in block.items() if value is not None}
           for name, block in asdict(config).items() if block is not None}
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@contextmanager
def _reported_on(block: str):
    """Re-raise a library FieldError as a ConfigError on ``<block>.<field>``; a
    rejected ``impurity`` (the sweep plan's template) is reported on that key."""
    try:
        yield
    except FieldError as exc:
        key = exc.field if exc.field == "impurity" else f"{block}.{exc.field}"
        raise ConfigError(key, str(exc)) from None


def _experiment(config: ExperimentConfig) -> tuple[ChainParams, KickSchedule, SweepPlan | None]:
    """(chain with any impurity applied, kick schedule, sweep plan or None outside sweep mode).

    Applies every rule on a config value, once per command (``parse_config``,
    ``validate`` and ``run``), and raises a ConfigError on the rejected value's
    key, in this order: each field of each block, read back by ``_read_fields``
    (type, finiteness, choice set), ``run.m_max``, ``run.workers``,
    ``output.path``, the library's rules on ``chain``, ``drive`` and ``impurity``
    (its site on this chain), ``run.states``, a periodogram's kick count, and in
    sweep mode ``run.axis``, ``run.grid`` and the plan, all from the values read.
    """
    for block in fields(config):
        values = getattr(config, block.name)
        if values is not None:      # None: no impurity; a field at a None default is not given
            given = {f.name: getattr(values, f.name) for f in fields(values)
                     if getattr(values, f.name) is not None or f.default is not None}
            read = replace(values, **_read_fields(type(values), given, block.name))
            config = replace(config, **{block.name: read})
    chain, drive, run_block, output = config.chain, config.drive, config.run, config.output
    with _reported_on("run"):
        _require_count("m_max", run_block.m_max, least=1)
        _require_count("workers", run_block.workers, least=1)
    # the last component as typed: Path drops a trailing "/" or "/." and would
    # write <dir>.csv next to the directory the path names
    if output.path.replace(os.sep, "/").rsplit("/", 1)[-1] in ("", ".", ".."):
        raise ConfigError("output.path", f"needs a file name, got {output.path!r}")
    with _reported_on("chain"):
        pure = ChainParams(uniform_profile(chain.n_sites, chain.j1, chain.j2),
                           dm_field=drive.e0, b_field=chain.b_field)
    with _reported_on("drive"):
        schedule = KickSchedule(tau=drive.tau, e1=drive.e1, n_kicks=drive.n_kicks)
    params = pure
    if config.impurity is not None:
        with _reported_on("impurity"):
            params = replace(pure, profile=apply_impurity(pure.profile, config.impurity))
    if (error := _state_list_error(run_block.states, chain.n_sites)) is not None:
        i, reason = error
        raise ConfigError("run.states" if i is None else f"run.states[{i}]", reason)
    if run_block.mode == "periodogram" and drive.n_kicks + 1 < PERIODOGRAM_MIN_SAMPLES:
        least = PERIODOGRAM_MIN_SAMPLES
        raise ConfigError("drive.n_kicks", f"a periodogram needs at least {least - 1} kicks "
                                           f"({least} samples), got {drive.n_kicks}")
    if run_block.mode != "sweep":
        return params, schedule, None
    if run_block.axis is None:
        raise ConfigError("run.axis", "required for sweep mode")
    if run_block.grid is None:
        raise ConfigError("run.grid", "required for sweep mode")
    with _reported_on("run"):
        plan = SweepPlan(params=pure, axis=run_block.axis, grid=run_block.grid,
                         states=run_block.states, impurity=config.impurity,
                         tau_grid=run_block.tau_grid, m_max=run_block.m_max, e1=drive.e1,
                         u0_convention=drive.u0_convention,
                         omega2_convention=drive.omega2_convention)
    return params, schedule, plan


def _kicked_series(config: ExperimentConfig, params: ChainParams,
                   schedule: KickSchedule) -> dict[str, np.ndarray]:
    """Each configured state's fidelity after kicks 0..n_kicks at the drive's one tau."""
    drive = config.drive
    return {s: fidelity_series(params, schedule, s, u0_convention=drive.u0_convention,
                               omega2_convention=drive.omega2_convention)
            for s in config.run.states}


def _evolve_tables(config: ExperimentConfig, params: ChainParams, schedule: KickSchedule):
    series = _kicked_series(config, params, schedule)
    kicks = np.arange(config.drive.n_kicks + 1)
    table = {"kick_index": kicks, "time": kicks * config.drive.tau}
    if config.output.physical_time_column:
        table["physical_time_ps"] = 0.5 * table["time"]   # tau = 1 corresponds to 0.5 ps
    table.update({f"fidelity_{s}": cells for s, cells in series.items()})
    table["classical_threshold"] = np.full(kicks.size, classical_threshold())
    return table


def _sweep_tables(plan: SweepPlan):
    rows = sweep_axis(plan)
    keys = ("grid_value", "state", "max_fidelity", "argmax_tau", "argmax_kicks")
    table = {key: np.array([getattr(row, key) for row in rows]) for key in keys}
    table["out_of_range_flag"] = np.array([row.out_of_range for row in rows])
    return table


def _periodogram_tables(config: ExperimentConfig, params: ChainParams, schedule: KickSchedule):
    states, frequencies, magnitudes, dominant = [], [], [], []
    for state, series in _kicked_series(config, params, schedule).items():
        f, mag, peak = periodogram(series)
        states.append(np.full(f.size, state))
        frequencies.append(f)
        magnitudes.append(mag)
        dominant.append(f == peak if peak is not None else np.zeros(f.size, dtype=bool))
    return {"state": np.concatenate(states), "frequency": np.concatenate(frequencies),
            "magnitude": np.concatenate(magnitudes), "is_dominant": np.concatenate(dominant)}


# Rows per block: each block is one %-format pass per file, so the writer
# holds one block's cells and text at a time, however long the table is.
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


def write_tables(config: ExperimentConfig, table: dict[str, np.ndarray]) -> list[Path]:
    """Emit the CSV table and its JSON mirror; returns paths, primary first.

    ``table`` maps each name, in column order, to its column, all of one
    length: a numpy bool, int, uint, float or str array, typed by dtype kind
    through _FORMATS before either file is opened.  Any other column (a list,
    an object or complex array) raises TypeError naming it and writes nothing.
    A column whose cells are bit-identical is formatted once into the row
    templates.  The bytes equal a cell-by-cell rendering: CSV cells as 1/0,
    %d, %.17g and %s, and the JSON as json.dumps(records, indent=2) of one
    record per row.

    Both files are written in one pass over blocks of _BLOCK_ROWS rows: a
    block's varying cells become Python objects once, then each file gets one
    %-format pass of the block.  If anything raises from the first open to
    the last close, the paths this call opened (created or truncated) are
    removed, a symlink and not its target, and the exception is re-raised; a
    path it could not open is left as it was.  A process killed mid-write can
    still leave partial files.
    """
    lengths = {len(cells) for cells in table.values()}
    if len(lengths) > 1:
        raise ValueError(f"need columns of one length, got lengths "
                         f"{ {name: len(cells) for name, cells in table.items()} }")
    n_rows = lengths.pop() if lengths else 0
    csv_specs, json_fields, varying = [], [], []
    for name, cells in table.items():
        csv_spec, json_spec, to_json = _column_format(name, cells)
        if _is_constant(cells):
            value = cells[:1].tolist()
            csv_spec = (csv_spec % tuple(value)).replace("%", "%%")
            json_spec = (json_spec % tuple(to_json(value) if to_json else value)).replace("%", "%%")
        else:
            varying.append((cells, to_json))
        csv_specs.append(csv_spec)
        json_fields.append(f'\n    {json.dumps(name).replace("%", "%%")}: {json_spec}')
    csv_row = ",".join(csv_specs) + "\n"
    json_record = "  {" + ",".join(json_fields) + "\n  }"

    csv_path, json_path = _output_paths(config)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        with ExitStack() as stack:
            for path in (csv_path, json_path):
                opened.append(stack.enter_context(open(path, "w", encoding="utf-8")))
            csv_file, json_file = opened
            csv_file.write(",".join(table) + "\n")
            json_file.write("[")
            for start in range(0, n_rows, _BLOCK_ROWS):
                n = min(_BLOCK_ROWS, n_rows - start)
                block = [cells[start:start + n].tolist() for cells, _ in varying]
                tokens = [to_json(b) if to_json else b for b, (_, to_json) in zip(block, varying)]
                csv_file.write(csv_row * n % tuple(chain.from_iterable(zip(*block))))
                records = ("," if start else "") + "\n" + ",\n".join([json_record] * n)
                json_file.write(records % tuple(chain.from_iterable(zip(*tokens))))
            json_file.write("\n]\n" if n_rows else "]\n")
    except BaseException:
        for file in opened:
            os.unlink(file.name)
        raise
    return [json_path, csv_path] if config.output.format == "json" else [csv_path, json_path]


def run(config: ExperimentConfig) -> list[Path]:
    """Execute one experiment; returns the written files, primary format first."""
    params, schedule, plan = _experiment(config)
    if config.run.mode == "sweep":
        return write_tables(config, _sweep_tables(plan))
    tables = _evolve_tables if config.run.mode == "evolve" else _periodogram_tables
    return write_tables(config, tables(config, params, schedule))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedchain",
        description="Quantum state transfer through a periodically kicked spin chain.",
    )
    # a flag's dest is the key path it sets; main writes a mode command into run.mode
    parser.add_argument("command", choices=(*MODES, "validate"),
                        help="run that mode, or validate: print the config's normalized form")
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML experiment file (defaults apply when omitted)")
    parser.add_argument("--out", dest="output.path", metavar="OUT", help="override output.path")
    parser.add_argument("--workers", dest="run.workers", metavar="WORKERS", type=int,
                        help="override run.workers (does not change scheduling or results)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        flags = {k: v for k, v in vars(args).items() if "." in k and v is not None}
        if args.command in MODES:
            flags["run.mode"] = args.command
        config = _read_config(text, flags)
        if args.command == "validate":
            _experiment(config)
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
