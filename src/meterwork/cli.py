"""Command-line front end.

Three subcommands: ``relaxation`` (weight/entropy trajectories),
``jarzynski`` (exact and sampled work statistics for a named drive
scenario), and ``scheme`` (full five-step protocol runs with both equality
checks and the entropy ledger).

Settings merge in order: built-in defaults, then a flat ``key = value``
config file (``--config``), then explicit flags; each setting's default,
config key and flag are declared once, in `_SETTINGS`. All floating-point
output is printed with 17 significant digits so files round-trip exactly.
Samples are drawn from seeded streams in blocks of 4096, so the output files
are a function of the settings and the seed: a repeated run gives the same
bytes. A sample is drawn as its branch code; every value it writes but its
stream and its position is a table entry of that branch, rendered once per
entry and command; a position is written as its 1000-row chunk's leading
digits and one of a table of 1000 three-digit suffixes. Both sampling
commands write one block at a time and keep whole only what their
checks read: ``jarzynski`` the work column (8 bytes per sample), ``scheme``
its branch codes (8 bytes per run) and five float columns.

Exit status is 0 iff every enabled check passed. A machine-readable summary
is written even when checks fail; on a domain error (exit status 2) it holds
``"passed": false`` and the error's type and message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import fields as dataclass_fields
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemeConstraintError
from .jarzynski import (
    DriveSchedule,
    _equality_target,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    tpm_blocks,
)
from .linalg import Operator
from .numeric import DEFAULT_POLICY, NumericPolicy, require_integer
from .relaxation import (
    entropy_of_weight,
    simulate_direct,
    simulate_poisson_cutoff,
    simulate_statistical,
)
from .scheme import (
    RECORD_COLUMNS,
    SchemeConfig,
    _CHECKED_COLUMNS,
    _draw_runs,
    _summarize,
    szilard_schedule,
    verify_unitary_roundtrips,
)
from .streams import _block_rows

__all__ = ["main"]


def f17(x: float) -> str:
    """Fixed 17-significant-digit rendering (exact float round trip)."""
    return format(float(x), ".17g")


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return f17(x) if math.isfinite(x) else json.dumps(str(x))
    return json.dumps(obj)


def write_json(path: Path, obj) -> None:
    path.write_text(_json_render(obj) + "\n")


# Rows are formatted and written in chunks, so the text in memory stays flat
# as the row count grows: each chunk's text is built whole before it is
# written. (Both sampling commands pass one stream block at a time.) A chunk
# of a coded block ends where its position reaches a multiple of this, so
# every position in the chunk is the chunk's leading digits,
# str(position // 1000), followed by one of 1000 three-digit suffixes; it
# must be 1000 for that. Larger chunks cost memory and buy no speed: with
# 4096-row chunks `scheme --config configs/scheme_default.cfg` peaked at
# 38.1 MiB instead of 34.5 MiB (+10 %), at the same wall time.
_ROWS_PER_BLOCK = 1000


def _cells(column: np.ndarray) -> tuple[str, Callable[[np.ndarray], list]]:
    """Format spec of one column, and the map from an array of its values to
    the Python values the spec takes: %d for integers, %.17g for floats."""
    kind = column.dtype.kind
    if kind in "iuf":
        return ("%.17g" if kind == "f" else "%d"), np.ndarray.tolist
    raise TypeError(f"cannot write a column of dtype {column.dtype}")


def _json_cells(column: np.ndarray) -> tuple[str, Callable[[np.ndarray], list]]:
    """As `_cells`, except that a float column holding a non-finite value
    renders each value as `write_json` does, so inf and nan become quoted
    strings (finite values read the same either way)."""
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        return "%s", lambda values: [_json_render(x) for x in values.tolist()]
    return _cells(column)


class Coded(NamedTuple):
    """A block of rows, each of them one entry of a table.

    Row j is entry ``code[j]`` of `table`, which maps column names to
    columns of one value per entry, together with the values `constants`
    maps the block's constant columns to and, in the one column named in
    neither, its position ``first + j``. A command passes the same `table`
    object in every block, so its entries are rendered once.
    """

    code: np.ndarray
    table: Mapping[str, np.ndarray]
    constants: Mapping[str, object]
    first: int


def _split_row(row: str, specs) -> list[str]:
    """The literal text of a row template before, between and after its
    directives, which are the column specs in order ('%%' stays escaped)."""
    pieces, start, at = [], 0, 0
    for spec in specs:
        at = row.index("%", at)
        while row.startswith("%%", at):
            at = row.index("%", at + 2)
        if not row.startswith(spec, at):
            raise ValueError(f"row template {row!r} does not hold {spec!r} in column order")
        pieces.append(row[start:at])
        start = at = at + len(spec)
    pieces.append(row[start:])
    return pieces


def _cell_text(value, cells) -> tuple[str, str]:
    """Format spec and text of one value, as `cells` renders it in a column."""
    column = np.asarray([value])
    spec, render = cells(column)
    return spec, spec % tuple(render(column))


class _CodedRows:
    """The rows of the coded blocks of one table: each entry's cells are
    rendered once, into the text between the columns a block fills in (its
    constants and its position), each row led by `sep`."""

    def __init__(self, names, table, sep: str, cells):
        self.table, self.names, self.sep, self.cells = table, names, sep, cells
        self.rendered = {}  # table column name -> (spec, text of each entry)
        for k in names:
            if k in table:
                column = np.asarray(table[k])
                spec, render = cells(column)
                self.rendered[k] = spec, np.array([spec % v for v in render(column)], dtype=object)
        lengths = {len(column) for column in table.values()}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self.entries = lengths.pop() if lengths else 1
        self.pieces = self.segments = None
        self.suffixes = {}  # tail -> the position suffix tables, with the tail

    def _segments(self, row_format, specs) -> list:
        """Each entry's row text before, between and after the columns not
        in the table, one object array per gap, for a block's column specs."""
        pieces = _split_row(row_format(specs), specs)
        if pieces != self.pieces:
            self.pieces = pieces
            text = [p.replace("%%", "%") for p in pieces]  # no `%` fills these rows
            segment = np.full(self.entries, self.sep + text[0], dtype=object)
            self.segments = []
            for k, after in zip(self.names, text[1:]):
                if k in self.rendered:
                    segment = segment + self.rendered[k][1] + after
                else:
                    self.segments.append(segment)
                    segment = np.full(self.entries, after, dtype=object)
            self.segments.append(segment)
        return self.segments

    def chunks(self, block: Coded, row_format):
        """The text of each chunk of the block's rows."""
        code, table, constants, first = block
        holes = [k for k in self.names if k not in table]
        position = [k for k in holes if k not in constants]
        if len(position) != 1:
            raise ValueError(
                f"a coded block has one position column, in neither its table nor its "
                f"constants; got {position}"
            )
        first = require_integer("first", first)
        if first < 0:
            raise ValueError(f"a block's first position must be >= 0, got {first}")
        filled = {k: _cell_text(constants[k], self.cells) for k in holes if k in constants}
        filled[position[0]] = "%d", None  # positions are written as decimal integers
        specs = [self.rendered[k][0] if k in table else filled[k][0] for k in self.names]
        segments = self._segments(row_format, specs)
        if not len(code):
            return
        at = holes.index(position[0])
        heads, tails = segments[0], segments[at + 1]
        for k, segment in zip(holes[:at], segments[1:]):
            heads = heads + filled[k][1] + segment
        for k, segment in zip(holes[at + 1:], segments[at + 2:]):
            tails = tails + filled[k][1] + segment
        # A tail every entry shares (the row's end, when the position is the
        # last column) is folded into the suffixes: a row is two parts, not three.
        shared = bool((tails == tails[0]).all())
        tail = tails[0] if shared else ""
        if tail not in self.suffixes:  # a position's last three digits, then the tail
            self.suffixes[tail] = (
                [f"{j}{tail}" for j in range(_ROWS_PER_BLOCK)],  # below 1000, unpadded
                [f"{j:03d}{tail}" for j in range(_ROWS_PER_BLOCK)],
            )
        width = 2 if shared else 3
        start, n = 0, len(code)
        while start < n:
            lead, low = divmod(first + start, _ROWS_PER_BLOCK)
            stop = min(start + _ROWS_PER_BLOCK - low, n)
            rows = code[start:stop]
            parts = [None] * (width * len(rows))
            parts[0::width] = (heads + str(lead) if lead else heads)[rows].tolist()
            parts[1::width] = self.suffixes[tail][lead > 0][low:low + len(rows)]
            if not shared:
                parts[2::3] = tails[rows].tolist()
            yield "".join(parts)
            start = stop


def _plain_chunks(columns, row_format, sep: str, cells):
    """The text of each chunk of a block of free columns, each row led by
    `sep`: its row template repeated and filled in with one `%`."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    specs, renders = zip(*(cells(c) for c in columns))
    row = sep + row_format(specs)
    for start in range(0, n, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, n)
        values = [render(column[start:stop]) for render, column in zip(renders, columns)]
        text = row * (stop - start)
        yield text % tuple(values[0] if len(values) == 1 else chain.from_iterable(zip(*values)))


def _write_rows(fh, names, row_format, blocks, sep: str = "", cells=_cells) -> None:
    """Write the rows of each block in turn, `sep` between rows; `names`
    names the columns in order.

    A block is a `Coded` block, or a list of equal-length columns in order
    that is formatted cell by cell. `row_format` maps the per-column format
    specs to the row template. A coded block's table is rendered once per
    table object, into the text of each entry before and after its position;
    its constants are joined in once per block. Each chunk of rows is one
    join of its rows' entry heads (with the chunk's leading position digits),
    their position suffixes and their entry tails. How the rows are split
    into blocks, and which columns are in the table, changes no byte of the
    text.
    """
    coded = None  # the rows of the last coded block's table
    skip = len(sep)  # the file's first row is led by no sep
    for block in blocks:
        if isinstance(block, Coded):
            if coded is None or coded.table is not block.table:
                coded = _CodedRows(names, block.table, sep, cells)
            chunks = coded.chunks(block, row_format)
        else:
            chunks = _plain_chunks(block, row_format, sep, cells)
        for text in chunks:
            fh.write(text[skip:] if skip else text)
            skip = 0


def write_csv(path: Path, header: list[str], blocks) -> None:
    """A header row, then the rows of each block (see `_write_rows`), with
    the columns in header order."""

    def row_format(specs):
        if len(specs) != len(header):
            raise ValueError(f"{len(header)} header names for {len(specs)} columns")
        return ",".join(specs) + "\n"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, header, row_format, blocks)


def write_json_records(path: Path, keys: list[str], blocks) -> None:
    """A non-empty JSON array of one object per row of the blocks' columns,
    laid out as `write_json` lays it out."""

    def row_format(specs):
        return "  {\n" + ",\n".join(f'    "{k}": {s}' for k, s in zip(keys, specs)) + "\n  }"

    with open(path, "w") as fh:
        fh.write("[\n")
        _write_rows(fh, keys, row_format, blocks, sep=",\n", cells=_json_cells)
        fh.write("\n]\n")


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value document; blank lines and '#' comments ignored. A key
    set twice is an error, so no line is silently overridden."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(
                f"{path}: config key {key!r} is set on line {line_of[key]} "
                f"and again on line {lineno}"
            )
        out[key], line_of[key] = value, lineno
    return out


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, value: str, template):
    if isinstance(template, bool):
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
        return _BOOL_WORDS[word]
    for kind, name in ((int, "an integer"), (float, "a float")):
        if isinstance(template, kind):
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"config key {key!r}: expected {name}, got {value!r}") from None
    return value


# Each command's help line and its settings, one entry per config key:
# (default, flag). The default's type is the type a config value or a flag's
# argument is parsed to; a bool flag takes no argument and sets True. A flag
# is the `add_argument` keywords of --key (underscores as dashes), with
# "name" where the flag is named otherwise. A key whose flag is None is set
# from a config file alone.
_OUTPUT = {"output": ("meterwork-output", {"help": "output directory"})}
_SEEDED = {"seed": (0, {"help": "root seed (64-bit unsigned)"}), **_OUTPUT}
# numeric-policy overrides, as policy_<field>
_POLICY = {
    f"policy_{f.name}": (getattr(DEFAULT_POLICY, f.name), None)
    for f in dataclass_fields(NumericPolicy)
}

_SETTINGS = {
    "relaxation": ("weight and entropy trajectories", {
        **_OUTPUT,
        "dt": (1.0, {"help": "characteristic relaxation time"}),
        "horizon": (2.0, {"help": "simulated time span"}),
        "steps": (1000, {"help": "grid steps"}),
        "description": ("all", {"choices": ("direct", "statistical", "poisson", "all")}),
    }),
    "jarzynski": ("TPM work statistics for a drive scenario", {
        **_SEEDED,
        "format": ("csv", {"choices": ("csv", "json"), "help": "sample export format"}),
        "scenario": ("commuting-quench", {
            "choices": ("constant", "commuting-quench", "driven-qubit", "custom"),
        }),
        "samples": (20000, {}),
        "steps": (0, {"help": "drive steps (0 = scenario default)"}),
        "beta": (1.0, {}),
        # NaN means "use the closed form"
        "delta_f_override": (math.nan, {
            "name": "--delta-f", "help": "override the closed-form free-energy difference",
        }),
        "schedule_file": ("", {"help": "custom scenario JSON"}),
        **_POLICY,
    }),
    "scheme": ("full five-step protocol runs", {
        **_SEEDED,
        "samples": (1000, {}),
        "beta": (1.0, {}),
        "eigenstate_prep": (False, {}),
        "verify_appendix_b": (False, {}),
        "j_initial": (1.0, {}),
        "j_final": (0.25, {}),
        "t_f": (2.0, {}),
        "drive_steps": (40, {}),
        **_POLICY,
    }),
}


def _policy_from(settings: dict) -> NumericPolicy:
    overrides = {
        f.name: settings[f"policy_{f.name}"]
        for f in dataclass_fields(NumericPolicy)
        if f"policy_{f.name}" in settings
    }
    return NumericPolicy(**overrides)


def _merge_settings(command: str, args: argparse.Namespace) -> dict:
    settings = {key: default for key, (default, _) in _SETTINGS[command][1].items()}
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key not in settings:
                raise ValueError(
                    f"unknown config key {key!r} for {command}; "
                    f"known keys: {sorted(settings)}"
                )
            settings[key] = _coerce(key, value, settings[key])
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _out_dir(settings: dict) -> Path:
    out = Path(settings["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# the summary each command writes, on success and on a domain error
_SUMMARY_FILES = {
    "relaxation": "relaxation_summary.json",
    "jarzynski": "jarzynski_report.json",
    "scheme": "scheme_summary.json",
}

_DESCRIPTION_MAP = {
    "direct": simulate_direct,
    "statistical": simulate_statistical,
    "poisson": simulate_poisson_cutoff,
}


def cmd_relaxation(settings: dict) -> int:
    out = _out_dir(settings)
    dt, horizon, steps = settings["dt"], settings["horizon"], settings["steps"]
    wanted = (
        list(_DESCRIPTION_MAP) if settings["description"] == "all" else [settings["description"]]
    )
    trajectories = {name: _DESCRIPTION_MAP[name](dt, horizon, steps) for name in wanted}
    summary: dict = {"dt": dt, "horizon": horizon, "steps": steps}
    print(f"{'description':<14} {'rho(dt)':<22} sigma(dt)")
    for name, traj in trajectories.items():
        sigma = entropy_of_weight(traj)
        write_csv(
            out / f"relaxation_{name}.csv",
            ["t", "rho", "sigma"],
            [[traj.times, traj.weights, sigma]],
        )
        i = traj.index_of(dt)
        rho_dt, sigma_dt = float(traj.weights[i]), float(sigma[i])
        summary[name] = {"rho_at_dt": rho_dt, "sigma_at_dt": sigma_dt}
        print(f"{name:<14} {f17(rho_dt):<22} {f17(sigma_dt)}")
    write_json(out / _SUMMARY_FILES["relaxation"], summary)
    return 0


def _pauli_z() -> Operator:
    return Operator.from_diagonal(np.array([1.0, -1.0]))


def _pauli_x() -> Operator:
    return Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), hermitian=True)


def _interpolation(h_initial: Operator, h_final: Operator):
    """Map of a control grid to its stack (1 - lambda) h_initial + lambda h_final."""

    def hamiltonians_at(lams: np.ndarray) -> np.ndarray:
        lams = lams[:, None, None]
        return (1.0 - lams) * h_initial.matrix + lams * h_final.matrix

    return hamiltonians_at


def _scenario_schedule(settings: dict) -> DriveSchedule:
    name = settings["scenario"]
    steps = settings["steps"]
    if settings["schedule_file"] and name != "custom":
        raise ValueError(
            f"scenario {name!r} reads no schedule file, got "
            f"schedule_file={settings['schedule_file']!r}; only scenario 'custom' reads one"
        )
    if name == "constant":
        return DriveSchedule.constant(
            Operator.from_diagonal(np.array([0.0, 1.0])), t_f=1.0, n_steps=steps or 1
        )
    if name == "commuting-quench":
        if steps:
            raise ValueError(f"scenario {name!r} takes no drive steps, got steps={steps}")
        return DriveSchedule.quench(
            Operator.from_diagonal(np.array([0.0, 1.0])),
            Operator.from_diagonal(np.array([0.0, 2.0])),
        )
    if name == "driven-qubit":
        h_at = _interpolation(_pauli_z(), _pauli_x())
        return DriveSchedule.linear(h_at, t_f=1.0, n_steps=steps or 400)
    if name == "custom":
        if not settings["schedule_file"]:
            raise ValueError("scenario 'custom' needs schedule_file=PATH")
        drive = json.loads(Path(settings["schedule_file"]).read_text())
        h_i = Operator(np.array(drive["h_initial"], dtype=complex), hermitian=True)
        h_f = Operator(np.array(drive["h_final"], dtype=complex), hermitian=True)
        return DriveSchedule.linear(
            _interpolation(h_i, h_f),
            t_f=float(drive["t_f"]),
            n_steps=steps or int(drive["n_steps"]),
        )
    raise ValueError(f"unknown scenario {name!r}")


def cmd_jarzynski(settings: dict) -> int:
    out = _out_dir(settings)
    beta = settings["beta"]
    policy = _policy_from(settings)
    schedule = _scenario_schedule(settings)
    df_closed = delta_F(schedule.initial_hamiltonian(), schedule.final_hamiltonian(), beta)
    df_used = settings["delta_f_override"]
    overridden = not math.isnan(df_used)
    if not overridden:
        df_used = df_closed
    exact = jarzynski_exact(schedule, beta, policy=policy)
    n = settings["samples"]
    blocks = tpm_blocks(schedule, beta, n, settings["seed"], policy=policy)
    _equality_target(beta, df_used)  # the check's domain errors, before any row is written

    # Each block is drawn, written and dropped; only the work column is kept
    # whole, for the equality check. A row is its (i, f) pair's table entry,
    # its block's stream_id and its position, draw_id.
    work = np.empty(n)
    keys = ["initial_energy", "final_energy", "work", "stream_id", "draw_id"]

    def rows():
        for stream, drawn, code, table in blocks:
            work[drawn] = table["work"][code]
            yield Coded(code, table, {"stream_id": stream}, drawn.start)

    if settings["format"] == "json":
        write_json_records(out / "work_samples.json", keys, rows())
    else:
        write_csv(out / "work_samples.csv", keys, rows())
    report = jarzynski_equality_check(work, beta, df_used)
    payload = {
        "scenario": settings["scenario"],
        "seed": settings["seed"],
        "delta_f_closed_form": df_closed,
        "delta_f_used": df_used,
        "delta_f_overridden": overridden,
        "exact_evaluation": exact,
        **report.to_dict(),
    }
    write_json(out / _SUMMARY_FILES["jarzynski"], payload)
    status = "pass" if report.passed else "FAIL"
    print(
        f"scenario={settings['scenario']} mean={f17(report.estimator_mean)} "
        f"target={f17(report.exact_value)} se={f17(report.standard_error)} [{status}]"
    )
    return 0 if report.passed else 1


# scheme_summary.csv columns, in file order
_SUMMARY_COLUMNS = [
    "stream",
    "draw",
    "initial_energy",
    "final_energy",
    "work_drive",
    "work_total",
    "event_outcome",
    "sigma_experimenter",
    "sigma_reader",
    "sigma_measured",
]


def _jsonl_row(specs) -> str:
    """scheme_records.jsonl row template; floats are quoted 17-digit strings."""
    cells = (s if s == "%d" else f'"{s}"' for s in specs)
    return "{" + ", ".join(f'"{k}": {c}' for k, c in zip(RECORD_COLUMNS, cells)) + "}\n"


# <W_total> - <W_drive> is 3 kT up to the rounding of two means; the bound
# is relative so that it holds at any temperature. A nonzero target inside
# its own bound cannot be told from 0, so its check fails.
_WORK_GAP_RTOL = 1e-12


def cmd_scheme(settings: dict) -> int:
    out = _out_dir(settings)
    drive = ("j_initial", "j_final", "t_f", "drive_steps")  # the szilard_schedule settings
    if settings["eigenstate_prep"]:
        defaults = _SETTINGS["scheme"][1]
        changed = [k for k in drive if settings[k] != defaults[k][0]]
        if changed:
            raise ValueError(
                "eigenstate_prep runs the site-diagonal drive and takes no barrier drive "
                "setting, got " + ", ".join(f"{k}={settings[k]!r}" for k in changed)
            )
        schedule = None  # the config default is the commuting site-diagonal drive
    else:
        schedule = szilard_schedule(*(settings[k] for k in drive))
    config = SchemeConfig(
        beta=settings["beta"],
        n_samples=settings["samples"],
        seed=settings["seed"],
        barrier_schedule=schedule,
        eigenstate_prep=settings["eigenstate_prep"],
    )
    policy = _policy_from(settings)
    ctx, tables, code = _draw_runs(config, policy=policy)  # a pruned draw raises here
    kT = 1.0 / settings["beta"]
    n = config.n_samples
    kept = {k: tables.table[k][code] for k in _CHECKED_COLUMNS}  # what the checks read

    # Each stream block of runs is written from the branch table, that
    # block's stream and each run's position, draw.
    def blocks():
        for stream, rows in enumerate(_block_rows(n)):
            yield Coded(code[rows], tables.table, {"stream": stream}, rows.start)

    with open(out / "scheme_records.jsonl", "w") as fh:
        _write_rows(fh, RECORD_COLUMNS, _jsonl_row, blocks())
    write_csv(out / "scheme_summary.csv", _SUMMARY_COLUMNS, blocks())
    del code  # the checks read the kept columns alone
    original, modified, ledger_totals, work_gap = _summarize(kept, config.beta, ctx.delta_f)
    sigma_total = modified.sigma_total
    write_json(out / "scheme_report_original.json", original.to_dict())
    write_json(out / "scheme_report_modified.json", modified.to_dict())

    per_run = {party: total / n for party, total in ledger_totals.items()}
    conservation = sum(ledger_totals.values())
    gap_target = sigma_total * kT
    gap_bound = _WORK_GAP_RTOL * max(1.0, abs(gap_target))
    gap_resolved = gap_target == 0.0 or abs(gap_target) > gap_bound
    gap_ok = gap_resolved and abs(work_gap - gap_target) <= gap_bound
    ledger_ok = abs(conservation) == 0.0
    checks = {
        "original_passed": original.passed,
        "modified_passed": modified.passed,
        "work_gap_identity": gap_ok,
        "ledger_conserved": ledger_ok,
    }
    if settings["eigenstate_prep"]:
        # sigma_total is the mean per-run sigma, 0 only if every run books 0 nats
        checks["eigenstate_all_zero"] = sigma_total == 0.0

    roundtrips = None
    if settings["verify_appendix_b"]:
        roundtrips = verify_unitary_roundtrips(config, settings["seed"], policy=policy)
        checks["roundtrips_passed"] = roundtrips.all_passed
        write_json(
            out / "roundtrip_report.json",
            {
                "event_outcome": roundtrips.event_outcome,
                "stages": [
                    {"stage": s.name, "passed": s.passed, "deviation": s.deviation}
                    for s in roundtrips.stages
                ],
            },
        )

    write_json(
        out / _SUMMARY_FILES["scheme"],
        {
            "samples": n,
            "seed": settings["seed"],
            "beta": settings["beta"],
            "delta_f": ctx.delta_f,
            "sigma_total": sigma_total,
            "work_gap": work_gap,
            "work_gap_target": gap_target,
            "ledger_totals": ledger_totals,
            "ledger_per_run": per_run,
            "checks": checks,
            "passed": all(checks.values()),
        },
    )

    print(f"runs={n} delta_f={f17(ctx.delta_f)} sigma_total={f17(sigma_total)}")
    print(
        "ledger per run: "
        + ", ".join(f"{party}={f17(val)}" for party, val in sorted(per_run.items()))
    )
    print(
        f"<W_total> - <W_drive> = {f17(work_gap)} "
        f"(target {f17(gap_target)}) [{'pass' if gap_ok else 'FAIL'}]"
    )
    for name, report in (("original", original), ("modified", modified)):
        print(
            f"{name}: mean={f17(report.estimator_mean)} target={f17(report.exact_value)} "
            f"se={f17(report.standard_error)} [{'pass' if report.passed else 'FAIL'}]"
        )
    if roundtrips is not None:
        for s in roundtrips.stages:
            print(
                f"roundtrip stage ({s.name}): deviation={f17(s.deviation)} "
                f"[{'pass' if s.passed else 'FAIL'}]"
            )
    return 0 if all(checks.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterwork",
        description="Measurement-thermodynamics simulator (hbar = k_B = 1). "
        "Outputs are a function of the settings and the seed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, settings) in _SETTINGS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="flat key = value settings file")
        for key, (default, flag) in settings.items():
            if flag is None:
                continue
            flag = dict(flag)
            name = flag.pop("name", "--" + key.replace("_", "-"))
            if isinstance(default, bool):
                flag.update(action="store_const", const=True)
            else:
                flag["type"] = type(default)
            p.add_argument(name, dest=key, **flag)
    return parser


_COMMANDS = {
    "relaxation": cmd_relaxation,
    "jarzynski": cmd_jarzynski,
    "scheme": cmd_scheme,
}


# every error class of the package derives from one of these
_DOMAIN_ERRORS = (ArithmeticError, ValueError, SchemeConstraintError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _merge_settings(args.command, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](settings)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        failure = {
            "command": args.command,
            "passed": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        try:
            write_json(_out_dir(settings) / _SUMMARY_FILES[args.command], failure)
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
