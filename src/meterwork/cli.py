"""Command-line front end.

Three subcommands: ``relaxation`` (weight/entropy trajectories),
``jarzynski`` (exact and sampled work statistics for a named drive
scenario), and ``scheme`` (full five-step protocol runs with both equality
checks and the entropy ledger).

Settings merge in order: built-in defaults, then a flat ``key = value``
config file (``--config``), then explicit flags. All floating-point output
is printed with 17 significant digits so files round-trip exactly. Samples
are drawn from seeded streams in blocks of 4096, so the output files are a
function of the settings and the seed: a repeated run gives the same bytes.

Exit status is 0 iff every enabled check passed. A machine-readable summary
is written even when checks fail; on a domain error (exit status 2) it holds
``"passed": false`` and the error's type and message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields as dataclass_fields
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    CoherentInputError,
    CommensurabilityError,
    DegenerateDistributionError,
    NumericalConsistencyError,
    SchemeConstraintError,
    SupportError,
)
from .jarzynski import (
    DriveSchedule,
    delta_F,
    jarzynski_equality_check,
    jarzynski_exact,
    tpm_sample,
)
from .linalg import Operator
from .numeric import DEFAULT_POLICY, NumericPolicy
from .relaxation import (
    entropy_of_weight,
    simulate_direct,
    simulate_poisson_cutoff,
    simulate_statistical,
)
from .scheme import (
    RECORD_COLUMNS,
    SchemeConfig,
    run_scheme,
    szilard_schedule,
    verify_unitary_roundtrips,
)

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


# Rows are formatted and written this many at a time, so memory stays flat
# as the row count grows.
_ROWS_PER_BLOCK = 1024


def _cells(column: np.ndarray) -> tuple[str, list]:
    """Format spec and Python values for one block of one column:
    %d for integers, %.17g for floats.

    A float block with at most half of its values distinct (bit patterns,
    so -0.0 and 0.0 and NaN payloads stay apart) renders each distinct
    value once and returns the texts; on a block of mostly distinct values
    that dedupe costs more than it saves.
    """
    kind = column.dtype.kind
    if kind in "iu":
        return "%d", column.tolist()
    if kind == "f":
        bits = column.view(f"i{column.itemsize}")
        ordered = np.sort(bits)
        first = np.ones(bits.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        distinct = ordered[first]
        if 2 * distinct.size <= bits.size:
            text = np.array([f17(x) for x in distinct.view(column.dtype).tolist()], dtype=object)
            return "%s", text[np.searchsorted(distinct, bits)].tolist()
        return "%.17g", column.tolist()
    raise TypeError(f"cannot write a column of dtype {column.dtype}")


def _json_cells(column: np.ndarray) -> tuple[str, list]:
    """As `_cells`, except that a block holding a non-finite float renders
    each cell as `write_json` does, so inf and nan become quoted strings."""
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        return "%s", [_json_render(x) for x in column.tolist()]
    return _cells(column)


def _write_rows(fh, row_format, columns, sep: str = "", cells=_cells) -> None:
    """Write one row per column entry, `sep` between rows.

    `row_format` maps the per-column format specs to the row template.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    for start in range(0, n, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, n)
        specs, values = zip(*(cells(c[start:stop]) for c in columns))
        if start:
            fh.write(sep)
        row = row_format(specs)
        fh.write(sep.join([row] * (stop - start)) % tuple(chain.from_iterable(zip(*values))))


def write_csv(path: Path, header: list[str], columns) -> None:
    """A header row, then one row per entry of the equal-length columns."""
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, lambda specs: ",".join(specs) + "\n", columns)


def write_json_records(path: Path, keys: list[str], columns) -> None:
    """A non-empty JSON array of one object per row, laid out as `write_json`
    lays it out."""

    def row_format(specs):
        return "  {\n" + ",\n".join(f'    "{k}": {s}' for k, s in zip(keys, specs)) + "\n  }"

    with open(path, "w") as fh:
        fh.write("[\n")
        _write_rows(fh, row_format, columns, sep=",\n", cells=_json_cells)
        fh.write("\n]\n")


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value document; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, value: str, template):
    if isinstance(template, bool):
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
        return _BOOL_WORDS[word]
    if isinstance(template, int):
        return int(value)
    if isinstance(template, float):
        return float(value)
    return value


_COMMON_DEFAULTS = {"output": "meterwork-output"}

# numeric-policy overrides, settable from config files as policy_<field>
_POLICY_DEFAULTS = {
    f"policy_{f.name}": getattr(DEFAULT_POLICY, f.name)
    for f in dataclass_fields(NumericPolicy)
}

_DEFAULTS = {
    "relaxation": {
        **_COMMON_DEFAULTS,
        "dt": 1.0,
        "horizon": 2.0,
        "steps": 1000,
        "description": "all",
    },
    "jarzynski": {
        **_COMMON_DEFAULTS,
        "seed": 0,
        "format": "csv",
        **_POLICY_DEFAULTS,
        "scenario": "commuting-quench",
        "samples": 20000,
        "steps": 0,  # 0 means the scenario default
        "beta": 1.0,
        "delta_f_override": math.nan,  # NaN means "use the closed form"
        "schedule_file": "",
    },
    "scheme": {
        **_COMMON_DEFAULTS,
        "seed": 0,
        **_POLICY_DEFAULTS,
        "samples": 1000,
        "beta": 1.0,
        "eigenstate_prep": False,
        "verify_appendix_b": False,
        "j_initial": 1.0,
        "j_final": 0.25,
        "t_f": 2.0,
        "drive_steps": 40,
    },
}


def _policy_from(settings: dict) -> NumericPolicy:
    overrides = {
        f.name: settings[f"policy_{f.name}"]
        for f in dataclass_fields(NumericPolicy)
        if f"policy_{f.name}" in settings
    }
    return NumericPolicy(**overrides)


def _merge_settings(command: str, args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS[command])
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
    summary: dict = {"dt": dt, "horizon": horizon, "steps": steps}
    print(f"{'description':<14} {'rho(dt)':<22} sigma(dt)")
    for name in wanted:
        traj = _DESCRIPTION_MAP[name](dt, horizon, steps)
        sigma = entropy_of_weight(traj)
        write_csv(
            out / f"relaxation_{name}.csv",
            ["t", "rho", "sigma"],
            [traj.times, traj.weights, sigma],
        )
        rho_dt = traj.weight_at(dt)
        sigma_dt = float(sigma[np.flatnonzero(np.isclose(traj.times, dt))[0]])
        summary[name] = {"rho_at_dt": rho_dt, "sigma_at_dt": sigma_dt}
        print(f"{name:<14} {f17(rho_dt):<22} {f17(sigma_dt)}")
    write_json(out / _SUMMARY_FILES["relaxation"], summary)
    return 0


def _pauli_z() -> Operator:
    return Operator.from_diagonal(np.array([1.0, -1.0]))


def _pauli_x() -> Operator:
    return Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), hermitian=True)


def _scenario_schedule(settings: dict) -> DriveSchedule:
    name = settings["scenario"]
    steps = settings["steps"]
    if name == "constant":
        return DriveSchedule.constant(
            Operator.from_diagonal(np.array([0.0, 1.0])), t_f=1.0, n_steps=steps or 1
        )
    if name == "commuting-quench":
        return DriveSchedule.quench(
            Operator.from_diagonal(np.array([0.0, 1.0])),
            Operator.from_diagonal(np.array([0.0, 2.0])),
        )
    if name == "driven-qubit":
        sz, sx = _pauli_z(), _pauli_x()

        def h_at(lam: float) -> Operator:
            return Operator(
                (1.0 - lam) * sz.matrix + lam * sx.matrix, hermitian=True
            )

        return DriveSchedule.linear(h_at, t_f=1.0, n_steps=steps or 400)
    if name == "custom":
        if not settings["schedule_file"]:
            raise ValueError("scenario 'custom' needs schedule_file=PATH")
        drive = json.loads(Path(settings["schedule_file"]).read_text())
        h_i = Operator(np.array(drive["h_initial"], dtype=complex), hermitian=True)
        h_f = Operator(np.array(drive["h_final"], dtype=complex), hermitian=True)

        def h_interp(lam: float) -> Operator:
            return Operator(
                (1.0 - lam) * h_i.matrix + lam * h_f.matrix, hermitian=True
            )

        return DriveSchedule.linear(
            h_interp, t_f=float(drive["t_f"]), n_steps=steps or int(drive["n_steps"])
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
    samples = tpm_sample(schedule, beta, settings["samples"], settings["seed"], policy=policy)
    report = jarzynski_equality_check(samples, beta, df_used)

    keys = ["initial_energy", "final_energy", "work", "stream_id", "draw_id"]
    columns = [getattr(samples, k) for k in keys]
    if settings["format"] == "json":
        write_json_records(out / "work_samples.json", keys, columns)
    else:
        write_csv(out / "work_samples.csv", keys, columns)
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
    if settings["eigenstate_prep"]:
        schedule = None  # the config default is the commuting site-diagonal drive
    else:
        schedule = szilard_schedule(
            settings["j_initial"], settings["j_final"], settings["t_f"], settings["drive_steps"]
        )
    config = SchemeConfig(
        beta=settings["beta"],
        n_samples=settings["samples"],
        seed=settings["seed"],
        barrier_schedule=schedule,
        eigenstate_prep=settings["eigenstate_prep"],
    )
    policy = _policy_from(settings)
    result = run_scheme(config, policy=policy)
    kT = 1.0 / settings["beta"]

    columns = result.columns
    with open(out / "scheme_records.jsonl", "w") as fh:
        _write_rows(fh, _jsonl_row, [columns[k] for k in RECORD_COLUMNS])
    write_csv(out / "scheme_summary.csv", _SUMMARY_COLUMNS, [columns[k] for k in _SUMMARY_COLUMNS])
    write_json(out / "scheme_report_original.json", result.original_report.to_dict())
    write_json(out / "scheme_report_modified.json", result.modified_report.to_dict())

    n = config.n_samples
    per_run = {party: total / n for party, total in result.ledger_totals.items()}
    conservation = sum(result.ledger_totals.values())
    gap_target = result.sigma_total * kT
    gap_bound = _WORK_GAP_RTOL * max(1.0, abs(gap_target))
    gap_resolved = gap_target == 0.0 or abs(gap_target) > gap_bound
    gap_ok = gap_resolved and abs(result.work_gap - gap_target) <= gap_bound
    ledger_ok = abs(conservation) == 0.0
    checks = {
        "original_passed": result.original_report.passed,
        "modified_passed": result.modified_report.passed,
        "work_gap_identity": gap_ok,
        "ledger_conserved": ledger_ok,
    }
    if settings["eigenstate_prep"]:
        # every run produces sigma_total, the sum of its (+sigma) entries
        checks["eigenstate_all_zero"] = result.sigma_total == 0.0

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
            "delta_f": result.delta_f,
            "sigma_total": result.sigma_total,
            "work_gap": result.work_gap,
            "work_gap_target": gap_target,
            "ledger_totals": result.ledger_totals,
            "ledger_per_run": per_run,
            "checks": checks,
            "passed": all(checks.values()),
        },
    )

    print(f"runs={n} delta_f={f17(result.delta_f)} sigma_total={f17(result.sigma_total)}")
    print(
        "ledger per run: "
        + ", ".join(f"{party}={f17(val)}" for party, val in sorted(per_run.items()))
    )
    print(
        f"<W_total> - <W_drive> = {f17(result.work_gap)} "
        f"(target {f17(gap_target)}) [{'pass' if gap_ok else 'FAIL'}]"
    )
    for name, report in (
        ("original", result.original_report),
        ("modified", result.modified_report),
    ):
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

    def common(p: argparse.ArgumentParser, *, seeded: bool = True) -> None:
        p.add_argument("--config", help="flat key = value settings file")
        if seeded:
            p.add_argument("--seed", type=int, help="root seed (64-bit unsigned)")
        p.add_argument("--output", help="output directory")

    p_rel = sub.add_parser("relaxation", help="weight and entropy trajectories")
    common(p_rel, seeded=False)
    p_rel.add_argument("--dt", type=float, help="characteristic relaxation time")
    p_rel.add_argument("--horizon", type=float, help="simulated time span")
    p_rel.add_argument("--steps", type=int, help="grid steps")
    p_rel.add_argument(
        "--description", choices=("direct", "statistical", "poisson", "all")
    )

    p_jar = sub.add_parser("jarzynski", help="TPM work statistics for a drive scenario")
    common(p_jar)
    p_jar.add_argument("--format", choices=("csv", "json"), help="sample export format")
    p_jar.add_argument(
        "--scenario", choices=("constant", "commuting-quench", "driven-qubit", "custom")
    )
    p_jar.add_argument("--samples", type=int)
    p_jar.add_argument("--steps", type=int, help="drive steps (0 = scenario default)")
    p_jar.add_argument("--beta", type=float)
    p_jar.add_argument(
        "--delta-f", dest="delta_f_override", type=float,
        help="override the closed-form free-energy difference",
    )
    p_jar.add_argument("--schedule-file", dest="schedule_file", help="custom scenario JSON")

    p_sch = sub.add_parser("scheme", help="full five-step protocol runs")
    common(p_sch)
    p_sch.add_argument("--samples", type=int)
    p_sch.add_argument("--beta", type=float)
    p_sch.add_argument(
        "--eigenstate-prep", dest="eigenstate_prep", action="store_const", const=True
    )
    p_sch.add_argument(
        "--verify-appendix-b", dest="verify_appendix_b", action="store_const", const=True
    )
    p_sch.add_argument("--j-initial", dest="j_initial", type=float)
    p_sch.add_argument("--j-final", dest="j_final", type=float)
    p_sch.add_argument("--t-f", dest="t_f", type=float)
    p_sch.add_argument("--drive-steps", dest="drive_steps", type=int)
    return parser


_COMMANDS = {
    "relaxation": cmd_relaxation,
    "jarzynski": cmd_jarzynski,
    "scheme": cmd_scheme,
}


_DOMAIN_ERRORS = (
    ArithmeticError,
    CapacityError,
    CoherentInputError,
    CommensurabilityError,
    DegenerateDistributionError,
    NumericalConsistencyError,
    SchemeConstraintError,
    SupportError,
    ValueError,
)


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
