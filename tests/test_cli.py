import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import meterwork
from helpers import reference_scheme_sums, write_reference_records
from meterwork import cli, errors, scheme
from meterwork.cli import (
    load_config_file,
    main,
    write_csv,
    write_json,
    write_json_records,
)
from meterwork.jarzynski import DriveSchedule, tpm_blocks, tpm_sample
from meterwork.linalg import Operator
from meterwork.measurement import EntropyLedger
from meterwork.scheme import SchemeRunRecord, run_scheme
from meterwork.streams import stream_generator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class TestConfigFile:
    def test_parse_key_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 9\n\nsamples= 100  # trailing\n")
        assert load_config_file(cfg) == {"seed": "9", "samples": "100"}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config_file(cfg)

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        code = main(["relaxation", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [("samples = 1.5", "config key 'samples': expected an integer, got '1.5'"),
         ("beta = fast", "config key 'beta': expected a float, got 'fast'")],
    )
    def test_value_that_does_not_parse_names_its_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["scheme", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_duplicate_key_names_the_key_and_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("samples = 10\nbeta = 1.0\n# samples = 5\nsamples = 2000\n")
        out = tmp_path / "o"
        assert main(["jarzynski", "--config", str(cfg), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'samples' is set on line 1 and again on line 4\n"
        )
        assert not out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 10\ndt = 1.0\n")
        out = tmp_path / "o"
        code = main(
            ["relaxation", "--config", str(cfg), "--steps", "20", "--output", str(out)]
        )
        assert code == 0
        rows = (out / "relaxation_direct.csv").read_text().splitlines()
        assert len(rows) - 1 in (21, 22)  # 20 steps, dt inserted if off-grid


class TestCommandKnobs:
    """`--format` belongs to jarzynski alone and `--seed` to the sampling
    commands; elsewhere they would be accepted and ignored."""

    @pytest.mark.parametrize(
        "argv",
        [["scheme", "--format", "json"], ["relaxation", "--format", "csv"],
         ["relaxation", "--seed", "3"]],
    )
    def test_flag_without_effect_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, line", [("relaxation", "seed = 3"), ("relaxation", "format = csv"),
                          ("scheme", "format = json"),
                          # policy fields that no run of the command reads
                          ("jarzynski", "policy_outcome_floor = 0.3"),
                          ("jarzynski", "policy_max_dim = 8"),
                          ("jarzynski", "policy_marginal_tol = 1e-9"),
                          ("scheme", "policy_coherence_tol = 1e-9"),
                          ("scheme", "policy_imag_tol = 1e-9"),
                          ("scheme", "policy_support_tol = 1e-9")],
    )
    def test_config_key_without_effect_is_unknown(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "unknown config key" in capsys.readouterr().err


# each policy key a command accepts: the NumericPolicy fields its runs read
POLICY_KEYS = {
    "jarzynski": ["policy_hermitian_tol", "policy_projector_tol", "policy_completeness_tol"],
    "scheme": [
        "policy_hermitian_tol", "policy_unitary_tol", "policy_projector_tol", "policy_psd_tol",
        "policy_trace_tol", "policy_norm_tol", "policy_preservation_tol",
        "policy_completeness_tol", "policy_marginal_tol", "policy_outcome_floor",
        "policy_max_dim",
    ],
}

# each command's flags, in parser order, and the config key each one sets
FLAGS = {
    "relaxation": {
        "--config": "config", "--output": "output", "--dt": "dt", "--horizon": "horizon",
        "--steps": "steps", "--description": "description",
    },
    "jarzynski": {
        "--config": "config", "--seed": "seed", "--output": "output", "--format": "format",
        "--scenario": "scenario", "--samples": "samples", "--steps": "steps", "--beta": "beta",
        "--delta-f": "delta_f_override", "--schedule-file": "schedule_file",
    },
    "scheme": {
        "--config": "config", "--seed": "seed", "--output": "output", "--samples": "samples",
        "--beta": "beta", "--eigenstate-prep": "eigenstate_prep",
        "--verify-appendix-b": "verify_appendix_b", "--j-initial": "j_initial",
        "--j-final": "j_final", "--t-f": "t_f", "--drive-steps": "drive_steps",
    },
}

# each command's merged settings with no config file and no flag
DEFAULTS = {
    "relaxation": {
        "output": "meterwork-output", "dt": 1.0, "horizon": 2.0, "steps": 1000,
        "description": "all",
    },
    "jarzynski": {
        "output": "meterwork-output", "seed": 0, "format": "csv",
        "scenario": "commuting-quench", "samples": 20000, "steps": 0, "beta": 1.0,
        "delta_f_override": math.nan, "schedule_file": "",
    },
    "scheme": {
        "output": "meterwork-output", "seed": 0, "samples": 1000, "beta": 1.0,
        "eigenstate_prep": False, "verify_appendix_b": False, "j_initial": 1.0,
        "j_final": 0.25, "t_f": 2.0, "drive_steps": 40,
    },
}
POLICY_DEFAULTS = {
    "policy_hermitian_tol": 1e-12, "policy_unitary_tol": 1e-10, "policy_projector_tol": 1e-10,
    "policy_psd_tol": 1e-10, "policy_trace_tol": 1e-12, "policy_norm_tol": 1e-12,
    "policy_preservation_tol": 1e-10, "policy_completeness_tol": 1e-10,
    "policy_marginal_tol": 1e-12, "policy_outcome_floor": 1e-14, "policy_max_dim": 1024,
}
for _command, _keys in POLICY_KEYS.items():
    DEFAULTS[_command].update({k: POLICY_DEFAULTS[k] for k in _keys})


def _subparsers_of(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _subparsers() -> dict:
    return _subparsers_of(cli.build_parser())


def _merged(argv: list[str]) -> dict:
    return cli._merge_settings(argv[0], cli.build_parser().parse_args(argv))


def _flag_cases():
    """(command, flag, key, argv words, config value) of each flagged setting,
    with a value that differs from its default."""
    for command, sub in _subparsers().items():
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "config"):
                continue
            flag, key = action.option_strings[0], action.dest
            if action.const is True:
                yield command, flag, key, [flag], "true"
            elif action.choices:
                value = [c for c in action.choices if c != DEFAULTS[command][key]][0]
                yield command, flag, key, [flag, value], value
            else:
                value = {int: "7", float: "0.5"}.get(action.type, "some-dir")
                yield command, flag, key, [flag, value], value


class TestSettingsTable:
    """Each command's settings: their flags, config keys and defaults."""

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags_are_pinned(self, command):
        sub = _subparsers()[command]
        flags = {a.option_strings[0]: a.dest for a in sub._actions if a.dest != "help"}
        assert flags == FLAGS[command]
        assert all(len(a.option_strings) == 1 for a in sub._actions if a.dest != "help")

    @pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in FLAGS)])
    def test_one_command_parser_prints_the_same_help(self, argv, capsys):
        texts = []
        for parse in (cli.build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: meterwork")

    def test_a_run_builds_its_command_flags_alone(self):
        for command in FLAGS:
            built = {
                name: [a.dest for a in sub._actions if a.dest != "help"]
                for name, sub in _subparsers_of(cli.build_parser(command)).items()
            }
            assert built == {c: list(FLAGS[c].values()) if c == command else [] for c in FLAGS}

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_keys_and_defaults_are_pinned(self, command):
        merged = _merged([command])
        want = DEFAULTS[command]
        assert sorted(merged) == sorted(want)
        for key, value in merged.items():
            assert type(value) is type(want[key]), key
            assert repr(value) == repr(want[key]), key

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_unknown_key_error_lists_every_key(self, command, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown config key 'volume' for {command}; "
            f"known keys: {sorted(DEFAULTS[command])}\n"
        )

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_keys_without_a_flag_are_the_policy_keys(self, command):
        flagged = set(FLAGS[command].values()) - {"config"}
        config_only = set(_merged([command])) - flagged
        assert config_only == set(POLICY_KEYS.get(command, ()))

    @pytest.mark.parametrize(
        "command, flag, key, words, value",
        list(_flag_cases()),
        ids=[f"{c}{f}" for c, f, *_ in _flag_cases()],
    )
    def test_flag_and_config_line_merge_alike(self, tmp_path, command, flag, key, words, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_flag = _merged([command, *words])
        from_config = _merged([command, "--config", str(cfg)])
        assert from_flag == from_config
        assert repr(from_flag[key]) != repr(DEFAULTS[command][key])
        assert type(from_flag[key]) is type(DEFAULTS[command][key])


class TestRelaxationCommand:
    def test_default_summary_has_statistical_plateau(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["relaxation", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0.36787944117144233" in printed
        summary = read_json(out / "relaxation_summary.json")
        assert summary["statistical"]["rho_at_dt"] == math.exp(-1.0)
        assert summary["statistical"]["sigma_at_dt"] == 1.0

    def test_direct_description_zero(self, tmp_path):
        out = tmp_path / "o"
        assert main(["relaxation", "--description", "direct", "--output", str(out)]) == 0
        summary = read_json(out / "relaxation_summary.json")
        assert summary["direct"]["rho_at_dt"] == 0.0
        assert "statistical" not in summary

    def test_step_count_leaves_plateaus_fixed(self, tmp_path):
        vals = []
        for steps in (10, 10000):
            out = tmp_path / f"o{steps}"
            assert main(
                ["relaxation", "--steps", str(steps), "--output", str(out)]
            ) == 0
            summary = read_json(out / "relaxation_summary.json")
            vals.append(
                (summary["direct"]["rho_at_dt"], summary["statistical"]["rho_at_dt"])
            )
        assert vals[0] == vals[1]

    @pytest.mark.parametrize("steps", [100000, 200000])
    def test_sigma_is_read_at_the_grid_point_of_rho(self, steps, tmp_path):
        # numpy's default rtol 1e-5 would also match the point one step before dt
        out = tmp_path / "o"
        argv = ["relaxation", "--horizon", "1", "--steps", str(steps), "--output", str(out)]
        assert main(argv) == 0
        summary = read_json(out / "relaxation_summary.json")
        assert summary["direct"] == {"rho_at_dt": 0.0, "sigma_at_dt": "inf"}
        for name in ("statistical", "poisson"):
            assert summary[name] == {"rho_at_dt": math.exp(-1.0), "sigma_at_dt": 1.0}

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "o"
        main(["relaxation", "--output", str(out)])
        header = (out / "relaxation_poisson.csv").read_text().splitlines()[0]
        assert header == "t,rho,sigma"


def _write_drive_17(path: Path) -> None:
    """A custom drive between two real symmetric 17 x 17 hamiltonians with
    entries from a fixed stream: 17 sectors each, so 289 (i, f) pairs."""
    rng = stream_generator(17, 0)

    def symmetric():
        a = rng.random((17, 17)) - 0.5
        return (a + a.T).tolist()

    drive = {"h_initial": symmetric(), "h_final": symmetric(), "t_f": 1.0, "n_steps": 4}
    path.write_text(json.dumps(drive))


# sha256 of each sample file of `jarzynski --scenario custom --samples 9000`
# on `_write_drive_17`, as the pair code was written while it was int64
_DRIVE_17_DIGESTS = {
    "csv": "0913a211a744916fe2b09fa14d54cf74894d46836645e96fbf80b5fe9038bdbb",
    "json": "57c9671322a5aa0ddfb83dbb63036a60be46c18367ca12cb7e2c7b629a8b1ef4",
}


class TestJarzynskiCommand:
    def test_constant_scenario_exact_pass(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["jarzynski", "--scenario", "constant", "--samples", "200", "--output", str(out)]
        )
        assert code == 0
        report = read_json(out / "jarzynski_report.json")
        assert report["estimator_mean"] == 1.0
        assert report["passed"] is True

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_drive_past_256_pairs_writes_the_same_bytes(self, tmp_path, fmt):
        drive = tmp_path / "drive.json"
        _write_drive_17(drive)
        argv = ["jarzynski", "--scenario", "custom", "--schedule-file", str(drive)]
        settings = cli._merge_settings("jarzynski", cli.build_parser().parse_args(argv))
        ((_, _, code, table), *_) = tpm_blocks(cli._scenario_schedule(settings), 1.0, 9000, 0)
        assert len(table["work"]) == 289 and code.dtype == np.uint16
        out = tmp_path / "o"
        assert main([*argv, "--samples", "9000", "--format", fmt, "--output", str(out)]) == 0
        written = (out / f"work_samples.{fmt}").read_bytes()
        assert hashlib.sha256(written).hexdigest() == _DRIVE_17_DIGESTS[fmt]

    def test_commuting_quench_passes(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "jarzynski",
                "--scenario",
                "commuting-quench",
                "--samples",
                "20000",
                "--seed",
                "42",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        samples = (out / "work_samples.csv").read_text().splitlines()
        assert samples[0] == "initial_energy,final_energy,work,stream_id,draw_id"
        assert len(samples) == 20001

    @pytest.mark.parametrize("steps", ["-2", "5"])
    def test_quench_step_count_is_refused(self, tmp_path, capsys, steps):
        # the quench is sudden: it has no drive steps to set
        out = tmp_path / "o"
        argv = ["jarzynski", "--scenario", "commuting-quench", "--steps", steps,
                "--samples", "10", "--output", str(out)]
        assert main(argv) == 2
        message = f"scenario 'commuting-quench' takes no drive steps, got steps={steps}"
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert [p.name for p in out.iterdir()] == ["jarzynski_report.json"]
        assert read_json(out / "jarzynski_report.json")["error"] == {
            "type": "ValueError", "message": message,
        }

    def test_quench_default_step_count_runs(self, tmp_path):
        out = tmp_path / "o"
        argv = ["jarzynski", "--scenario", "commuting-quench", "--steps", "0",
                "--samples", "2000", "--output", str(out)]
        assert main(argv) == 0
        assert read_json(out / "jarzynski_report.json")["passed"] is True

    def test_wrong_delta_f_fails_nonzero(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "jarzynski",
                "--scenario",
                "commuting-quench",
                "--samples",
                "20000",
                "--seed",
                "42",
                "--delta-f",
                "0.2050",  # about 10% off the closed form
                "--output",
                str(out),
            ]
        )
        assert code == 1
        report = read_json(out / "jarzynski_report.json")
        assert report["passed"] is False
        assert report["delta_f_overridden"] is True

    def test_json_format_export(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "jarzynski",
                "--scenario",
                "constant",
                "--samples",
                "50",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        samples = read_json(out / "work_samples.json")
        assert len(samples) == 50 and samples[0]["work"] == 0.0

    def test_custom_scenario_from_file(self, tmp_path):
        sched = tmp_path / "drive.json"
        sched.write_text(
            json.dumps(
                {
                    "t_f": 1.0,
                    "n_steps": 30,
                    "h_initial": [[0.0, 0.0], [0.0, 1.0]],
                    "h_final": [[0.5, 0.2], [0.2, 1.5]],
                }
            )
        )
        out = tmp_path / "o"
        code = main(
            [
                "jarzynski",
                "--scenario",
                "custom",
                "--schedule-file",
                str(sched),
                "--samples",
                "30000",
                "--output",
                str(out),
            ]
        )
        assert code == 0

    def test_driven_qubit_scenario(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "jarzynski",
                "--scenario",
                "driven-qubit",
                "--samples",
                "20000",
                "--seed",
                "7",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out / "jarzynski_report.json")
        assert abs(report["exact_evaluation"] - report["exact_value"]) <= 1e-8

    def test_drive_propagators_are_built_once(self, tmp_path, monkeypatch):
        calls = []
        original = DriveSchedule.step_propagators

        def counted(schedule):
            calls.append(schedule)
            return original(schedule)

        monkeypatch.setattr(DriveSchedule, "step_propagators", counted)
        argv = ["jarzynski", "--scenario", "driven-qubit", "--samples", "200",
                "--output", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == 1


class TestSchemeCommand:
    def test_roundtrips_reuse_the_context_the_runs_drew_with(self, tmp_path, monkeypatch):
        built = []
        original = scheme.build_context

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheme, "build_context", counted)
        argv = ["scheme", "--verify-appendix-b", "--samples", "20", "--output", str(tmp_path)]
        assert main(argv) == 0
        assert len(built) == 1
        assert read_json(tmp_path / "scheme_summary.json")["checks"]["roundtrips_passed"]

    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["scheme", "--samples", "500", "--seed", "7", "--output", str(out)]
        )
        assert code == 0
        summary = read_json(out / "scheme_summary.json")
        assert summary["passed"] is True
        assert summary["ledger_per_run"] == {
            "experimenter": 2.0,
            "measured": -3.0,
            "reader": 1.0,
        }
        lines = (out / "scheme_records.jsonl").read_text().splitlines()
        assert len(lines) == 500
        first = json.loads(lines[0])
        assert first["sigma_reader"] == "1"

    def test_eigenstate_prep_all_zero(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "scheme",
                "--samples",
                "100",
                "--eigenstate-prep",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        summary = read_json(out / "scheme_summary.json")
        assert summary["checks"]["eigenstate_all_zero"] is True
        assert summary["sigma_total"] == 0.0
        assert summary["ledger_per_run"] == {
            "experimenter": 0.0,
            "measured": 0.0,
            "reader": 0.0,
        }

    def test_verify_appendix_b_four_stages(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "scheme",
                "--samples",
                "50",
                "--verify-appendix-b",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out / "roundtrip_report.json")
        assert [s["stage"] for s in report["stages"]] == ["a", "b", "c", "d"]
        assert all(s["passed"] for s in report["stages"])

    @pytest.mark.parametrize("beta", ["1e-9", "1e-5"])
    def test_work_gap_identity_at_high_temperature(self, tmp_path, beta):
        # the gap is 3 kT = 3/beta; one ulp of 3e9 is 4.8e-7, far above 1e-12
        out = tmp_path / "o"
        code = main(["scheme", "--beta", beta, "--samples", "7000", "--output", str(out)])
        summary = read_json(out / "scheme_summary.json")
        assert summary["checks"]["work_gap_identity"] is True
        assert code == 0

    def test_extreme_beta_verdicts_fail(self, tmp_path, capsys):
        # every exp(-beta W) and exp(-beta dF) underflows to 0, and the
        # work-gap target 2e-300 lies far inside its bound of 1e-12
        out = tmp_path / "o"
        code = main(["scheme", "--beta", "1e300", "--samples", "10", "--output", str(out)])
        summary = read_json(out / "scheme_summary.json")
        assert summary["work_gap_target"] == 2e-300
        checks = summary["checks"]
        assert checks["original_passed"] is False
        assert checks["modified_passed"] is False
        assert checks["work_gap_identity"] is False
        assert summary["passed"] is False
        assert code == 1
        printed = capsys.readouterr().out
        assert "(target 2.0000000000000001e-300) [FAIL]" in printed
        assert "original: mean=0 target=0 se=0 [FAIL]" in printed

    def test_summary_csv_columns(self, tmp_path):
        out = tmp_path / "o"
        main(["scheme", "--samples", "20", "--output", str(out)])
        header = (out / "scheme_summary.csv").read_text().splitlines()[0]
        assert header.split(",") == [
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


@pytest.fixture
def scheme_results(monkeypatch):
    """A call that returns `run_scheme` of every config that `meterwork
    scheme` has drawn, in order, with the same policy."""
    calls = []

    def draw_and_keep(config, **kwargs):
        calls.append((config, kwargs))
        return draw_runs(config, **kwargs)

    draw_runs = cli._draw_runs
    monkeypatch.setattr(cli, "_draw_runs", draw_and_keep)
    return lambda: [run_scheme(config, **kwargs) for config, kwargs in calls]


class TestSchemeRecordColumns:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--config", str(CONFIGS / "scheme_default.cfg")],
            ["--eigenstate-prep", "--samples", "3000", "--seed", "3"],
            ["--beta", "0.3", "--samples", "4000", "--seed", "11"],
            ["--samples", "9000", "--seed", "13"],  # two stream blocks
            # at kT = 1/0.7, (1.25 + 2 kT) + kT != 1.25 + (2 kT + kT)
            ["--beta", "0.7", "--samples", "2000", "--seed", "5"],
        ],
    )
    def test_outputs_equal_the_record_by_record_reference(self, tmp_path, scheme_results, argv):
        out, ref = tmp_path / "out", tmp_path / "ref"
        ref.mkdir()
        assert main(["scheme", *argv, "--output", str(out)]) == 0
        (result,) = scheme_results()
        write_reference_records(ref, result.records)
        for name in ("scheme_records.jsonl", "scheme_summary.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

        sums = reference_scheme_sums(result.records)
        # the sums of run_scheme's whole columns and the command's kept ones
        summary = read_json(out / "scheme_summary.json")
        returned = {k: getattr(result, k) for k in ("sigma_total", "ledger_totals", "work_gap")}
        for got in (returned, summary):
            assert float(got["sigma_total"]).hex() == sums["sigma_total"].hex()
            assert [(k, float(v).hex()) for k, v in got["ledger_totals"].items()] == [
                (k, v.hex()) for k, v in sums["ledger_totals"].items()
            ]
            assert float(got["work_gap"]).hex() == sums["work_gap"].hex()

    def test_cmd_scheme_builds_no_records_and_sums_each_branch_ledger_once(
        self, tmp_path, monkeypatch, scheme_results
    ):
        calls = {"records": 0, "totals": 0}
        post_init, totals = SchemeRunRecord.__post_init__, EntropyLedger.totals

        def counting_post_init(record):
            calls["records"] += 1
            post_init(record)

        def counting_totals(ledger):
            calls["totals"] += 1
            return totals(ledger)

        monkeypatch.setattr(SchemeRunRecord, "__post_init__", counting_post_init)
        monkeypatch.setattr(EntropyLedger, "totals", counting_totals)
        argv = ["scheme", "--config", str(CONFIGS / "scheme_default.cfg"), "--output", str(tmp_path)]
        assert main(argv) == 0
        # 2 initial energy sectors x 2 event outcomes, none pruned
        assert calls == {"records": 0, "totals": 4}
        (result,) = scheme_results()
        assert len({id(r.ledger) for r in result.records}) == 4


class TestPolicyOverrides:
    def test_impossible_unitary_tolerance_surfaces_cleanly(self, tmp_path, capsys):
        # float rounding in the coupling unitary (~1e-15) violates a 1e-30 bound
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("policy_unitary_tol = 1e-30\nsamples = 10\n")
        code = main(["scheme", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "unitary assertion" in capsys.readouterr().err

    def test_loosened_tolerance_passes_through(self, tmp_path):
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("policy_hermitian_tol = 1e-9\nsamples = 20\n")
        assert main(["scheme", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 0


SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1, -1.0 / 3.0]


class TestColumnWriter:
    @pytest.mark.parametrize("repeats", [1, 1000])  # one block, many blocks
    def test_cells_render_as_format_17g(self, tmp_path, repeats):
        floats = np.array(SPECIAL_FLOATS * repeats)
        ints = np.arange(len(floats), dtype=np.int64) - 2**62
        path = tmp_path / "cells.csv"
        write_csv(path, ["x", "k"], [[floats, ints]])
        rows = path.read_text().splitlines()
        assert rows[0] == "x,k"
        assert rows[1:] == [
            f"{format(x, '.17g')},{int(k)}" for x, k in zip(floats.tolist(), ints)
        ]
        assert rows[1:9] == [
            "-0,-4611686018427387904",
            "0,-4611686018427387903",
            "inf,-4611686018427387902",
            "-inf,-4611686018427387901",
            "nan,-4611686018427387900",
            "4.9406564584124654e-324,-4611686018427387899",
            "0.10000000000000001,-4611686018427387898",
            "-0.33333333333333331,-4611686018427387897",
        ]

    def test_json_records_match_write_json(self, tmp_path):
        floats = np.array(SPECIAL_FLOATS * 300)
        ints = np.arange(len(floats), dtype=np.int64)
        write_json_records(tmp_path / "cols.json", ["x", "k"], [[floats, ints]])
        write_json(
            tmp_path / "dicts.json",
            [{"x": x, "k": k} for x, k in zip(floats.tolist(), ints.tolist())],
        )
        text = (tmp_path / "cols.json").read_text()
        assert text == (tmp_path / "dicts.json").read_text()
        assert '"x": "inf"' in text and '"x": "-inf"' in text and '"x": "nan"' in text

    def test_repeating_block_renders_each_bit_pattern_as_format_17g(self, tmp_path):
        # NaNs of two payloads and both signs, beside the signed zeros
        nans = np.array(
            [0x7FF8000000000001, 0xFFF8000000000002, 0x7FF8000000000000, 0xFFF8000000000000],
            dtype=np.uint64,
        ).view(np.float64)
        patterns = np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324], nans])
        code = np.tile(np.arange(9), 300)  # one table entry per bit pattern
        floats = patterns[code]
        path = tmp_path / "cells.csv"
        write_csv(path, ["x", "k"], [cli.Coded(code, {"x": patterns}, {}, 0)])
        rows = path.read_text().splitlines()[1:]
        assert rows == [f"{format(x, '.17g')},{k}" for k, x in enumerate(floats.tolist())]
        assert [row.split(",")[0] for row in rows[:9]] == (
            ["-0", "0", "inf", "-inf", "4.9406564584124654e-324"] + ["nan"] * 4
        )

    @pytest.mark.parametrize("coded", [True, False])
    @pytest.mark.parametrize("distinct", [512, 513])
    def test_coded_and_free_blocks_render_alike(self, tmp_path, distinct, coded):
        code = np.resize(np.arange(distinct), 2048)
        entries = np.arange(distinct) / 7.0 - 20.0
        floats = entries[code]
        positions = np.arange(2048)

        def block(rows):
            if coded:
                return cli.Coded(code[rows], {"x": entries}, {}, rows.indices(2048)[0])
            return [floats[rows], positions[rows]]

        want = [f"{format(x, '.17g')},{k}" for k, x in enumerate(floats.tolist())]
        write_csv(tmp_path / "block.csv", ["x", "k"], [block(slice(1024))])
        assert (tmp_path / "block.csv").read_text().splitlines()[1:] == want[:1024]
        path = tmp_path / "half.csv"
        write_csv(path, ["x", "k"], [block(slice(None))])
        assert path.read_text().splitlines()[1:] == want

    def test_one_pattern_per_code_writes_each_cell(self, tmp_path):
        # codes that skip some entries; the entries no row reads are not written
        entries = np.full(10, 7.5)
        entries[[5, 0, 2, 9]] = [0.0, -0.0, NAN_PAYLOADS[0], NAN_PAYLOADS[2]]
        code = np.tile([5, 0, 2, 9], 3)
        write_csv(tmp_path / "x.csv", ["x", "k"], [cli.Coded(code, {"x": entries}, {}, 0)])
        cells = ["0", "-0", "nan", "nan"] * 3
        assert (tmp_path / "x.csv").read_text() == "x,k\n" + "".join(
            f"{x},{k}\n" for k, x in enumerate(cells)
        )

    def test_json_block_repeating_inf_stays_quoted(self, tmp_path):
        infs = np.resize([math.inf, 0.5], 3000)
        finite = np.resize([0.25, -0.0], 3000)
        path = tmp_path / "inf.json"
        write_json_records(path, ["x", "y"], [[infs, finite]])
        records = read_json(path)
        assert [r["x"] for r in records] == ["inf", 0.5] * 1500
        assert [r["y"] for r in records] == [0.25, -0.0] * 1500
        assert '"x": "inf",\n    "y": 0.25' in path.read_text()

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[np.zeros(3), np.zeros(2)]])

    @pytest.mark.parametrize("n", [0, 2])
    def test_header_names_every_column_of_every_block(self, tmp_path, n):
        blocks = [[np.zeros(2)], [np.zeros(n), np.zeros(n)]]
        with pytest.raises(ValueError, match="^1 header names for 2 columns$"):
            write_csv(tmp_path / "x.csv", ["a"], blocks)

    def test_tpm_columns_round_trip_bit_equal(self, tmp_path):
        h_i = Operator(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
        h_f = Operator(np.array([[0.3, 0.7], [0.7, -0.2]], dtype=complex), hermitian=True)
        samples = tpm_sample(DriveSchedule.quench(h_i, h_f), 1.0, 9000, seed=3)
        keys = ["initial_energy", "final_energy", "work", "stream_id", "draw_id"]
        path = tmp_path / "samples.csv"
        write_csv(path, keys, [[getattr(samples, k) for k in keys]])
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 9000
        for j, key in enumerate(keys):
            want = getattr(samples, key)
            got = np.array([row[j] for row in rows]).astype(want.dtype)
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_json_export_holds_the_csv_values(self, tmp_path):
        common = ["jarzynski", "--scenario", "driven-qubit", "--samples", "9000",
                  "--steps", "40", "--seed", "5"]
        assert main([*common, "--output", str(tmp_path / "c")]) == 0
        assert main([*common, "--format", "json", "--output", str(tmp_path / "j")]) == 0
        csv_rows = (tmp_path / "c" / "work_samples.csv").read_text().splitlines()
        keys = csv_rows[0].split(",")
        records = read_json(tmp_path / "j" / "work_samples.json")
        assert len(records) == len(csv_rows) - 1 == 9000
        for line, record in zip(csv_rows[1:], records):
            assert list(record) == keys
            assert [json.loads(cell) for cell in line.split(",")] == list(record.values())
        assert (tmp_path / "c" / "jarzynski_report.json").read_bytes() == (
            tmp_path / "j" / "jarzynski_report.json"
        ).read_bytes()


# Row counts around the 1024-row block and the half rule, and distinct
# counts per column: one value, two (the signed zeros, for floats), four
# (the zeros and two NaN payloads), exactly n/2, n/2 + 1 and all distinct.
ROW_COUNTS = [0, 1, 1023, 1024, 1025, 5000]
DISTINCT = {"one": 1, "two": 2, "few": 4, "half": None, "half+1": None, "all": None}
NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000002, 0x7FF8000000000000, 0xFFF8000000000000],
    dtype=np.uint64,
).view(np.float64)


def _distinct_values(rng, kind: str, k: int) -> np.ndarray:
    """k values of one kind with distinct bit patterns. Floats start with
    the signed zeros and two NaN payloads, so a column of a few distinct
    values holds exactly the patterns that compare equal or unordered."""
    if kind == "i":
        drawn = rng.integers(-(2**62), 2**62, size=2 * k + 8)
    else:
        drawn = np.concatenate([
            [-0.0, 0.0], NAN_PAYLOADS[:2], [math.inf, -math.inf, 5e-324], NAN_PAYLOADS[2:],
            rng.normal(size=k) * 10.0 ** rng.integers(-5, 5, k),
            rng.integers(0, 2**64, size=k + 8, dtype=np.uint64).view(np.float64),
        ])
    _, first = np.unique(drawn.view(np.int64), return_index=True)
    return drawn[np.sort(first)][:k]


def _count(n: int, distinct: str) -> int:
    k = DISTINCT[distinct] or {"half": n // 2, "half+1": n // 2 + 1, "all": n}[distinct]
    return min(max(k, 1), n)


def _column(rng, kind: str, n: int, distinct: str) -> np.ndarray:
    k = _count(n, distinct)
    if not n:
        return np.zeros(0, dtype=np.int64 if kind == "i" else np.float64)
    values = _distinct_values(rng, kind, k)
    return values[rng.permutation(np.resize(np.arange(k), n))]


def _assert_same_text(got: str, want: str) -> None:
    """Equal texts; on a difference, name the first line that differs (a
    full diff of thousands of rows takes minutes)."""
    if got != want:
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        at, line = next(((i, p) for i, p in enumerate(pairs) if p[0] != p[1]), (None, None))
        raise AssertionError(f"texts differ at line {at}: {line} ({len(got)} vs {len(want)} chars)")


def _cell_17g(x) -> str:
    return str(x) if isinstance(x, int) else format(x, ".17g")


def _code_of(*columns) -> np.ndarray:
    """Each row's code: the index of its combination of bit patterns."""
    rows = np.stack([c.view(np.int64) for c in columns], axis=1)
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _entries(code: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The table column, one entry per code, of a row column that is a
    function of `code`."""
    entries = np.zeros(code.max() + 1, dtype=column.dtype)
    entries[code] = column
    return entries


# First positions around the thousands a coded chunk is cut at: the first
# prefixed position, a power of ten, and past 2**53, where a float could no
# longer hold every position.
FIRST_POSITIONS = [0, 998, 999, 1000, 1001, 9999, 10000, 10001, 10**6 - 1, 10**6 + 1, 2**53]


@st.composite
def _table(draw, max_columns: int = 4):
    """The rows' columns, each row's code (None: the block is a list of
    columns), per column its table column of one entry per code (None: the
    column is the rows' position, or the block is a list of columns), and
    the first row's position. The codes are k of the 3k entries, so some
    entries occur in no row."""
    n = draw(st.sampled_from(ROW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    distinct = st.sampled_from(list(DISTINCT))
    codes = draw(st.one_of(st.none(), distinct))
    # a coded block has a table column beside its position
    kinds = draw(st.lists(st.sampled_from("if"), min_size=1 + (codes is not None),
                          max_size=max_columns))
    if codes is None:
        columns = [_column(rng, kind, n, draw(distinct)) for kind in kinds]
        return columns, None, [None] * len(kinds), 0
    k = _count(n, codes)
    slot = rng.permutation(np.resize(np.arange(k), n))
    code = rng.permutation(3 * k)[:k][slot]
    at = draw(st.integers(0, len(kinds) - 1))  # the position column
    first = draw(st.one_of(st.sampled_from(FIRST_POSITIONS), st.integers(0, 2**53)))
    entries = [
        None if j == at else _column(rng, kind, 3 * k, draw(distinct))
        for j, kind in enumerate(kinds)
    ]
    columns = [
        first + np.arange(n, dtype=np.int64) if e is None else e[code] for e in entries
    ]
    return columns, code, entries, first


# Row indices at which the writers' input is split into blocks; a cut past
# the last row, or two equal cuts, makes an empty block.
CUTS = st.lists(st.integers(0, 5000), max_size=3)


def _blocks(names, table, cuts):
    """The rows of a `_table` as consecutive blocks, split at the sorted
    cuts: lists of columns, or `Coded` blocks of one table and the rows'
    positions."""
    columns, code, entries, first = table
    in_table = {k: e for k, e in zip(names, entries) if e is not None}
    n = len(columns[0])
    edges = [0, *sorted(min(cut, n) for cut in cuts), n]
    for a, b in zip(edges, edges[1:]):
        if code is None:
            yield [c[a:b] for c in columns]
        else:
            yield cli.Coded(code[a:b], in_table, {}, first + a)


def _jsonl_format(keys):
    """A scheme_records.jsonl row template over `keys` (see `cli._jsonl_row`)."""

    def row_format(specs):
        cells = (s if s == "%d" else f'"{s}"' for s in specs)
        return "{" + ", ".join(f'"{k}": {c}' for k, c in zip(keys, cells)) + "}\n"

    return row_format


def _jsonl_reference(keys, columns) -> str:
    return "".join(
        "{" + ", ".join(
            f'"{k}": {x}' if isinstance(x, int) else f'"{k}": "{format(x, ".17g")}"'
            for k, x in zip(keys, row)
        ) + "}\n"
        for row in zip(*(c.tolist() for c in columns))
    )


def _write(fmt, path, names, blocks) -> str:
    """The text one writer makes of the blocks, and the cell-by-cell
    reference text of the same rows."""
    if fmt == "csv":
        write_csv(path, names, blocks)
    elif fmt == "json":
        write_json_records(path, names, blocks)
    else:
        with open(path, "w") as fh:
            cli._write_rows(fh, names, _jsonl_format(names), blocks)
    return path.read_text()


def _reference(fmt, names, columns) -> str:
    rows = list(zip(*(c.tolist() for c in columns)))
    if fmt == "csv":
        return ",".join(names) + "\n" + "".join(",".join(map(_cell_17g, r)) + "\n" for r in rows)
    if fmt == "json":
        return cli._json_render([dict(zip(names, r)) for r in rows]) + "\n"
    return _jsonl_reference(names, columns)


class TestRowTemplates:
    """The writers against a cell-by-cell reference, whatever the blocks'
    codes and however the rows are split into blocks."""

    @given(table=_table(), cuts=CUTS)
    def test_csv_matches_cell_by_cell(self, tmp_path_factory, table, cuts):
        columns = table[0]
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(path, header, _blocks(header, table, cuts))
        rows = zip(*(c.tolist() for c in columns))
        want = "".join(",".join(map(_cell_17g, row)) + "\n" for row in rows)
        _assert_same_text(path.read_text(), ",".join(header) + "\n" + want)

    @given(table=_table(), cuts=CUTS)
    def test_json_records_match_write_json(self, tmp_path_factory, table, cuts):
        columns = table[0]
        if not len(columns[0]):
            return  # write_json_records writes a non-empty array
        path = tmp_path_factory.mktemp("json") / "x.json"
        keys = [f"c{j}" for j in range(len(columns))]
        write_json_records(path, keys, _blocks(keys, table, cuts))
        records = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
        _assert_same_text(path.read_text(), cli._json_render(records) + "\n")

    @given(table=_table(max_columns=len(cli.RECORD_COLUMNS)), cuts=CUTS)
    def test_jsonl_layout_matches_cell_by_cell(self, tmp_path_factory, table, cuts):
        columns = table[0]
        path = tmp_path_factory.mktemp("jsonl") / "x.jsonl"
        names = cli.RECORD_COLUMNS[:len(columns)]
        with open(path, "w") as fh:
            cli._write_rows(fh, names, cli._jsonl_row, _blocks(names, table, cuts))
        _assert_same_text(path.read_text(), _jsonl_reference(cli.RECORD_COLUMNS, columns))

    @pytest.mark.parametrize("n", [1026, 5000])
    @pytest.mark.parametrize("where", ["free", "coded"])
    def test_json_non_finite_in_one_block_renders_alike_in_every_block(
        self, tmp_path, n, where
    ):
        rng = np.random.default_rng(n)
        code = np.resize([0, 1, 2], n)
        code[1024], code[min(n, 2048) - 1] = 3, 4
        entries = np.array([0.25, -0.0, 1.5, math.inf, math.nan])
        column = rng.normal(size=n) if where == "free" else entries[code]
        column[1024] = math.inf  # the second block alone holds non-finite values
        column[min(n, 2048) - 1] = math.nan
        first = 0 if where == "free" else int(rng.integers(0, 2**53))
        ints = first + np.arange(n, dtype=np.int64)
        block = [column, ints] if where == "free" else cli.Coded(code, {"x": entries}, {}, first)
        path = tmp_path / "x.json"
        write_json_records(path, ["x", "k"], [block])
        records = [{"x": x, "k": k} for x, k in zip(column.tolist(), ints.tolist())]
        _assert_same_text(path.read_text(), cli._json_render(records) + "\n")
        text = path.read_text()
        assert '"x": "inf"' in text and '"x": "nan"' in text

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 5000])
    @pytest.mark.parametrize("coded", [("f",), ("f", "h")], ids=["f-coded", "both-coded"])
    def test_code_of_more_than_half_the_rows_renders_alike(self, tmp_path, n, coded):
        rng = np.random.default_rng(n)
        few, half = _column(rng, "f", n, "few"), _column(rng, "i", n, "half")
        columns = {"f": few, "h": half}
        code = _code_of(*(columns[k] for k in coded))
        assert len(coded) == 1 or 2 * (code.max() + 1) > n  # past half the rows, each pair its own code
        table = {k: _entries(code, columns[k]) for k in coded}
        first = int(rng.integers(0, 2**53))
        names = [*coded, "k"]
        write_csv(tmp_path / "x.csv", names, [cli.Coded(code, table, {}, first)])
        want = "".join(
            ",".join(map(_cell_17g, row)) + "\n"
            for row in zip(*(columns[k].tolist() for k in coded), range(first, first + n))
        )
        _assert_same_text((tmp_path / "x.csv").read_text(), ",".join(names) + "\n" + want)


class TestPositionText:
    """A coded block's position column, written from each chunk's leading
    digits and a table of three-digit suffixes, against the cell-by-cell
    reference, wherever the column stands and wherever a block starts."""

    # the position column first, in the middle (as the scheme's draw) and last
    LAYOUTS = {
        "first": ["k", "s", "a", "b"],
        "middle": ["s", "k", "a", "b"],
        "last": ["a", "s", "b", "k"],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json", "jsonl"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("first", FIRST_POSITIONS)
    def test_positions_match_cell_by_cell(self, tmp_path, fmt, layout, first):
        rng = np.random.default_rng(first % 1000)
        names = self.LAYOUTS[layout]
        table = {"a": _column(rng, "f", 6, "all"), "b": np.arange(6, dtype=np.int64) - 3}
        n = 2600
        code = rng.integers(0, 6, size=n)
        # blocks of one row, of a part of a chunk, and across several chunks
        edges = [0, 1, 2, 503, 507, n]
        streams = range(len(edges) - 1)
        blocks = [
            cli.Coded(code[a:b], table, {"s": stream}, first + a)
            for stream, (a, b) in zip(streams, zip(edges, edges[1:]))
        ]
        stream = np.repeat(np.array(streams), np.diff(edges))
        columns = {
            "k": first + np.arange(n, dtype=np.int64), "s": stream,
            "a": table["a"][code], "b": table["b"][code],
        }
        path = tmp_path / f"x.{fmt}"
        got = _write(fmt, path, names, blocks)
        _assert_same_text(got, _reference(fmt, names, [columns[k] for k in names]))

    def test_tables_alternating_between_blocks_render_alike(self, tmp_path):
        rng = np.random.default_rng(7)
        tables = [{"a": rng.normal(size=3)}, {"a": rng.normal(size=5)}]
        codes = [rng.integers(0, 3, 700), rng.integers(0, 5, 900), rng.integers(0, 3, 400)]
        blocks, values, first = [], [], 0
        for table, code in zip([tables[0], tables[1], tables[0]], codes):
            blocks.append(cli.Coded(code, table, {}, first))
            values.append(table["a"][code])
            first += len(code)
        got = _write("csv", tmp_path / "x.csv", ["a", "k"], blocks)
        want = [np.concatenate(values), np.arange(first)]
        _assert_same_text(got, _reference("csv", ["a", "k"], want))

    def test_table_entries_are_rendered_once_per_table(self, tmp_path):
        entries, blocks = 5000, 20
        rng = np.random.default_rng(0)
        table = {"x": rng.normal(size=entries), "i": np.arange(entries) - 7}
        rendered = []

        def cells(column):
            spec, render = cli._cells(column)
            return spec, lambda values: rendered.append(len(values)) or render(values)

        codes = [rng.integers(0, entries, size=100) for _ in range(blocks)]
        coded = [cli.Coded(code, table, {"s": j}, 100 * j) for j, code in enumerate(codes)]
        with open(tmp_path / "x.csv", "w") as fh:
            cli._write_rows(fh, ["x", "i", "s", "k"], lambda s: ",".join(s) + "\n", coded, cells=cells)
        # each table column once, and each block's one constant
        assert sorted(rendered) == [1] * blocks + [entries] * 2
        code = np.concatenate(codes)
        stream = np.repeat(np.arange(blocks), 100)
        columns = [table["x"][code], table["i"][code], stream, np.arange(100 * blocks)]
        want = _reference("csv", ["x", "i", "s", "k"], columns).split("\n", 1)[1]
        _assert_same_text((tmp_path / "x.csv").read_text(), want)

    @pytest.mark.parametrize(
        "names, constants, message",
        [(["a", "k", "m"], {}, r"one position column.*got \['k', 'm'\]"),
         (["a", "s"], {"s": 1}, r"one position column.*got \[\]")],
    )
    def test_one_position_column(self, tmp_path, names, constants, message):
        block = cli.Coded(np.zeros(3, dtype=np.intp), {"a": np.zeros(1)}, constants, 0)
        with pytest.raises(ValueError, match=message):
            write_csv(tmp_path / "x.csv", names, [block])

    @pytest.mark.parametrize(
        "first, message",
        [(-1, "a block's first position must be >= 0, got -1"),
         (1.0, "first must be an integer, got 1.0")],
    )
    def test_first_position_is_a_nonnegative_integer(self, tmp_path, first, message):
        block = cli.Coded(np.zeros(3, dtype=np.intp), {"a": np.zeros(1)}, {}, first)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_csv(tmp_path / "x.csv", ["a", "k"], [block])


class TestDomainErrors:
    def test_scheme_zero_samples_names_the_count(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["scheme", "--samples", "0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_samples must be at least 1, got 0" in err
        assert "entropy production" not in err

    @pytest.mark.parametrize(
        "argv, summary",
        [
            (["scheme", "--samples", "0"], "scheme_summary.json"),
            (["jarzynski", "--samples", "0"], "jarzynski_report.json"),
            (["relaxation", "--steps", "0"], "relaxation_summary.json"),
        ],
    )
    def test_failure_summary_is_written(self, tmp_path, argv, summary):
        out = tmp_path / "o"
        assert main([*argv, "--output", str(out)]) == 2
        report = read_json(out / summary)
        assert report["passed"] is False
        assert report["error"]["type"] == "ValueError"
        assert "got 0" in report["error"]["message"]

    def test_draw_on_pruned_branch_writes_failure_summary(self, tmp_path, capsys):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("policy_outcome_floor = 0.3\nsamples = 50\n")
        out = tmp_path / "o"
        assert main(["scheme", "--config", str(cfg), "--output", str(out)]) == 2
        assert "SchemeConstraintError" in capsys.readouterr().err
        report = read_json(out / "scheme_summary.json")
        assert report["passed"] is False
        assert report["error"]["type"] == "SchemeConstraintError"
        assert "initial energy sector 1" in report["error"]["message"]

    def test_dimension_over_budget_writes_failure_summary(self, tmp_path, capsys):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("policy_max_dim = 8\nsamples = 20\n")
        out = tmp_path / "o"
        assert main(["scheme", "--config", str(cfg), "--output", str(out)]) == 2
        assert "CapacityError" in capsys.readouterr().err
        report = read_json(out / "scheme_summary.json")
        assert report["passed"] is False
        assert report["error"]["type"] == "CapacityError"
        assert "exceeds budget 8" in report["error"]["message"]

    def test_negative_outcome_floor_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("policy_outcome_floor = -1\neigenstate_prep = true\nsamples = 50\n")
        out = tmp_path / "o"
        assert main(["scheme", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "outcome_floor must lie in [0, 1), got -1" in err
        assert "LinAlgError" not in err
        report = read_json(out / "scheme_summary.json")
        assert report["passed"] is False
        assert report["error"]["type"] == "ValueError"
        assert "outcome_floor must lie in [0, 1), got -1" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--j-initial", "-5", "--drive-steps", "0"], "j_initial=-5.0, drive_steps=0"),
            (["--j-final", "0.5"], "j_final=0.5"),
            (["--t-f", "3"], "t_f=3.0"),
        ],
    )
    def test_eigenstate_prep_rejects_a_drive_setting(self, tmp_path, capsys, argv, named):
        out = tmp_path / "o"
        argv = ["scheme", "--eigenstate-prep", *argv, "--samples", "10", "--output", str(out)]
        assert main(argv) == 2
        message = (
            "eigenstate_prep runs the site-diagonal drive and takes no barrier drive "
            f"setting, got {named}"
        )
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert [p.name for p in out.iterdir()] == ["scheme_summary.json"]
        assert read_json(out / "scheme_summary.json")["error"] == {
            "type": "ValueError", "message": message,
        }

    @pytest.mark.parametrize("scenario", ["constant", "commuting-quench", "driven-qubit"])
    def test_schedule_file_on_a_named_scenario_is_an_error(self, tmp_path, capsys, scenario):
        out = tmp_path / "o"
        argv = ["jarzynski", "--scenario", scenario, "--schedule-file", "/nonexistent.json",
                "--samples", "10", "--output", str(out)]
        assert main(argv) == 2
        message = (
            f"scenario {scenario!r} reads no schedule file, got "
            "schedule_file='/nonexistent.json'; only scenario 'custom' reads one"
        )
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert [p.name for p in out.iterdir()] == ["jarzynski_report.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["jarzynski", "--beta", "nan"],
            ["jarzynski", "--beta", "inf"],
            ["scheme", "--beta", "nan"],
            ["scheme", "--beta", "inf"],
        ],
    )
    def test_non_finite_beta_is_named(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--samples", "10", "--output", str(out)]) == 2
        message = f"beta must be positive and finite, got {argv[-1]}"
        assert message in capsys.readouterr().err
        report = read_json(out / cli._SUMMARY_FILES[argv[0]])
        assert report["passed"] is False
        assert report["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("flag, value", [("--j-initial", "inf"), ("--j-final", "nan")])
    def test_non_finite_tunneling_amplitude_is_named(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert main(["scheme", flag, value, "--samples", "10", "--output", str(out)]) == 2
        message = f"{flag[2:].replace('-', '_')} must be positive and finite, got {value}"
        assert message in capsys.readouterr().err
        report = read_json(out / "scheme_summary.json")
        assert report["error"] == {"type": "ValueError", "message": message}

    def test_non_finite_delta_f_override_is_named(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["jarzynski", "--samples", "10", "--delta-f", "inf", "--output", str(out)]
        assert main(argv) == 2
        message = "delta_f must be finite, got inf"
        assert message in capsys.readouterr().err
        report = read_json(out / "jarzynski_report.json")
        assert report["passed"] is False
        assert report["error"] == {"type": "ValueError", "message": message}

    def test_non_finite_custom_hamiltonian_is_named(self, tmp_path, capsys):
        drive = tmp_path / "drive.json"
        drive.write_text(json.dumps({
            "t_f": 1.0,
            "n_steps": 4,
            "h_initial": [[0.0, 0.0], [0.0, 1.0]],
            "h_final": [[0.5, math.nan], [math.nan, 1.5]],
        }))
        out = tmp_path / "o"
        argv = ["jarzynski", "--scenario", "custom", "--schedule-file", str(drive),
                "--samples", "10", "--output", str(out)]
        assert main(argv) == 2
        message = "operator has non-finite entries"
        assert message in capsys.readouterr().err
        report = read_json(out / "jarzynski_report.json")
        assert report["passed"] is False
        assert report["error"] == {"type": "ValueError", "message": message}
        assert not (out / "work_samples.csv").exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--samples", "0"], "ValueError"),
            (["--config", str(CONFIGS / "jarzynski_driven.cfg"), "--beta", "700"], "OverflowError"),
            (["--samples", "10", "--format", "json", "--delta-f", "inf"], "ValueError"),
            (["--samples", "10", "--delta-f", "-1000"], "OverflowError"),
            (["--samples", "10", "--seed", "-1"], "ValueError"),
            (["--samples", "10", "--seed", "-1", "--format", "json"], "ValueError"),
            (["--samples", "10", "--seed", str(2**64)], "ValueError"),
            (["--samples", "10", "--seed", str(2**64), "--format", "json"], "ValueError"),
        ],
    )
    def test_jarzynski_domain_error_writes_no_data_file(self, tmp_path, argv, error):
        out = tmp_path / "o"
        assert main(["jarzynski", *argv, "--output", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["jarzynski_report.json"]
        assert read_json(out / "jarzynski_report.json")["error"]["type"] == error

    @pytest.mark.parametrize(
        "config, argv, error, message",
        [
            ("policy_outcome_floor = 0.3\nsamples = 50\n", [], "SchemeConstraintError",
             "run 3 drew initial energy sector 1 with probability 0.119203, "
             "at or below outcome_floor 0.3"),
            ("", ["--samples", "10", "--seed", "-1"], "ValueError",
             "seed must be an integer in [0, 2**64), got -1"),
        ],
        ids=["pruned-branch", "negative-seed"],
    )
    def test_scheme_domain_error_writes_no_data_file(
        self, tmp_path, config, argv, error, message
    ):
        cfg = tmp_path / "scheme.cfg"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert main(["scheme", "--config", str(cfg), *argv, "--output", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["scheme_summary.json"]
        report = read_json(out / "scheme_summary.json")
        assert report["error"]["type"] == error
        assert report["error"]["message"].startswith(message)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_named(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        argv = ["jarzynski", "--samples", "10", "--seed", seed, "--output", str(out)]
        assert main(argv) == 2
        message = f"seed must be an integer in [0, 2**64), got {seed}"
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        report = read_json(out / "jarzynski_report.json")
        assert report["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_scheme_seed_out_of_range_fails_before_any_build(
        self, tmp_path, capsys, monkeypatch, seed
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("context built for an invalid seed")

        monkeypatch.setattr(scheme, "build_context", unreachable)
        monkeypatch.setattr(scheme, "_BranchTables", unreachable)
        out = tmp_path / "o"
        assert main(["scheme", "--samples", "10", "--seed", seed, "--output", str(out)]) == 2
        message = f"seed must be an integer in [0, 2**64), got {seed}"
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert read_json(out / "scheme_summary.json")["error"] == {
            "type": "ValueError", "message": message,
        }

    def test_relaxation_domain_error_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["relaxation", "--steps", "0", "--output", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert [p.name for p in out.iterdir()] == ["relaxation_summary.json"]

    @pytest.mark.parametrize(
        "error",
        [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
        ids=lambda c: c.__name__,
    )
    def test_each_package_error_exits_2_with_a_failure_summary(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def raise_it(*args):
            raise error("raised inside the command")

        monkeypatch.setitem(cli._DESCRIPTION_MAP, "direct", raise_it)
        out = tmp_path / "o"
        assert main(["relaxation", "--description", "direct", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {error.__name__}: raised inside the command\n"
        )
        assert read_json(out / "relaxation_summary.json") == {
            "command": "relaxation",
            "passed": False,
            "error": {"type": error.__name__, "message": "raised inside the command"},
        }

    def test_overflow_writes_failure_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["jarzynski", "--samples", "10", "--beta", "1e300", "--output", str(out)]
        assert main(argv) == 2
        assert "OverflowError" in capsys.readouterr().err
        report = read_json(out / "jarzynski_report.json")
        assert report["passed"] is False
        assert report["error"]["type"] == "OverflowError"


class TestMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_jarzynski_traced_peak_grows_at_most_40_bytes_per_sample(self, tmp_path, fmt):
        """The run keeps the float64 work column whole (8 B per sample) and
        holds the other columns and the row text one stream block at a time."""

        def traced_peak(n: int) -> int:
            argv = ["jarzynski", "--scenario", "driven-qubit", "--samples", str(n),
                    "--format", fmt, "--output", str(tmp_path / str(n))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 40_960, 163_840
        per_sample = (traced_peak(large) - traced_peak(small)) / (large - small)
        assert per_sample <= 40.0

    def test_scheme_traced_peak_grows_at_most_100_bytes_per_run(self, tmp_path):
        """The run keeps the drawn branch codes (int64) and five float64
        columns whole (48 B per run) and holds the other columns and the row
        text one stream block at a time."""

        def traced_peak(n: int) -> int:
            argv = ["scheme", "--samples", str(n), "--seed", "7",
                    "--output", str(tmp_path / str(n))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 40_960, 163_840
        per_run = (traced_peak(large) - traced_peak(small)) / (large - small)
        assert per_run <= 100.0


class TestReproducibility:
    def test_repeat_runs_yield_identical_bytes(self, tmp_path):
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(
                ["scheme", "--samples", "6000", "--seed", "11", "--output", str(out)]
            ) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(meterwork.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = (
            "import sys, meterwork.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.strip() == "[]"

    def test_config_runs_leave_numpy_random_out(self, tmp_path):
        src = str(Path(meterwork.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        runs = [
            [command, "--config", str(CONFIGS / cfg), "--output", str(tmp_path / command)]
            for command, cfg in [("scheme", "scheme_default.cfg"),
                                 ("jarzynski", "jarzynski_driven.cfg")]
        ]
        code = (
            "import json, sys; from meterwork import cli; "
            f"codes = [cli.main(argv) for argv in {runs!r}]; "
            "print(json.dumps([codes, [m for m in ('numpy.random', 'secrets', 'hashlib') "
            "if m in sys.modules]]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [0, 0]
        assert (tmp_path / "scheme" / "scheme_records.jsonl").exists()
        assert (tmp_path / "jarzynski" / "work_samples.csv").exists()
        assert loaded == []
