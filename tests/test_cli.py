import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meterwork
from helpers import reference_scheme_sums, write_reference_records
from meterwork import cli
from meterwork.cli import (
    load_config_file,
    main,
    write_csv,
    write_json,
    write_json_records,
)
from meterwork.jarzynski import DriveSchedule, tpm_sample
from meterwork.linalg import Operator
from meterwork.measurement import EntropyLedger
from meterwork.scheme import SchemeRunRecord, run_scheme

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
                          ("scheme", "format = json")],
    )
    def test_config_key_without_effect_is_unknown(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
        assert "unknown config key" in capsys.readouterr().err


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

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "o"
        main(["relaxation", "--output", str(out)])
        header = (out / "relaxation_poisson.csv").read_text().splitlines()[0]
        assert header == "t,rho,sigma"


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
    """Every SchemeResult that `meterwork scheme` computes, in order."""
    results = []

    def run_and_keep(*args, **kwargs):
        results.append(run_scheme(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_scheme", run_and_keep)
    return results


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
        (result,) = scheme_results
        write_reference_records(ref, result.records)
        for name in ("scheme_records.jsonl", "scheme_summary.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

        sums = reference_scheme_sums(result.records)
        assert [float(result.sigma_total).hex()] == [x.hex() for x in sums["sigma_totals"]]
        assert [(k, float(v).hex()) for k, v in result.ledger_totals.items()] == [
            (k, v.hex()) for k, v in sums["ledger_totals"].items()
        ]
        assert float(result.work_gap).hex() == sums["work_gap"].hex()

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
        (result,) = scheme_results
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
        write_csv(path, ["x", "k"], [floats, ints])
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
        write_json_records(tmp_path / "cols.json", ["x", "k"], [floats, ints])
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
        floats = np.tile(np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324], nans]), 300)
        assert cli._cells(floats[:1024])[0] == "%s"  # the block repeats
        path = tmp_path / "cells.csv"
        write_csv(path, ["x"], [floats])
        rows = path.read_text().splitlines()[1:]
        assert rows == [format(x, ".17g") for x in floats.tolist()]
        assert rows[:9] == ["-0", "0", "inf", "-inf", "4.9406564584124654e-324"] + ["nan"] * 4

    @pytest.mark.parametrize("distinct, spec", [(512, "%s"), (513, "%.17g")])
    def test_blocks_either_side_of_half_distinct_render_alike(self, tmp_path, distinct, spec):
        values = np.arange(distinct) / 7.0 - 20.0
        floats = np.resize(values, 2048)
        assert cli._cells(floats[:1024])[0] == spec
        path = tmp_path / "half.csv"
        write_csv(path, ["x"], [floats])
        rows = path.read_text().splitlines()[1:]
        assert rows == [format(x, ".17g") for x in floats.tolist()]

    def test_json_block_repeating_inf_stays_quoted(self, tmp_path):
        infs = np.resize([math.inf, 0.5], 3000)
        finite = np.resize([0.25, -0.0], 3000)
        path = tmp_path / "inf.json"
        write_json_records(path, ["x", "y"], [infs, finite])
        records = read_json(path)
        assert [r["x"] for r in records] == ["inf", 0.5] * 1500
        assert [r["y"] for r in records] == [0.25, -0.0] * 1500
        assert '"x": "inf",\n    "y": 0.25' in path.read_text()

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_tpm_columns_round_trip_bit_equal(self, tmp_path):
        h_i = Operator(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
        h_f = Operator(np.array([[0.3, 0.7], [0.7, -0.2]], dtype=complex), hermitian=True)
        samples = tpm_sample(DriveSchedule.quench(h_i, h_f), 1.0, 9000, seed=3)
        keys = ["initial_energy", "final_energy", "work", "stream_id", "draw_id"]
        path = tmp_path / "samples.csv"
        write_csv(path, keys, [getattr(samples, k) for k in keys])
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

    def test_overflow_writes_failure_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["jarzynski", "--samples", "10", "--beta", "1e300", "--output", str(out)]
        assert main(argv) == 2
        assert "OverflowError" in capsys.readouterr().err
        report = read_json(out / "jarzynski_report.json")
        assert report["passed"] is False
        assert report["error"]["type"] == "OverflowError"


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
