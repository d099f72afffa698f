"""Self-tests of the benchmark's own arithmetic and output gate.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types

import pytest

import run
import spans


def test_self_time_on_a_synthetic_span_tree():
    # A [0,10] -> B [1,4] -> D [2,3]; A -> C [5,6]; E [11,12] top level
    tree = [
        ["A", 0.0, 10.0, -1],
        ["B", 1.0, 4.0, 0],
        ["D", 2.0, 3.0, 1],
        ["C", 5.0, 6.0, 0],
        ["E", 11.0, 12.0, -1],
        ["C", 7.0, 7.5, 0],
    ]
    stats = spans.span_stats(tree)
    assert stats["A"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.0 - 0.5}
    assert stats["B"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert stats["D"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert stats["C"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert spans.top_level_covered(tree, 0.0, 13.0) == 11.0
    assert spans.top_level_covered(tree, 0.0, 10.5) == 10.0


def test_overlapping_children_are_subtracted_once():
    tree = [["A", 0.0, 10.0, -1], ["B", 1.0, 4.0, 0], ["B", 3.0, 6.0, 0], ["B", 9.0, 12.0, 0]]
    # children cover [1,6] and [9,10] inside A
    assert spans.span_stats(tree)["A"]["self_s"] == 10.0 - 5.0 - 1.0


def test_recorder_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(n, p) for n, _s, _e, p in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    stats = spans.span_stats(rec.spans)
    assert stats["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["inner"]["calls"] == 2


def test_rebind_reaches_imported_names_and_dispatch_tables():
    def original():
        return "original"

    fake = types.ModuleType("meterwork._perfbench_fake")
    fake.f = original
    fake.table = {"cmd": original, "other": len}
    sys.modules[fake.__name__] = fake
    try:
        spans._rebind(original, lambda: "wrapped")
    finally:
        del sys.modules[fake.__name__]
    assert fake.f() == "wrapped"
    assert fake.table["cmd"]() == "wrapped"
    assert fake.table["other"] is len


def _tpm_outputs(out, csv_text: str, passed: bool = True):
    out.mkdir(exist_ok=True)
    (out / "work_samples.csv").write_text(csv_text)
    (out / "jarzynski_report.json").write_text(json.dumps({"passed": passed}))


def _record(out, rc: int = 0) -> dict:
    digests, verdicts, size = run.inspect_outputs("tpm-sampling", out)
    return {"rc": rc, "compute_s": 1.0, "digests": digests, "verdicts": verdicts,
            "output_bytes": size}


def test_digest_gate_rejects_a_corrupted_output_file(tmp_path):
    out = tmp_path / "out"
    _tpm_outputs(out, "work\n0.5\n")
    reference = {"tpm-sampling": {"42": _record(out)["digests"]}}

    gate = run.Gate("tpm-sampling", 42, reference)
    assert gate.stored
    assert gate.failures(_record(out)) == []

    _tpm_outputs(out, "work\n0.6\n")
    assert gate.failures(_record(out)) == ["data digests differ from the reference"]


def test_gate_without_reference_compares_with_the_first_invocation(tmp_path):
    out = tmp_path / "out"
    gate = run.Gate("tpm-sampling", 12345, {})
    assert not gate.stored
    _tpm_outputs(out, "work\n0.5\n")
    assert gate.failures(_record(out)) == []
    assert gate.failures(_record(out)) == []
    _tpm_outputs(out, "work\n0.7\n")
    assert gate.failures(_record(out)) == ["data digests differ from the run's first invocation"]


@pytest.mark.parametrize(
    "rc, passed, missing, expected",
    [
        (1, True, False, ["exit status 1"]),
        (0, False, False, ["verdict jarzynski_report.json:passed is false"]),
        (0, True, True, ["verdict jarzynski_report.json:passed is false",
                         "data digests differ from the reference"]),
    ],
)
def test_gate_rejects_failed_runs(tmp_path, rc, passed, missing, expected):
    out = tmp_path / "out"
    _tpm_outputs(out, "work\n0.5\n")
    gate = run.Gate("tpm-sampling", 42, {"tpm-sampling": {"42": _record(out)["digests"]}})
    _tpm_outputs(out, "work\n0.5\n", passed=passed)
    if missing:
        for path in out.iterdir():
            path.unlink()
    assert gate.failures(_record(out, rc)) == expected


def test_parse_importtime_sums_outermost_imports_per_package():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |        150 |     numpy",
            "import time:        10 |         10 |       scipy._lib",
            "import time:        20 |         30 |     scipy.special",
            "import time:         5 |          5 |     meterwork.errors",
            "import time:        40 |        225 |   meterwork",
            "import time:         7 |          7 | json",
        ]
    )
    times = run.parse_importtime(text, ("numpy", "scipy", "meterwork"))
    assert times == pytest.approx({"numpy": 150e-6, "scipy": 30e-6, "meterwork": 225e-6})
