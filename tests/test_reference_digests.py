"""The benchmark's output gate, run in the suite.

`perfbench/reference.json` pins the sha256 of each benchmark workload's
data files per seed. These tests rerun one seed of each workload through
the benchmark's own entry points (`perfbench/child.py`) and compare, so a
change of output bytes fails here and not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((CHECKOUT / "perfbench" / "reference.json").read_text())


def _load_child():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", CHECKOUT / "perfbench" / "child.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


@pytest.mark.parametrize("workload, seed", [("tpm-sampling", 42), ("scheme-protocol", 7)])
def test_cli_workload_files_match_reference(tmp_path, workload, seed):
    assert child.cli_workload(workload, seed, tmp_path, CHECKOUT) == 0
    want = REFERENCE[workload][str(seed)]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


def test_wide_pointer_digests_match_reference():
    rc, verdicts, digests = child.wide_pointer(7)
    assert rc == 0
    assert all(v is True for v in verdicts.values()), verdicts
    assert digests == REFERENCE["wide-pointer"]["7"]
