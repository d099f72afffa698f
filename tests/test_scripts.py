"""Smoke runs of the example scripts under scripts/, in-process with their
default arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# lines each script must print
EXPECTED_LINES = {
    "jarzynski_convergence.py": ("Monte Carlo error scaling (driven qubit, N = 200):",),
    "relaxation_portrait.py": (
        # at t = dt: direct weight 0, both other weights exp(-1), sigma 1 nat
        "  1.0000   0.000000     0.367879   0.367879    1.000000    1.000000",
        "plateau at dt=1.0: statistical rho = 0.36787944117144233 "
        "(exp(-1) = 0.36787944117144233), sigma = 1.0 nat",
    ),
    "scheme_ledger_audit.py": ("  conservation sum = +0.0",),
}


def test_every_script_is_listed():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(EXPECTED_LINES)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINES))
def test_script_exits_zero(name, monkeypatch, capsys):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    try:
        runpy.run_path(str(path), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    assert code in (0, None)
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in EXPECTED_LINES[name] if line not in printed] == []
