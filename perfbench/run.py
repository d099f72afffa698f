"""meterwork benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload tpm-sampling|scheme-protocol|wide-pointer|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is loaded from
``src/``. Each workload invocation is a fresh interpreter (perfbench/child.py)
started one at a time, in a closed loop, until ``--seconds`` have passed.
A fixed calibration kernel runs in this process before every invocation.

--trace 0 reports the end-to-end metrics (medians over the invocations):
  wall_s        spawn to exit of one invocation
  setup_s       cold `import meterwork` (and its CLI module) in the child
  compute_s     the workload body after the import
  peak_rss_mib  the child's peak resident memory (wait4 rusage)
--trace 1 alternates traced and untraced invocations and reports the
per-layer metrics (spans.py wraps the package's functions from outside).

Every invocation is gated: it fails if it exits non-zero, if a verdict it
reports is false, or if its data digests differ from reference.json (or,
for a seed without a stored reference, from the run's first invocation).
``failed_frac`` is failed/attempted. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import counted_names, span_stats, top_level_covered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench-tmp"

# the config seeds, used when --seed is not given
DEFAULT_SEEDS = {"tpm-sampling": 42, "scheme-protocol": 7, "wide-pointer": 7}

# Output gate: data files whose bytes must match the reference, and the
# report whose "passed" verdict must hold. Report files are not digested:
# they may gain run metadata (timings) without the data changing.
GATE = {
    "tpm-sampling": (("work_samples.csv",), "jarzynski_report.json"),
    "scheme-protocol": (("scheme_records.jsonl", "scheme_summary.csv"), "scheme_summary.json"),
    "wide-pointer": ((), None),
}

REQUIRED = (
    "src/meterwork/__init__.py",
    "configs/jarzynski_driven.cfg",
    "configs/scheme_default.cfg",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (span or counter name, statistic)
SPAN_METRICS = {
    "cli.write_csv.self_s": ("cli.write_csv", "self_s"),
    "cli.write_json.self_s": ("cli.write_json", "self_s"),
    "cli.cmd_jarzynski.self_s": ("cli.cmd_jarzynski", "self_s"),
    "cli.cmd_scheme.self_s": ("cli.cmd_scheme", "self_s"),
    "streams.map_streams.calls": ("streams.map_streams", "calls"),
    "streams.map_streams.self_s": ("streams.map_streams", "self_s"),
    "jarzynski.tpm_sample.self_s": ("jarzynski.tpm_sample", "self_s"),
    "jarzynski.jarzynski_exact.self_s": ("jarzynski.jarzynski_exact", "self_s"),
    "jarzynski.jarzynski_equality_check.self_s": ("jarzynski.jarzynski_equality_check", "self_s"),
    "jarzynski.modified_jarzynski_check.self_s": ("jarzynski.modified_jarzynski_check", "self_s"),
    "jarzynski.delta_F.calls": ("jarzynski.delta_F", "calls"),
    "scheme.run_scheme.self_s": ("scheme.run_scheme", "self_s"),
    "scheme.build_context.calls": ("scheme.build_context", "calls"),
    "scheme.build_context.self_s": ("scheme.build_context", "self_s"),
    "scheme.verify_unitary_roundtrips.self_s": ("scheme.verify_unitary_roundtrips", "self_s"),
    "scheme.run_single.calls": ("scheme.run_single", "calls"),
    "scheme.run_single.total_s": ("scheme.run_single", "total_s"),
    "measurement.event_read.calls": ("measurement.event_read", "calls"),
    "measurement.event_read.self_s": ("measurement.event_read", "self_s"),
    "measurement.born_probabilities.self_s": ("measurement.born_probabilities", "self_s"),
    "measurement.nonselective_measure.calls": ("measurement.nonselective_measure", "calls"),
    "superselection.dephase.calls": ("superselection.dephase", "calls"),
    "superselection.dephase.self_s": ("superselection.dephase", "self_s"),
    "superselection.energy_sectors.self_s": ("superselection.energy_sectors", "self_s"),
    "linalg.embed_operator.calls": ("linalg.embed_operator", "calls"),
    "linalg.embed_operator.self_s": ("linalg.embed_operator", "self_s"),
    "linalg.partial_trace.self_s": ("linalg.partial_trace", "self_s"),
}
COUNT_METRICS = {f"{name}.constructions": name for name in counted_names()}
OTHER_METRICS = {
    "cli.output_bytes": "B",
    "measurement.dephase_per_read": "ratio",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.meterwork_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "host.calibration_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {
        name: ("count" if stat == "calls" else "s") for name, (_, stat) in SPAN_METRICS.items()
    }
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(OTHER_METRICS)
    return units


MIN_INVOCATIONS = 3  # per workload, so that quartiles exist
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------- environment


# Unset in every child: the default single sampling worker is measured, and
# the package's bytecode is cached as it is for an installed package.
UNSET_IN_CHILD = ("METERWORK_THREADS", "PYTHONDONTWRITEBYTECODE")


def child_env(tmp: Path) -> dict[str, str]:
    """The caller's environment with the package on the path, UNSET_IN_CHILD
    removed and temporary files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_IN_CHILD}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(tmp)
    return env


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "unset_in_child": list(UNSET_IN_CHILD),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- measuring


def calibrate() -> float:
    """A fixed pure-Python and numpy kernel; its time tracks the host's
    phase. It normalises nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(16):
        a = a @ a.T
        a /= np.abs(a).max()
    return time.perf_counter() - t0


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def inspect_outputs(workload: str, out: Path) -> tuple[dict, dict, int]:
    """Digests of the gated data files, the report verdict, and the total
    bytes written, for the files a CLI workload left in `out`."""
    files, report = GATE[workload]
    digests = {name: _sha256(out / name) for name in files}
    verdicts = {}
    if report is not None:
        path = out / report
        passed = path.is_file() and json.loads(path.read_text()).get("passed") is True
        verdicts[f"{report}:passed"] = passed
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0
    return digests, verdicts, size


def invoke(workload: str, seed: int, trace: bool, tmp: Path) -> dict:
    """Run one workload invocation in a fresh interpreter and collect its
    timings, memory, verdicts and output digests. Its files are removed."""
    inv = Path(tempfile.mkdtemp(prefix="inv-", dir=tmp))
    out, result_path = inv / "out", inv / "result.json"
    argv = [sys.executable, str(CHILD), workload, str(seed), str(out), str(result_path),
            "1" if trace else "0"]
    try:
        with open(inv / "stdout", "wb") as so, open(inv / "stderr", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=inv, env=child_env(tmp), stdout=so, stderr=se)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        rec: dict = {
            "rc": proc.returncode,
            "wall_s": wall,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "verdicts": {},
            "digests": {},
        }
        if result_path.is_file():
            rec.update(json.loads(result_path.read_text()))
        digests, verdicts, rec["output_bytes"] = inspect_outputs(workload, out)
        rec["digests"].update(digests)
        rec["verdicts"].update(verdicts)
        if proc.returncode != 0 or "compute_s" not in rec:
            rec["stderr_tail"] = (inv / "stderr").read_text(errors="replace")[-2000:]
        return rec
    finally:
        shutil.rmtree(inv, ignore_errors=True)


def import_times(tmp: Path) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and meterwork, from
    `python -X importtime -c "import meterwork"`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import meterwork"],
        cwd=tmp, env=child_env(tmp), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return parse_importtime(proc.stderr, ("numpy", "scipy", "meterwork"))


def parse_importtime(text: str, roots) -> dict[str, float]:
    """Sum the cumulative time of each root package's outermost imports.

    -X importtime prints a module after the modules it imported, indented
    two spaces per nesting level; read in reverse, the lines are in
    pre-order, so a stack of (depth, root) gives each line's ancestors.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip().split(".")[0], int(parts[1])))
    totals = {root: 0.0 for root in roots}
    stack: list[tuple[int, str]] = []
    for depth, root, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if root in totals and all(r != root for _d, r in stack):
            totals[root] += cumulative_us * 1e-6
        stack.append((depth, root))
    return totals


# ---------------------------------------------------------------- gating


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


class Gate:
    """Decides whether one invocation failed, for one workload and seed."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.expected = reference.get(workload, {}).get(str(seed))
        self.stored = self.expected is not None

    def failures(self, rec: dict) -> list[str]:
        why = []
        if rec["rc"] != 0:
            why.append(f"exit status {rec['rc']}")
        if "compute_s" not in rec:
            why.append("no result from the child")
        why += [f"verdict {k} is false" for k, v in rec["verdicts"].items() if v is not True]
        if self.expected is None and "compute_s" in rec:
            self.expected = dict(rec["digests"])
        if self.expected is not None and rec["digests"] != self.expected:
            source = "reference" if self.stored else "run's first invocation"
            why.append(f"data digests differ from the {source}")
        return why


# ---------------------------------------------------------------- statistics


def summary(values) -> dict[str, float]:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_values(rec: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    stats = span_stats(rec["spans"])
    values = {
        metric: float(stats.get(span, {}).get(stat, 0))
        for metric, (span, stat) in SPAN_METRICS.items()
    }
    counts = rec.get("counts", {})
    values.update({metric: float(counts.get(name, 0)) for metric, name in COUNT_METRICS.items()})
    reads = stats.get("measurement.event_read", {}).get("calls", 0)
    dephases = stats.get("superselection.dephase", {}).get("calls", 0)
    values["measurement.dephase_per_read"] = dephases / reads if reads else 0.0
    values["cli.output_bytes"] = float(rec["output_bytes"])
    values["trace.unattributed_s"] = rec["compute_s"] - top_level_covered(
        rec["spans"], 0.0, rec["compute_s"]
    )
    return values


# ---------------------------------------------------------------- the run


class WorkloadRun:
    """Invocations of one workload at one seed, with their gate verdicts."""

    def __init__(self, workload: str, seed: int, trace: bool, reference: dict):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.gate = Gate(workload, seed, reference)
        self.plain: list[dict] = []  # untraced invocations
        self.traced: list[dict] = []
        self.imports: list[dict[str, float]] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failure_notes: list[str] = []

    def _run(self, trace: bool, tmp: Path) -> None:
        rec = invoke(self.workload, self.seed, trace, tmp)
        self.attempted += 1
        why = self.gate.failures(rec)
        if why:
            self.failed += 1
            note = f"{self.workload} seed={self.seed} invocation {self.attempted}: "
            note += "; ".join(why)
            if "stderr_tail" in rec:
                note += "\n" + rec["stderr_tail"]
            self.failure_notes.append(note)
        if "compute_s" in rec:
            (self.traced if trace else self.plain).append(rec)

    def step(self, tmp: Path) -> None:
        """One iteration: calibration, then the invocations of this mode."""
        self.calibration.append(calibrate())
        if not self.trace:
            self._run(False, tmp)
            return
        order = (True, False) if len(self.calibration) % 2 else (False, True)
        for trace in order:
            self._run(trace, tmp)
        self.imports.append(import_times(tmp))

    def iterations(self) -> int:
        return len(self.calibration)

    @property
    def min_iterations(self) -> int:
        return 2 if self.trace else MIN_INVOCATIONS

    def end_to_end(self) -> dict[str, dict]:
        return {name: summary([r[name] for r in self.plain]) for name in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        rows = [layer_values(r) for r in self.traced]
        values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        for root in ("numpy", "scipy", "meterwork"):
            values[f"import.{root}_s"] = statistics.median(i[root] for i in self.imports)
        values["trace.overhead_s"] = statistics.median(
            r["compute_s"] for r in self.traced
        ) - statistics.median(r["compute_s"] for r in self.plain)
        values["host.calibration_s"] = statistics.median(self.calibration)
        return values

    def usable(self) -> bool:
        return bool(self.plain) and (not self.trace or bool(self.traced))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(run: WorkloadRun) -> list[str]:
    lines = [f"workload {run.workload} seed={run.seed} trace={int(run.trace)} "
             f"attempted={run.attempted} failed={run.failed} "
             f"(reference digests: {'stored' if run.gate.stored else 'first invocation'})"]
    for name, stats in run.end_to_end().items():
        lines.append(
            f"  {name:<14} {_fmt(stats['median']):>12} {END_TO_END[name]:<6}"
            f" q1={_fmt(stats['q1'])} q3={_fmt(stats['q3'])} n={stats['n']}"
        )
    lines.append(f"  {'failed_frac':<14} {_fmt(run.failed / run.attempted):>12} {'ratio':<6}"
                 f" ({run.failed}/{run.attempted})")
    if not run.trace:
        cal = summary(run.calibration)
        lines.append(f"  {'host.calibration_s':<14} {_fmt(cal['median'])} s q1={_fmt(cal['q1'])}"
                     f" q3={_fmt(cal['q3'])} n={cal['n']}")
    else:
        units = per_layer_units()
        for name, value in run.per_layer().items():
            lines.append(f"  {name:<44} {_fmt(value):>12} {units[name]}")
        missing = sorted({m for r in run.traced for m in r.get("missing", [])})
        if missing:
            lines.append("  not found in the package (read as zero): " + ", ".join(missing))
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*DEFAULT_SEEDS, "all"))
    parser.add_argument("--seed", type=int, help="workload seed (default: the config seed)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"error: not a meterwork checkout (missing {', '.join(absent)}) at {ROOT}",
              file=sys.stderr)
        return 2
    names = list(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    reference = load_reference()
    runs = [
        WorkloadRun(w, DEFAULT_SEEDS[w] if args.seed is None else args.seed, bool(args.trace),
                    reference)
        for w in names
    ]
    env = environment()

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        # byte-compile and page in the package before anything is timed
        subprocess.run([sys.executable, "-c", "import meterwork.cli"], cwd=tmp,
                       env=child_env(tmp), capture_output=True, timeout=CHILD_TIMEOUT_S)
        start = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            for run in runs:  # interleaved, one invocation at a time
                run.step(tmp)
            durations.append(time.perf_counter() - t0)
            # stop when the next iteration would end more than half of it
            # past the deadline, so that a run lasts about --seconds
            ends = time.perf_counter() - start + statistics.median(durations) / 2
            if ends >= args.seconds and all(r.iterations() >= r.min_iterations for r in runs):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    for run in runs:
        for note in run.failure_notes:
            print("FAILED " + note, file=sys.stderr)
    if not all(r.usable() for r in runs):
        print("error: no invocation produced timings", file=sys.stderr)
        return 3

    print("env " + json.dumps(env))
    for run in runs:
        print("\n".join(report(run)))

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {}
    for run in runs:
        prefix = f"{run.workload}." if len(runs) > 1 else ""
        if run.trace:
            units = per_layer_units()
            values = run.per_layer()
            metrics.update({prefix + k: {"value": values[k], "unit": units[k]} for k in units})
        else:
            e2e = run.end_to_end()
            metrics.update({prefix + k: {"value": e2e[k]["median"], "unit": u}
                            for k, u in END_TO_END.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
