"""One workload invocation, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/child.py WORKLOAD SEED OUTDIR RESULT TRACE

Times the cold package import (``setup_s``) and the workload body after it
(``compute_s``), collects the verdicts the body reports, and for the
library workload digests the drawn outcome and work arrays. With TRACE=1
it wraps the package's public functions first (see spans.py) and adds the
recorded spans to RESULT. Exit status is the workload's: 0 iff the program
reported success.
"""

from __future__ import annotations

import sys
import time

# Only `sys` and `time` are imported before the timed import, so the
# package pays for every other module it loads.


# CLI workloads: subcommand and config file
CLI = {
    "tpm-sampling": ("jarzynski", "jarzynski_driven.cfg"),
    "scheme-protocol": ("scheme", "scheme_default.cfg"),
}


def cli_workload(workload: str, seed: int, outdir: Path, checkout: Path):
    import meterwork.cli

    command, config = CLI[workload]
    argv = [command, "--config", str(checkout / "configs" / config), "--seed", str(seed),
            "--output", str(outdir)]
    return meterwork.cli.main(argv)


def _record_arrays(records) -> str:
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    h.update(np.array([r.tpm_initial[0] for r in records], dtype=np.int64).tobytes())
    h.update(np.array([r.event_outcome for r in records], dtype=np.int64).tobytes())
    h.update(np.array([r.tpm_final[0] for r in records], dtype=np.int64).tobytes())
    for field in ("work_drive", "work_total"):
        h.update(np.array([getattr(r, field) for r in records], dtype=np.float64).tobytes())
    return h.hexdigest()


def wide_pointer(seed: int):
    """Total dimension 256: both pointers on 8 grid points."""
    from meterwork import PointerModel, SchemeConfig, run_scheme, run_single
    from meterwork import verify_unitary_roundtrips
    from meterwork.scheme import build_context
    from meterwork.streams import stream_generator

    config = SchemeConfig(
        n_samples=1000, seed=seed, nsm_pointer=PointerModel(8), event_pointer=PointerModel(8)
    )
    result = run_scheme(config)
    roundtrips = verify_unitary_roundtrips(config, seed)
    ctx = build_context(config)
    rng = stream_generator(seed, 0)
    stepwise = [run_single(ctx, rng, keep_states=False, draw_id=k) for k in range(4)]

    # the stepwise path draws from stream 0 exactly as the table path does
    same = [
        (s.tpm_initial, s.event_outcome, s.tpm_final, s.work_drive, s.work_total)
        == (r.tpm_initial, r.event_outcome, r.tpm_final, r.work_drive, r.work_total)
        for s, r in zip(stepwise, result.records)
    ]
    verdicts = {
        "original_passed": result.original_report.passed,
        "modified_passed": result.modified_report.passed,
        "roundtrips_passed": roundtrips.all_passed,
        "stepwise_matches_tables": all(same),
    }
    digests = {
        "scheme_records": _record_arrays(result.records),
        "stepwise_records": _record_arrays(stepwise),
    }
    return 0, verdicts, digests


def main(argv: list[str]) -> int:
    workload, seed, outdir, result_path, trace = argv
    if workload != "wide-pointer" and workload not in CLI:
        raise SystemExit(f"unknown workload {workload!r}")

    t0 = time.perf_counter()
    import meterwork  # noqa: F401  (the timed cold import)
    import meterwork.cli  # noqa: F401  (what the `meterwork` command loads)

    setup_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    checkout = Path(__file__).resolve().parent.parent

    recorder = None
    if trace == "1":
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)

    t1 = time.perf_counter()
    if workload == "wide-pointer":
        rc, verdicts, digests = wide_pointer(int(seed))
    else:
        rc = cli_workload(workload, int(seed), Path(outdir), checkout)
        verdicts, digests = {}, {}
    t2 = time.perf_counter()

    result = {
        "rc": int(rc),
        "setup_s": setup_s,
        "compute_s": t2 - t1,
        "verdicts": verdicts,
        "digests": digests,
    }
    if recorder is not None:
        result["spans"] = [[n, s - t1, e - t1, p] for n, s, e, p in recorder.spans]
        result["counts"] = recorder.counts
        result["missing"] = recorder.missing
    Path(result_path).write_text(json.dumps(result))
    return int(rc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
