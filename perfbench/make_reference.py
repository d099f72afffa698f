"""Record the output-gate reference digests into perfbench/reference.json.

    python3 perfbench/make_reference.py [FIRST-LAST | SEED ...]

Run from the root of the checkout whose outputs are the reference. Each
workload runs once per seed, untraced. A seed is stored only if the
invocation exited 0 with every verdict true; seeds that fail are listed.
Seeds given here are added to (or replace) those already stored.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(words: list[str]) -> list[int]:
    seeds: list[int] = []
    for word in words:
        first, _, last = word.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv) or sorted(set(run.DEFAULT_SEEDS.values()))
    reference = run.load_reference()
    reference["commit"] = run.environment()["commit"]
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=run.SCRATCH))
    failed = []
    try:
        for workload in run.DEFAULT_SEEDS:
            for seed in seeds:
                rec = run.invoke(workload, seed, False, tmp)
                ok = rec["rc"] == 0 and "compute_s" in rec and all(
                    v is True for v in rec["verdicts"].values()
                )
                if ok:
                    reference.setdefault(workload, {})[str(seed)] = rec["digests"]
                else:
                    failed.append(f"{workload} seed={seed} rc={rec['rc']} {rec['verdicts']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload in run.DEFAULT_SEEDS:
        entries = reference.get(workload, {})
        reference[workload] = {k: entries[k] for k in sorted(entries, key=int)}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    for line in failed:
        print("not stored: " + line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
