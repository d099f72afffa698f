"""Spans recorded from outside the package, and the arithmetic over them.

The traced child wraps public functions of ``meterwork`` after import. A
span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory and are written out once, when
the workload body has finished.

Nothing here changes the package's source: the wrappers are installed by
rebinding module attributes, in every ``meterwork`` module that bound the
original (the CLI imports names with ``from .x import f``), and in module
dicts such as the CLI's command table.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer metric prefix -> (module, names). The prefix is the module's short
# name, so `cli.write_csv` is meterwork.cli.write_csv.
TRACED = {
    "meterwork.cli": ("write_csv", "write_json", "cmd_jarzynski", "cmd_scheme"),
    "meterwork.streams": ("map_streams",),
    "meterwork.jarzynski": (
        "tpm_sample",
        "jarzynski_exact",
        "jarzynski_equality_check",
        "modified_jarzynski_check",
        "delta_F",
    ),
    "meterwork.scheme": (
        "run_scheme",
        "build_context",
        "verify_unitary_roundtrips",
        "run_single",
    ),
    "meterwork.measurement": ("event_read", "born_probabilities", "nonselective_measure"),
    "meterwork.superselection": ("dephase", "energy_sectors"),
    "meterwork.linalg": ("embed_operator", "partial_trace"),
}

# classes whose constructions are counted (no span: they are too many and
# too short for a span to mean anything)
COUNTED = {"meterwork.linalg": ("DensityMatrix", "ProjectorSet")}


class Recorder:
    """In-memory span list and construction counters for one process.

    The span stack is a plain list: the benchmark runs the package with its
    default single worker, so every wrapped call happens on one thread.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def count(self, name: str, init):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counts[name] += 1
            return init(*args, **kwargs)

        return counted


def _rebind(original, replacement) -> None:
    """Point every reference to `original` held by a meterwork module at
    `replacement`: module globals, and values of module-level dicts."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "meterwork" or modname.startswith("meterwork.")):
            continue
        names = vars(mod)
        for key, value in list(names.items()):
            if value is original:
                setattr(mod, key, replacement)
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement


def install(recorder: Recorder) -> None:
    """Wrap every TRACED function and count every COUNTED construction.

    A name that no longer exists is listed in ``recorder.missing`` and its
    metrics read zero, so a refactor that removes a function does not stop
    the traced run.
    """
    for modname, names in TRACED.items():
        mod = importlib.import_module(modname)
        short = modname.rsplit(".", 1)[1]
        for name in names:
            original = getattr(mod, name, None)
            if original is None:
                recorder.missing.append(f"{short}.{name}")
                continue
            _rebind(original, recorder.wrap(f"{short}.{name}", original))
    for modname, classes in COUNTED.items():
        mod = importlib.import_module(modname)
        short = modname.rsplit(".", 1)[1]
        for cls_name in classes:
            cls = getattr(mod, cls_name, None)
            if cls is None:
                recorder.missing.append(f"{short}.{cls_name}")
                continue
            cls.__init__ = recorder.count(f"{short}.{cls_name}", cls.__init__)


def counted_names() -> list[str]:
    return [
        f"{modname.rsplit('.', 1)[1]}.{cls}"
        for modname, classes in COUNTED.items()
        for cls in classes
    ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, total_s (sum of span durations) and self_s.

    Self time is a span's duration minus the part of its interval that its
    child spans cover. The wrapped functions do not recurse, so total_s
    counts no interval twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(idx, []), start, end)
    return stats


def top_level_covered(spans, lo: float, hi: float) -> float:
    """Time within [lo, hi] covered by spans that have no parent."""
    return _covered([(s, e) for _n, s, e, p in spans if p < 0], lo, hi)
