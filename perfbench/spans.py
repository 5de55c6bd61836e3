"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, in every package module that binds
it, by a wrapper that records (name, start, end, parent) in memory.
Nothing inside the package changes, so work the package hands to child
processes or threads would not show up here.
"""

from __future__ import annotations

import contextlib
import statistics
import time

TRACED = (
    "pgm.read_pgm",
    "imgproc.otsu_threshold",
    "imgproc.normalize_image",
    "imgproc.bilinear_resize",
    "features.shadow_features",
    "features.centroid_features",
    "features.longest_run_features",
    "features.extract_features",
    "features.write_features_csv",
    "features.read_features_csv",
    "mlp.train",
    "mlp.forward",
    "mlp.load_model",
    "evaluation.cross_validate",
    "evaluation.make_folds",
    "cli.load_corpus",
)

# Counts taken from a call's arguments and result, at the same boundary
# as its span: name -> (metric suffix, count function).
COUNTS = {
    # epochs x training samples, from the returned history
    "mlp.train": ("steps", lambda args, result: len(result[1]) * len(args[1])),
    "cli.load_corpus": ("skipped", lambda args, result: len(result[1])),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.p50_us"] = "us"
    for name, (suffix, _) in COUNTS.items():
        units[f"{name}.{suffix}"] = "count"
    units["mlp.train.us_per_step"] = "us"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Spans and counts per phase; a phase is traced only inside active()."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, e.g. "mlp"
        self.spans: dict[str, list] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def active(self, phase: str):
        """Trace every call made inside the block as part of phase."""
        spans = self.spans.setdefault(phase, [])
        counts = self.counts.setdefault(phase, {})
        patched = []
        for qualified in TRACED:
            module, attr = qualified.split(".")
            original = getattr(self.modules[module], attr)
            wrapper = self._wrap(qualified, original, spans, counts)
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        try:
            yield
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)

    def _wrap(self, name, fn, spans, counts):
        stack = self._stack
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count:
                key = f"{name}.{count[0]}"
                counts[key] = counts.get(key, 0) + count[1](args, result)
            return result

        return traced

    def summary(self, divisors: dict[str, int], overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics for one unit of work.

        A phase's totals are divided by its divisor (set-ups or rounds
        run), so calls, counts and self time describe one set-up plus
        one round. p50_us is the median span of the last phase that
        called the function.
        """
        values = {name: 0.0 for name in metric_units()}
        durations = {phase: {name: [] for name in TRACED} for phase in self.spans}
        for phase, spans in self.spans.items():
            n = divisors[phase]
            child = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            calls = dict.fromkeys(TRACED, 0)
            self_s = dict.fromkeys(TRACED, 0.0)
            for (name, start, end, _), inner in zip(spans, child):
                durations[phase][name].append(end - start)
                calls[name] += 1
                self_s[name] += end - start - inner
            for name in TRACED:
                values[f"{name}.calls"] += calls[name] / n
                values[f"{name}.self_ms"] += self_s[name] * 1e3 / n
            for key, total in self.counts[phase].items():
                values[key] += total / n
        for name in TRACED:
            # The rounds' spans when there are any: set-up calls such as
            # a warm-up on tiny inputs would skew the median.
            spent = [d[name] for d in durations.values() if d[name]]
            if spent:
                values[f"{name}.p50_us"] = statistics.median(spent[-1]) * 1e6
        train_us = sum(sum(d["mlp.train"]) for d in durations.values()) * 1e6
        steps = sum(self.counts[p].get("mlp.train.steps", 0) for p in self.counts)
        values["mlp.train.us_per_step"] = train_us / steps if steps else 0.0
        values["trace.overhead_pct"] = overhead_pct
        return values

    def dump(self) -> dict:
        """All spans by phase as [name, start, end, parent index], for
        writing out when the run ends."""
        return {phase: [list(span) for span in spans] for phase, spans in self.spans.items()}
