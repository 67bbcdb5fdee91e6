"""Run one treeskew CLI command with spans recorded around its public functions.

Usage: python3 bench/trace_cli.py SPANS.json -- <treeskew arguments>

Wrappers are installed from outside the package: every binding of a traced
function in a ``treeskew`` module (including values of module-level dicts,
such as the CLI's command table) is replaced, and traced methods are
replaced on their class.  A traced name that does not exist is listed as
absent.  Spans are kept in memory and written to SPANS.json when the
command ends, with per-name totals (calls, duration, self time) and counts.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
import tracemalloc

# (metric prefix, module, attribute path, extra measurement)
TARGETS = [
    ("words.shell", "treeskew.words", "shell", None),
    ("words.word_checks", "treeskew.words", "Word.__post_init__", "count-only"),
    ("words.geodesic", "treeskew.words", "geodesic", None),
    ("words.distance", "treeskew.words", "distance", None),
    ("rng.prf_uniform_array", "treeskew.rng", "prf_uniform_array", "elements"),
    ("rng.sample_seeds_array", "treeskew.rng", "sample_seeds_array", None),
    ("orientation.cocycle_samples", "treeskew.orientation", "cocycle_samples", "peak"),
    ("orientation.path_sum_law", "treeskew.orientation", "path_sum_law", None),
    ("gaussian.gram_matrix", "treeskew.gaussian", "gram_matrix", None),
    ("gaussian.sample_matrix", "treeskew.gaussian", "GaussianSystem.sample_matrix", "peak"),
    ("profiles.correlation", "treeskew.profiles", "ProfileVector.correlation", None),
    ("profiles.correlation_array", "treeskew.profiles", "ProfileVector.correlation_array", None),
    ("profiles.gaussian_mean", "treeskew.profiles", "ProfileVector.gaussian_mean", None),
    ("numerics.adaptive_simpson", "treeskew.numerics", "adaptive_simpson", "integrand"),
    ("koopman.coefficient", "treeskew.koopman", "coefficient", None),
    ("koopman.decay_sweep", "treeskew.koopman", "decay_sweep", None),
    ("koopman.almost_invariant_sweep", "treeskew.koopman", "almost_invariant_sweep", None),
    ("koopman.emit_csv", "treeskew.koopman", "emit_csv", "csv-rows"),
    ("cli.cmd_gram", "treeskew.cli", "cmd_gram", None),
    ("cli.cmd_hs", "treeskew.cli", "cmd_hs", None),
    ("hs.random_unitary", "treeskew.hs", "random_unitary", None),
    ("hs.projection_defect", "treeskew.hs", "projection_defect", None),
    ("hs.projection_defect_formula", "treeskew.hs", "projection_defect_formula", None),
]

# Full spans kept per name; totals and counts always cover every call.
SPAN_CAP = 2000


class Recorder:
    """Spans (id, name, start ns, end ns, parent id) and per-name totals."""

    def __init__(self):
        self.stack: list[list[int]] = []  # [span id, ns covered by child spans]
        self.spans: list[tuple] = []
        self.totals: dict[str, dict] = {}
        self.ids = itertools.count(1)

    def total(self, name: str) -> dict:
        return self.totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})


class _CountingFile:
    """File proxy that counts the newlines written through it."""

    def __init__(self, fh):
        self.fh, self.lines = fh, 0

    def write(self, text):
        self.lines += text.count("\n")
        return self.fh.write(text)


def make_wrapper(rec: Recorder, name: str, fn, extra):
    entry = rec.total(name)
    if extra == "count-only":
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)
        return counted

    stack, spans, ids, clock = rec.stack, rec.spans, rec.ids, time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counter = None
        if extra == "integrand" and args:
            inner = args[0]
            entry.setdefault("integrand_evals", 0)

            def integrand(x):
                entry["integrand_evals"] += 1
                return inner(x)
            args = (integrand,) + args[1:]
        elif extra == "csv-rows" and len(args) > 1 and hasattr(args[1], "write"):
            counter = _CountingFile(args[1])
            args = (args[0], counter) + args[2:]
        own_tracing = extra == "peak" and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        frame = [next(ids), 0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - frame[1]
            if entry["calls"] <= SPAN_CAP:
                spans.append((frame[0], name, start, end, stack[-1][0] if stack else None))
            if own_tracing:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                entry["peak_mb"] = max(entry.get("peak_mb", 0.0), peak)
        if extra == "elements":
            entry["elements"] = entry.get("elements", 0) + int(getattr(result, "size", 0))
        elif counter is not None:
            entry["rows"] = entry.get("rows", 0) + max(counter.lines - 1, 0)
        return result
    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every target; return the names that could not be found."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "treeskew"]
    absent = []
    for name, module_name, path, extra in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapper = make_wrapper(rec, name, original, extra)
        if outer:  # a method: replace it on its class
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
    return absent


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS.json -- <treeskew arguments>")
    import treeskew.cli

    rec = Recorder()
    absent = install(rec)
    try:
        code = treeskew.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"argv": argv, "absent": absent, "totals": rec.totals, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
