"""End-to-end benchmark of the treeskew CLI.

Usage (from the repository root):

    python3 bench/run.py --workload decay-exact --seed 1 --seconds 30 --trace 0

Each run repeats whole rounds of its workload's operations for about
``--seconds`` seconds.  Every CLI process is started as a user starts it,
``python -m treeskew ...`` with ``src`` on the path and one BLAS thread,
and is timed from spawn to exit.  Its CPU time and peak RSS come from
``os.wait4``.  Every output is checked by ``checks.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced round (each timed command under ``trace_cli.py``) and a few
``-X importtime`` imports, and prints the per-layer metrics.  Spans,
counts and per-round figures go to ``bench/results/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  When the program cannot be
imported from ``src/``, the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_WARMUP_SAMPLES = 3  # set-up samples taken before the first round; one more per round
IMPORTTIME_SAMPLES = 5
PROCESS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0

# (metric, traced name, field, unit, better); "self_ns" is duration minus child spans.
PER_LAYER = [
    ("words.shell_s", "words.shell", "total_ns", "s", "lower"),
    ("words.word_checks", "words.word_checks", "calls", "count", "lower"),
    ("words.geodesic_s", "words.geodesic", "total_ns", "s", "lower"),
    ("words.distance_calls", "words.distance", "calls", "count", "lower"),
    ("words.distance_s", "words.distance", "total_ns", "s", "lower"),
    ("rng.prf_uniform_array_s", "rng.prf_uniform_array", "total_ns", "s", "lower"),
    ("rng.sample_seeds_array_s", "rng.sample_seeds_array", "total_ns", "s", "lower"),
    ("rng.prf_evals", "rng.prf_uniform_array", "elements", "count", "lower"),
    ("orientation.cocycle_samples_s", "orientation.cocycle_samples", "total_ns", "s", "lower"),
    ("orientation.cocycle_samples_peak_mb", "orientation.cocycle_samples", "peak_mb", "MB", "lower"),
    ("orientation.path_sum_law_calls", "orientation.path_sum_law", "calls", "count", "lower"),
    ("orientation.path_sum_law_s", "orientation.path_sum_law", "total_ns", "s", "lower"),
    ("gaussian.gram_matrix_calls", "gaussian.gram_matrix", "calls", "count", "lower"),
    ("gaussian.gram_matrix_s", "gaussian.gram_matrix", "total_ns", "s", "lower"),
    ("gaussian.sample_matrix_s", "gaussian.sample_matrix", "total_ns", "s", "lower"),
    ("gaussian.sample_matrix_peak_mb", "gaussian.sample_matrix", "peak_mb", "MB", "lower"),
    ("profiles.correlation_calls", "profiles.correlation", "calls", "count", "lower"),
    ("profiles.correlation_s", "profiles.correlation", "total_ns", "s", "lower"),
    ("profiles.correlation_array_s", "profiles.correlation_array", "total_ns", "s", "lower"),
    ("profiles.gaussian_mean_s", "profiles.gaussian_mean", "total_ns", "s", "lower"),
    ("numerics.adaptive_simpson_calls", "numerics.adaptive_simpson", "calls", "count", "lower"),
    ("numerics.integrand_evals", "numerics.adaptive_simpson", "integrand_evals", "count", "lower"),
    ("numerics.adaptive_simpson_s", "numerics.adaptive_simpson", "total_ns", "s", "lower"),
    ("koopman.coefficient_calls", "koopman.coefficient", "calls", "count", "lower"),
    ("koopman.coefficient_self_s", "koopman.coefficient", "self_ns", "s", "lower"),
    ("koopman.decay_sweep_self_s", "koopman.decay_sweep", "self_ns", "s", "lower"),
    ("koopman.almost_invariant_sweep_s", "koopman.almost_invariant_sweep", "total_ns", "s", "lower"),
    ("koopman.emit_csv_s", "koopman.emit_csv", "total_ns", "s", "lower"),
    ("koopman.csv_rows", "koopman.emit_csv", "rows", "count", "higher"),
    ("cli.cmd_gram_self_s", "cli.cmd_gram", "self_ns", "s", "lower"),
    ("cli.cmd_hs_self_s", "cli.cmd_hs", "self_ns", "s", "lower"),
    ("hs.random_unitary_s", "hs.random_unitary", "total_ns", "s", "lower"),
    ("hs.projection_defect_s", "hs.projection_defect", "total_ns", "s", "lower"),
    ("hs.projection_defect_formula_s", "hs.projection_defect_formula", "total_ns", "s", "lower"),
]


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> dict:
    """Run one process to completion; wall time, CPU time and peak RSS from ``wait4``."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def check_program() -> None:
    """Import the CLI once from ``src`` (this also fills the bytecode cache)."""
    if not (SRC / "treeskew" / "cli.py").is_file():
        raise SetupError(f"no treeskew sources under {SRC}")
    probe = "import treeskew.cli, sys; sys.stdout.write(treeskew.cli.__file__)"
    out, err = RESULTS / f"probe-{os.getpid()}.out", RESULTS / f"probe-{os.getpid()}.err"
    result = spawn([sys.executable, "-c", probe], out, err)
    where = out.read_text()
    if result["code"] != 0 or not Path(where).resolve().is_relative_to(SRC):
        raise SetupError(f"cannot import treeskew.cli from {SRC}: {err.read_text()[-500:]}")


def measure_setup() -> float:
    """Process start plus ``import treeskew.cli``, with no work done."""
    tmp = RESULTS / f"setup-{os.getpid()}"
    return spawn([sys.executable, "-c", "import treeskew.cli"], tmp, tmp)["wall_s"]


def import_times() -> dict:
    """``-X importtime``: numpy's cumulative time and treeskew's own module time, in s."""
    out = RESULTS / f"importtime-{os.getpid()}"
    spawn([sys.executable, "-X", "importtime", "-c", "import treeskew.cli"], out, out)
    numpy_us = treeskew_us = 0
    for line in out.read_text().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)$", line)
        if m and m[3] == "numpy":
            numpy_us = int(m[2])
        elif m and m[3].split(".")[0] == "treeskew":
            treeskew_us += int(m[1])
    return {"import.numpy_s": numpy_us * 1e-6, "import.treeskew_s": treeskew_us * 1e-6}


class Runner:
    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.verdicts: dict[tuple, list] = {}  # (op, output digests) -> problems
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.reported: set[str] = set()

    def run_round(self, trace_dir: Path | None = None) -> list[dict]:
        """Run every operation once; return the measurements of the timed commands."""
        timed = []
        tag = f"{os.getpid()}"
        for k, op in enumerate(self.workload.operations):
            outputs, problems = [], []
            for c, cmd in enumerate(op.commands):
                out = RESULTS / f"out-{tag}-{k}-{c}.csv"
                err = RESULTS / f"err-{tag}-{k}-{c}.txt"
                argv = [sys.executable, "-m", "treeskew", *cmd.args]
                if trace_dir is not None and cmd.timed:
                    spans = trace_dir / f"{k}-{c}.json"
                    argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), "--", *cmd.args]
                result = spawn(argv, out, err)
                data = out.read_bytes()
                outputs.append(data)
                if result["code"] != 0:
                    problems.append(("exit", f"{' '.join(cmd.args)} exited {result['code']}: "
                                             f"{err.read_text()[-300:]}"))
                if cmd.timed:
                    result["rows"] = max(data.count(b"\n") - 1, 0)
                    result["command"] = " ".join(cmd.args)
                    timed.append(result)
            if not problems:
                key = (k, *(hashlib.sha256(d).hexdigest() for d in outputs))
                if key not in self.verdicts:
                    self.verdicts[key] = op.check(outputs)
                problems = self.verdicts[key]
            self.attempted += 1
            if problems:
                self.failed += 1
                for tag_name, message in problems:
                    if tag_name != op.known_fault:
                        self.unexpected.append(f"{op.name}: {tag_name}: {message}")
                    if op.name not in self.reported:
                        print(f"[{self.workload.name}] {op.name} FAILED ({tag_name}): {message}",
                              file=sys.stderr)
                self.reported.add(op.name)
        return timed


def summarize(rounds: list[list[dict]]) -> dict:
    """Medians over rounds of each round's total wall and CPU time and its largest RSS."""
    wall = statistics.median(sum(c["wall_s"] for c in r) for r in rounds)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(sum(c["cpu_s"] for c in r) for r in rounds),
        "peak_rss_mb": statistics.median(max(c["rss_mb"] for c in r) for r in rounds),
        "rows_per_s": sum(c["rows"] for c in rounds[0]) / wall,
    }


def trace_round(runner: Runner, untraced_wall: float) -> dict:
    trace_dir = RESULTS / f"trace-{runner.workload.name}-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    timed = runner.run_round(trace_dir)
    traced_wall = sum(r["wall_s"] for r in timed)
    totals: dict[str, dict] = {}
    absent: set[str] = set()
    commands = []
    for path in sorted(trace_dir.glob("*.json")):
        record = json.loads(path.read_text())
        commands.append(record)
        absent.update(record["absent"])
        for name, entry in record["totals"].items():
            merged = totals.setdefault(name, {})
            for key, value in entry.items():
                merged[key] = max(merged.get(key, 0), value) if key == "peak_mb" else merged.get(key, 0) + value
    imports = [import_times() for _ in range(IMPORTTIME_SAMPLES)]
    metrics = {name: {"value": statistics.median(s[name] for s in imports), "unit": "s"}
               for name in ("import.numpy_s", "import.treeskew_s")}
    for metric, source, key, unit, _ in PER_LAYER:
        value = totals.get(source, {}).get(key, 0)
        metrics[metric] = {"value": value * 1e-9 if key.endswith("_ns") else value, "unit": unit}
        if source in absent:
            metrics[metric]["absent"] = True
    overhead = 100.0 * (traced_wall / untraced_wall - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    summary = {
        "workload": runner.workload.name,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "absent": sorted(absent),
        "totals": totals,
        "metrics": metrics,
        "commands": commands,
    }
    (RESULTS / f"trace-{runner.workload.name}.json").write_text(json.dumps(summary, indent=1))
    for path in trace_dir.glob("*.json"):
        path.unlink()
    trace_dir.rmdir()
    return metrics


def cleanup() -> None:
    for pattern in ("out-", "err-", "probe-", "setup-", "importtime-"):
        for path in RESULTS.glob(f"{pattern}{os.getpid()}*"):
            path.unlink()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    RESULTS.mkdir(exist_ok=True)
    try:
        check_program()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        runner = Runner(workload)
        setup = [measure_setup() for _ in range(SETUP_WARMUP_SAMPLES)]
        rounds, durations = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            setup.append(measure_setup())
            rounds.append(runner.run_round())
            durations.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            # a traced run keeps two rounds' worth of time for its traced round
            rounds_left = 3 if args.trace else 1
            if elapsed + rounds_left * statistics.median(durations) > min(args.seconds, RUN_LIMIT_S):
                break
        metrics = summarize(rounds)
        metrics["setup_s"] = statistics.median(setup)
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "rounds": rounds, "setup_samples": setup, "metrics": metrics,
        }
        (RESULTS / f"run-{args.workload}.json").write_text(json.dumps(report, indent=1))
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "rows_per_s": "1/s"}
        printed = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        if args.trace:
            printed = trace_round(runner, metrics["wall_s"])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        cleanup()
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
