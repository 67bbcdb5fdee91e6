import ast
import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treeskew

SUBMODULES = [
    f"treeskew.{info.name}"
    for info in pkgutil.iter_modules(treeskew.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", ["treeskew", *SUBMODULES])
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _trace_targets() -> list:
    """The bench tracer's ``TARGETS`` table, read from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "TARGETS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{source} assigns no TARGETS table")


def test_every_trace_target_resolves():
    # the tracer reports a name it cannot find as absent, so a renamed
    # function would silently drop its per-layer metric
    targets = _trace_targets()
    assert targets
    absent = []
    for metric, module_name, path, _ in targets:
        try:
            target = functools.reduce(getattr, path.split("."), importlib.import_module(module_name))
        except (ImportError, AttributeError):
            absent.append(metric)
            continue
        if not module_name.startswith("treeskew.") or not callable(target):
            absent.append(metric)
    assert not absent, f"trace targets that resolve to no function: {absent}"


def _probe(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout; return its stdout."""
    package_root = str(Path(treeskew.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


def test_package_root_imports_nothing():
    # the root holds only __version__, so importing it loads no submodule and no numpy
    probe = (
        "import sys, treeskew; "
        "print(sorted(m for m in sys.modules if m.startswith(('treeskew.', 'numpy'))))"
    )
    assert _probe(probe) == "[]\n"


EXACT_COMMANDS = [
    ["decay", "--system", "orientation", "--p", "0.7", "--method", "exact",
     "--max-radius", "4", "--shell-cap", "100"],
    ["decay", "--system", "gaussian", "--profile", "window:25", "--method", "exact",
     "--max-radius", "4", "--shell-cap", "100"],
    ["window", "--system", "orientation", "--p", "0.7"],
    ["window", "--system", "gaussian"],
    ["decay", "--system", "gaussian", "--profile", "cauchy", "--shell-cap", "2"],
]
MC_COMMAND = ["decay", "--method", "mc", "--samples", "1000", "--max-radius", "2",
              "--shell-cap", "2"]


def test_exact_work_never_runs_numpy(tmp_path):
    # numpy's own entry is a lazy stub until an array is used, and running its
    # __init__ loads its submodules, so no numpy.* module means numpy never ran
    probe = f"""
import sys
from treeskew.cli import main
out = sys.argv[1]
def numpy_ran():
    return any(m.startswith("numpy.") for m in sys.modules)
codes = [main(args + ["--out", f"{{out}}/{{i}}.csv"]) for i, args in enumerate({EXACT_COMMANDS!r})]
print(codes, numpy_ran())
print(main({MC_COMMAND!r} + ["--out", f"{{out}}/mc.csv"]), numpy_ran())
"""
    assert _probe(probe, str(tmp_path)) == f"{[0] * len(EXACT_COMMANDS)} False\n0 True\n"


def test_exact_work_never_loads_the_bench_or_the_selftest(tmp_path):
    # only the hs and selftest commands import treeskew.hs and treeskew.selftest
    probe = f"""
import sys
from treeskew.cli import main
out = sys.argv[1]
codes = [main(args + ["--out", f"{{out}}/{{i}}.csv"]) for i, args in enumerate({EXACT_COMMANDS[:3]!r})]
print(codes, sorted(m for m in ("treeskew.hs", "treeskew.selftest") if m in sys.modules))
"""
    assert _probe(probe, str(tmp_path)) == "[0, 0, 0] []\n"


# every command: decay exact and Monte Carlo on both systems, window, gram, hs, selftest
NORMAL_COMMANDS = [
    *EXACT_COMMANDS[:4],
    MC_COMMAND,
    ["decay", "--system", "gaussian", *MC_COMMAND[1:]],
    ["gram", "--max-radius", "2"],
    ["hs", "--samples", "1000"],
]


def test_no_command_imports_numpy_random(tmp_path):
    # every draw comes from the keyed PRF, so numpy's random package never loads
    probe = f"""
import contextlib, io, sys
from treeskew.cli import main
out = sys.argv[1]
codes = [main(args + ["--out", f"{{out}}/{{i}}.csv"]) for i, args in enumerate({NORMAL_COMMANDS!r})]
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["selftest"]))
print(codes, "numpy" in sys.modules, "treeskew.hs" in sys.modules, "numpy.random" in sys.modules)
"""
    assert _probe(probe, str(tmp_path)) == f"{[0] * (len(NORMAL_COMMANDS) + 1)} True True False\n"


def test_sources_never_name_numpy_random():
    # numpy stays the one runtime dependency, and its random package no source's
    pattern = re.compile(r"\b(?:np|numpy)\s*\.\s*random\b|from\s+numpy\s+import\b.*\brandom\b")
    sources = sorted(Path(treeskew.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    named = [f"{p.name}:{i}" for p in sources
             for i, line in enumerate(p.read_text().splitlines(), 1) if pattern.search(line)]
    assert named == []


@pytest.mark.parametrize(
    "probe",
    [
        "import treeskew.koopman, numpy; print(numpy.arange(3).sum() == 3)",
        "import numpy, treeskew._np; print(treeskew._np.np is numpy)",
        # a missing numpy still fails at import, naming numpy
        "import sys; sys.modules['numpy'] = None\n"
        "try:\n    import treeskew.koopman\n"
        "except ModuleNotFoundError as exc:\n    print(exc.name == 'numpy')",
    ],
    ids=["treeskew-first", "numpy-first", "numpy-missing"],
)
def test_numpy_interop(probe):
    assert _probe(probe) == "True\n"
