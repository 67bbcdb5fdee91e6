import importlib
import os
import pkgutil
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


def test_package_root_imports_nothing():
    # the root holds only __version__, so importing it loads no submodule and no numpy
    probe = (
        "import sys, treeskew; "
        "print(sorted(m for m in sys.modules if m.startswith(('treeskew.', 'numpy'))))"
    )
    package_root = str(Path(treeskew.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout == "[]\n"
