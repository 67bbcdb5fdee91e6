"""numpy, imported on first attribute access.

The exact routes (shell sums, window sweeps, Cauchy quadrature) are pure
Python, so the modules that also hold array code import ``np`` from here
and only the commands that compute with arrays pay numpy's import.  The
lazy module is numpy's own entry in ``sys.modules``, so a later
``import numpy`` anywhere in the process returns the same module.
"""

from __future__ import annotations

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:  # no numpy, or a None entry in sys.modules
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
