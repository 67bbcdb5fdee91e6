"""Skew products over free-group trees: cocycles, coefficients, decay.

The package builds two skew products over the Cayley tree of a free
group (Bernoulli edge orientations with an integer cocycle, and a
Gaussian field indexed by tree edges), evaluates matrix coefficients of
their Koopman representations along exact and Monte Carlo routes, and
checks the resulting decay and almost-invariance certificates.  A small
Hilbert-Schmidt bench mirrors the coefficient computations at the
operator level.

The Gaussian system, and the orientation system at ``p = 1/2``, preserve
their measures.  At ``p != 1/2`` the orientation action is only
nonsingular, and its values omit the Radon-Nikodym factor of the Koopman
operator, so they are not positive definite (see :mod:`treeskew.koopman`).
"""

from .words import (
    Word,
    parse_word,
    CanonicalEdge,
    GeodesicPath,
    geodesic,
    distance,
    median,
    act_on_edge,
    ball,
    ball_size,
    shell,
    shell_size,
)
from .orientation import (
    OrientationMeasure,
    Orientation,
    SkewPoint,
    pushforward,
    path_cocycle,
    group_cocycle,
    skew_step,
    path_sum_law,
    cocycle_samples,
)
from .gaussian import (
    GaussianSystem,
    gram_matrix,
    window_coefficient_by_quadrature,
)
from .profiles import ProfileVector
from .koopman import (
    UnsupportedProfileError,
    SystemSpec,
    orientation_system,
    gaussian_system,
    MCBudget,
    CoefficientEstimate,
    coefficient,
    symmetric_difference,
    symmetric_difference_mc,
    DecayCurve,
    decay_sweep,
    SweepTable,
    almost_invariant_sweep,
    emit_csv,
)
from .hs import (
    HSOperator,
    FiniteUnitary,
    rank_one,
    adjoint_act,
    projection_defect,
    projection_defect_formula,
    hs_coefficient,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "Word",
    "parse_word",
    "CanonicalEdge",
    "GeodesicPath",
    "geodesic",
    "distance",
    "median",
    "act_on_edge",
    "ball",
    "ball_size",
    "shell",
    "shell_size",
    "OrientationMeasure",
    "Orientation",
    "SkewPoint",
    "pushforward",
    "path_cocycle",
    "group_cocycle",
    "skew_step",
    "path_sum_law",
    "cocycle_samples",
    "GaussianSystem",
    "gram_matrix",
    "window_coefficient_by_quadrature",
    "ProfileVector",
    "UnsupportedProfileError",
    "SystemSpec",
    "orientation_system",
    "gaussian_system",
    "MCBudget",
    "CoefficientEstimate",
    "coefficient",
    "symmetric_difference",
    "symmetric_difference_mc",
    "DecayCurve",
    "decay_sweep",
    "SweepTable",
    "almost_invariant_sweep",
    "emit_csv",
    "HSOperator",
    "FiniteUnitary",
    "rank_one",
    "adjoint_act",
    "projection_defect",
    "projection_defect_formula",
    "hs_coefficient",
    "run_selftest",
    "__version__",
]
