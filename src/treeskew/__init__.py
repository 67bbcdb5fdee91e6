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

The package root exports only ``__version__``; import each name from the
module that defines it, whose ``__all__`` lists its public names:

- :mod:`treeskew.words`: reduced words, geodesics, edges, balls and shells;
- :mod:`treeskew.rng`: the keyed PRF behind every lazy edge value;
- :mod:`treeskew.orientation`: orientations, the cocycle, the skew step,
  the path-sum law, and ``OrientationMeasure``, the orientation system
  with its shift law;
- :mod:`treeskew.gaussian`: ``GaussianMeasure``, the Gaussian system's
  shift law, and the Gram matrix of its marginals;
- :mod:`treeskew.profiles`: profile vectors and their correlation kernels;
- :mod:`treeskew.numerics`: adaptive quadrature and normal-law helpers;
- :mod:`treeskew.parallel`: fixed sample blocks and their ordered reduction;
- :mod:`treeskew.koopman`: coefficients, decay curves and window sweeps
  over either system type;
- :mod:`treeskew.hs`: the Hilbert-Schmidt projection-defect bench;
- :mod:`treeskew.selftest` and :mod:`treeskew.cli`: the invariant suites
  and the command line.
"""

__version__ = "0.1.0"
