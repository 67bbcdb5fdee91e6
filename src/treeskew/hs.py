"""Hilbert-Schmidt operators under the adjoint action of a finite unitary.

A small exact bench for the operator-level identities used by the
coefficient experiments: trace and rank-one calculus, the adjoint action
``T -> U T U*``, and the projection-defect identity

    || U P U* - P ||_HS^2  =  2 (1 - |<U xi, xi>|^2),       P = xi (x) xi,

together with the rank-one bound on ``Tr(T1* U T2 U*)``.  When the
coefficient ``<U xi, xi>`` is real the right side is the familiar
``2 (1 - <U xi, xi>^2)``; the modulus form is the one that survives
complex unitaries.  Everything is dense complex linear algebra at
dimensions a bench can afford.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from ._np import np

__all__ = [
    "HSOperator",
    "FiniteUnitary",
    "inner",
    "rank_one",
    "adjoint_act",
    "projection_defect",
    "projection_defect_formula",
    "projection_defect_trials",
    "hs_coefficient",
    "random_unitary",
    "random_unit_vector",
    "rotation_unitary",
]


def _as_square_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class HSOperator:
    """A dense operator on C^dim with the Hilbert-Schmidt inner product."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hs_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def hs_norm(self) -> float:
        return math.sqrt(self.hs_norm_sq())


@dataclass(frozen=True, eq=False)
class FiniteUnitary:
    """A matrix verified unitary to 1e-10 at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.matrix)
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """``<x, y> = sum x_i conj(y_i)`` (linear in the first argument)."""
    return complex(np.vdot(y, x))


def rank_one(xi, xi_out) -> HSOperator:
    """The rank-one operator ``eta -> <eta, xi> xi_out``.

    Its matrix is ``entries[i][j] = xi_out[i] * conj(xi[j])``; the trace is
    ``<xi_out, xi>`` and the HS norm is ``|xi| |xi_out|``.
    """
    a = np.asarray(xi, dtype=np.complex128)
    b = np.asarray(xi_out, dtype=np.complex128)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("rank_one expects two vectors of equal dimension")
    return HSOperator(np.outer(b, a.conj()))


def adjoint_act(u: FiniteUnitary, op: HSOperator) -> HSOperator:
    """``U T U*``; an HS-norm isometry."""
    if u.dim != op.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {op.dim}")
    return HSOperator(u.matrix @ op.matrix @ u.matrix.conj().T)


def projection_defect(u: FiniteUnitary, xi) -> float:
    """``|| U P U* - P ||_HS^2`` for the projection ``P`` onto a unit vector.

    Must equal ``2 (1 - |<U xi, xi>|^2)``; see
    :func:`projection_defect_formula` for that route.
    """
    x = np.asarray(xi, dtype=np.complex128)
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"projection_defect needs a unit vector, |xi| = {norm!r}")
    p = rank_one(x, x)
    return float(np.sum(np.abs(adjoint_act(u, p).matrix - p.matrix) ** 2))


def projection_defect_formula(u: FiniteUnitary, xi) -> float:
    """The scalar route ``2 (1 - |<U xi, xi>|^2)``."""
    x = np.asarray(xi, dtype=np.complex128)
    c = inner(u.matrix @ x, x)
    return 2.0 * (1.0 - (c * c.conjugate()).real)


def projection_defect_trials(
    count: int, seed: int, defect: Callable[..., float]
) -> Iterator[tuple[int, int, float, float]]:
    """Yield ``(trial, dim, defect, formula)`` for ``count`` random unitaries.

    Trial ``t`` draws a unitary and a unit vector of dimension
    ``2 + t % 15`` from one ``PCG64(seed)`` stream, then evaluates the given
    defect route (:func:`projection_defect`, or an injected fault) and
    :func:`projection_defect_formula` on them.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for trial in range(count):
        dim = 2 + trial % 15
        u = random_unitary(dim, rng)
        xi = random_unit_vector(dim, rng)
        yield trial, dim, defect(u, xi), projection_defect_formula(u, xi)


def hs_coefficient(t1: HSOperator, t2: HSOperator, u: FiniteUnitary) -> complex:
    """``Tr(T1* U T2 U*)``, the HS matrix coefficient of the adjoint action.

    For rank-one ``T_i = rank_one(xi_i, eta_i)`` its modulus is bounded by
    ``|<U eta_2, eta_1>| |xi_1| |xi_2|``, which is how vector-coefficient
    decay transfers to the operator level.
    """
    if not t1.dim == t2.dim == u.dim:
        raise ValueError("hs_coefficient needs matching dimensions")
    return complex(np.trace(t1.matrix.conj().T @ adjoint_act(u, t2).matrix))


def random_unitary(dim: int, rng: np.random.Generator) -> FiniteUnitary:
    """Haar-ish unitary from QR of a complex Gaussian matrix (phase-fixed)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return FiniteUnitary(q * (d / np.abs(d)))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rotation_unitary(theta: float) -> FiniteUnitary:
    """The 2x2 real rotation by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return FiniteUnitary(np.array([[c, -s], [s, c]]))
