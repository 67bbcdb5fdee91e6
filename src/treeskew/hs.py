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

The operator types and functions, all but :func:`hs_coefficient`, take
leading stack axes: a ``(..., dim, dim)`` array is a stack of matrices
and a ``(..., dim)`` array a stack of vectors.  A stack's scalars come
back as an array, and a single operand's as a Python scalar.
:func:`projection_defect_trials` uses this to run its trials in chunks
of :data:`CHUNK`, one stacked pass per dimension.  A chunk reads all its
normals with one call, at the positions of the counter-addressed stream
(:func:`treeskew.rng.normals`) that the trial-by-trial draws of a
:class:`treeskew.rng.NormalStream` take, and every stacked form used
here (QR, ``@`` on stacks, sums over the last two axes, dot products as
``(1, n) @ (n, 1)`` products) gives each matrix the bits its own call
gives it, so the trials are those of a loop that draws and evaluates one
trial at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from ._np import np
from .rng import NormalStream, normals

__all__ = [
    "CHUNK",
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


# Trials per stacked pass: eight cycles of the 15 dimensions 2..16.  Memory
# follows this size, not the trial count.
CHUNK = 120
_DIMS = range(2, 17)
# Offsets of each dimension's normals in a cycle of trials: a trial of
# dimension d draws 2 d^2 for its matrix, then 2 d for its vector.
_OFFSETS = list(itertools.accumulate((2 * d * (d + 1) for d in _DIMS), initial=0))


def _unstack(x: np.ndarray):
    """A single operand's 0-d result as a Python scalar; a stack's as an array."""
    return x.item() if x.ndim == 0 else x


def _as_square_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _norm(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own sum, x.real . x.real + x.imag . x.imag on the
    # strided views, as (1, n) @ (n, 1) products so that stacks run too
    re, im = x.real, x.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


@dataclass(frozen=True, eq=False)
class HSOperator:
    """A dense operator on C^dim, or a stack of them, with the Hilbert-Schmidt inner product."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def hs_norm_sq(self) -> float | np.ndarray:
        return _unstack(np.sum(np.abs(self.matrix) ** 2, axis=(-2, -1)))


@dataclass(frozen=True, eq=False)
class FiniteUnitary:
    """A matrix, or a stack of them, each verified unitary to 1e-10 at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.matrix)
        defect = np.max(np.abs(m.conj().mT @ m - np.eye(m.shape[-1])))
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def inner(x: np.ndarray, y: np.ndarray) -> complex | np.ndarray:
    """``<x, y> = sum x_i conj(y_i)`` (linear in the first argument)."""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    # np.vdot(y, x), as a (1, n) @ (n, 1) product
    return _unstack((y.conj()[..., None, :] @ x[..., :, None])[..., 0, 0])


def rank_one(xi, xi_out) -> HSOperator:
    """The rank-one operator ``eta -> <eta, xi> xi_out``.

    Its matrix is ``entries[i][j] = xi_out[i] * conj(xi[j])``; the trace is
    ``<xi_out, xi>`` and the HS norm is ``|xi| |xi_out|``.
    """
    a = np.asarray(xi, dtype=np.complex128)
    b = np.asarray(xi_out, dtype=np.complex128)
    if a.ndim < 1 or a.shape != b.shape:
        raise ValueError("rank_one expects two vectors of equal dimension")
    return HSOperator(b[..., :, None] * a.conj()[..., None, :])


def adjoint_act(u: FiniteUnitary, op: HSOperator) -> HSOperator:
    """``U T U*``; an HS-norm isometry."""
    if u.dim != op.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {op.dim}")
    return HSOperator(u.matrix @ op.matrix @ u.matrix.conj().mT)


def projection_defect(u: FiniteUnitary, xi) -> float | np.ndarray:
    """``|| U P U* - P ||_HS^2`` for the projection ``P`` onto a unit vector.

    Must equal ``2 (1 - |<U xi, xi>|^2)``; see
    :func:`projection_defect_formula` for that route.
    """
    x = np.asarray(xi, dtype=np.complex128)
    norm = _norm(x)
    off = np.abs(norm - 1.0) > 1e-12
    if off.any():
        raise ValueError(
            f"projection_defect needs a unit vector, |xi| = {norm[off].flat[0].item()!r}"
        )
    p = rank_one(x, x)
    return HSOperator(adjoint_act(u, p).matrix - p.matrix).hs_norm_sq()


def projection_defect_formula(u: FiniteUnitary, xi) -> float | np.ndarray:
    """The scalar route ``2 (1 - |<U xi, xi>|^2)``."""
    x = np.asarray(xi, dtype=np.complex128)
    c = inner((u.matrix @ x[..., None])[..., 0], x)
    # the bits of Python's (c * c.conjugate()).real, on arrays too
    return 2.0 * (1.0 - (c.real * c.real + c.imag * c.imag))


def projection_defect_trials(
    count: int, seed: int, defect: Callable
) -> Iterator[tuple[int, int, float, float]]:
    """Yield ``(trial, dim, defect, formula)`` for ``count`` random unitaries.

    Trial ``t`` draws a unitary and a unit vector of dimension
    ``2 + t % 15`` from the normal stream rooted at ``seed``, as
    :func:`random_unitary` and :func:`random_unit_vector` read a
    :class:`treeskew.rng.NormalStream`, trial after trial.  It then
    evaluates the given defect route (:func:`projection_defect`, or an
    injected fault) and :func:`projection_defect_formula` on them.  The
    trials run in chunks of :data:`CHUNK`: a chunk reads the stream
    positions of its trials with one call into a reused buffer, then hands
    each route one stack per dimension.
    """
    cycles = CHUNK // len(_DIMS)
    z = np.empty((cycles, _OFFSETS[-1]))
    values = np.empty((2, cycles, len(_DIMS)))
    for lo in range(0, count, CHUNK):
        n = min(CHUNK, count - lo)
        whole, extra = divmod(n, len(_DIMS))
        pos, size = lo // len(_DIMS) * _OFFSETS[-1], whole * _OFFSETS[-1] + _OFFSETS[extra]
        normals(seed, pos, pos + size, out=z.reshape(-1)[:size])
        for j, dim in enumerate(_DIMS):
            m, sq = whole + (j < extra), dim * dim
            if not m:
                break
            draws = z[:m, _OFFSETS[j] : _OFFSETS[j + 1]]
            u = _haar_unitary(
                draws[:, :sq].reshape(m, dim, dim), draws[:, sq : 2 * sq].reshape(m, dim, dim)
            )
            xi = _unit_vector(draws[:, 2 * sq : 2 * sq + dim], draws[:, 2 * sq + dim :])
            values[0, :m, j] = defect(u, xi)
            values[1, :m, j] = projection_defect_formula(u, xi)
        rows = zip(values[0].reshape(-1)[:n].tolist(), values[1].reshape(-1)[:n].tolist())
        for k, (value, formula) in enumerate(rows):
            yield lo + k, 2 + k % len(_DIMS), value, formula


def hs_coefficient(t1: HSOperator, t2: HSOperator, u: FiniteUnitary) -> complex:
    """``Tr(T1* U T2 U*)``, the HS matrix coefficient of the adjoint action.

    For rank-one ``T_i = rank_one(xi_i, eta_i)`` its modulus is bounded by
    ``|<U eta_2, eta_1>| |xi_1| |xi_2|``, which is how vector-coefficient
    decay transfers to the operator level.
    """
    if not t1.dim == t2.dim == u.dim:
        raise ValueError("hs_coefficient needs matching dimensions")
    return complex(np.trace(t1.matrix.conj().T @ adjoint_act(u, t2).matrix))


def _haar_unitary(re: np.ndarray, im: np.ndarray) -> FiniteUnitary:
    """The phase-fixed Q factor of ``re + i im``, matrix by matrix over a stack."""
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return FiniteUnitary(q * (d / np.abs(d))[..., None, :])


def _unit_vector(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    v = re + 1j * im
    return v / _norm(v)[..., None]


def random_unitary(dim: int, stream: NormalStream) -> FiniteUnitary:
    """Haar unitary from QR of a complex Gaussian matrix (phase-fixed), read from ``stream``."""
    return _haar_unitary(stream.take(dim, dim), stream.take(dim, dim))


def random_unit_vector(dim: int, stream: NormalStream) -> np.ndarray:
    """A uniform unit vector of C^dim: a complex Gaussian vector read from ``stream``, normalised."""
    return _unit_vector(stream.take(dim), stream.take(dim))


def rotation_unitary(theta: float) -> FiniteUnitary:
    """The 2x2 real rotation by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return FiniteUnitary(np.array([[c, -s], [s, c]]))
