import math
import tracemalloc

import numpy as np
import pytest

from treeskew.hs import (
    CHUNK,
    FiniteUnitary,
    HSOperator,
    adjoint_act,
    hs_coefficient,
    inner,
    projection_defect,
    projection_defect_formula,
    projection_defect_trials,
    random_unit_vector,
    random_unitary,
    rank_one,
    rotation_unitary,
)
from treeskew.rng import NormalStream
from treeskew.selftest import run_selftest


def basis_vector(i, dim):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v


class TestOperatorBasics:
    def test_identity_trace(self):
        assert np.trace(HSOperator(np.eye(5)).matrix) == 5.0

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            HSOperator(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            HSOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_inner_is_linear_in_first_argument(self):
        x = np.array([1.0 + 2.0j, -0.5j])
        y = np.array([0.25, 1.0 - 1.0j])
        assert inner(2.0j * x, y) == pytest.approx(2.0j * inner(x, y))
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))

    def test_rank_one_matrix_entries(self):
        e0, e1 = basis_vector(0, 3), basis_vector(1, 3)
        op = rank_one(e1, e0)
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert np.array_equal(op.matrix, expected)

    def test_rank_one_trace_and_norm(self):
        stream = NormalStream(7)
        x = random_unit_vector(4, stream)
        y = 2.0 * random_unit_vector(4, stream)
        op = rank_one(x, y)
        assert np.trace(op.matrix) == pytest.approx(inner(y, x))
        assert math.sqrt(op.hs_norm_sq()) == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y))

    def test_rank_one_projection_is_idempotent(self):
        stream = NormalStream(8)
        x = random_unit_vector(5, stream)
        p = rank_one(x, x).matrix
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.allclose(p, p.conj().T, atol=1e-14)

    def test_rank_one_shape_validation(self):
        with pytest.raises(ValueError):
            rank_one(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            rank_one(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            rank_one(1.0, 1.0)
        # a leading axis is a stack: two 2-vectors give two rank-one operators
        assert rank_one(np.ones((2, 2)), np.ones((2, 2))).matrix.shape == (2, 2, 2)


class TestAdjointAction:
    def test_covariance_on_rank_one(self):
        stream = NormalStream(21)
        u = random_unitary(6, stream)
        x = random_unit_vector(6, stream)
        y = random_unit_vector(6, stream)
        moved = adjoint_act(u, rank_one(x, y)).matrix
        direct = rank_one(u.matrix @ x, u.matrix @ y).matrix
        assert np.allclose(moved, direct, atol=1e-12)

    def test_preserves_hs_norm_and_trace(self):
        stream = NormalStream(22)
        u = random_unitary(5, stream)
        t = HSOperator(stream.take(5, 5) + 1j * stream.take(5, 5))
        moved = adjoint_act(u, t)
        assert moved.hs_norm_sq() == pytest.approx(t.hs_norm_sq(), rel=1e-12)
        assert np.trace(moved.matrix) == pytest.approx(np.trace(t.matrix), rel=1e-12)

    def test_dimension_mismatch(self):
        stream = NormalStream(23)
        with pytest.raises(ValueError, match="dimension"):
            adjoint_act(random_unitary(3, stream), HSOperator(np.eye(4)))


class TestProjectionDefect:
    def test_quarter_turn_in_the_plane(self):
        u = rotation_unitary(math.pi / 4)
        xi = np.array([1.0, 0.0])
        assert abs(projection_defect(u, xi) - 1.0) <= 1e-12
        assert abs(projection_defect_formula(u, xi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 3, 1.5, math.pi / 2])
    def test_rotation_closed_form(self, theta):
        # rotating e0 by theta gives overlap cos(theta), so the defect
        # is 2 sin^2(theta)
        u = rotation_unitary(theta)
        xi = np.array([1.0, 0.0])
        expected = 2.0 * math.sin(theta) ** 2
        assert projection_defect(u, xi) == pytest.approx(expected, abs=1e-12)

    def test_range_is_zero_to_two(self):
        stream = NormalStream(31)
        for _ in range(50):
            u = random_unitary(4, stream)
            xi = random_unit_vector(4, stream)
            assert -1e-12 <= projection_defect(u, xi) <= 2.0 + 1e-12
        assert projection_defect(FiniteUnitary(np.eye(4)), basis_vector(0, 4)) == 0.0

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit vector"):
            projection_defect(rotation_unitary(0.1), np.array([1.0, 1.0]))

    def test_fault_hook_breaks_the_identity_and_reverts(self):
        # the injected fault fails only the projection-defect check, and a
        # clean run straight after it passes again
        u = rotation_unitary(0.2)
        xi = np.array([1.0, 0.0])
        clean = projection_defect(u, xi)
        lines: list[str] = []
        assert run_selftest(inject_fault="projection-defect-sign", out=lines.append) == 1
        failures = [line for line in lines if line.startswith("[FAIL]")]
        assert len(failures) == 1
        assert failures[0].startswith("[FAIL] projection-defect identity: worst residual")
        assert run_selftest(verbosity=0) == 0
        assert projection_defect(u, xi) == clean


class TestHSCoefficient:
    def test_identity_unitary_on_matrix_units(self):
        e01 = rank_one(basis_vector(1, 3), basis_vector(0, 3))
        u = FiniteUnitary(np.eye(3))
        assert hs_coefficient(e01, e01, u) == pytest.approx(1.0)

    def test_rank_one_factorization(self):
        stream = NormalStream(55)
        for trial in range(100):
            dim = 2 + trial % 7
            u = random_unitary(dim, stream)
            x1, y1 = random_unit_vector(dim, stream), random_unit_vector(dim, stream)
            x2, y2 = random_unit_vector(dim, stream), random_unit_vector(dim, stream)
            got = hs_coefficient(rank_one(x1, y1), rank_one(x2, y2), u)
            direct = inner(u.matrix @ y2, y1) * np.conj(inner(u.matrix @ x2, x1))
            assert abs(got - direct) <= 1e-10

    def test_rank_one_modulus_bound(self):
        stream = NormalStream(56)
        for trial in range(500):
            dim = 2 + trial % 8
            u = random_unitary(dim, stream)
            x1 = 1.7 * random_unit_vector(dim, stream)
            x2 = 0.4 * random_unit_vector(dim, stream)
            y1, y2 = random_unit_vector(dim, stream), random_unit_vector(dim, stream)
            value = abs(hs_coefficient(rank_one(x1, y1), rank_one(x2, y2), u))
            bound = abs(inner(u.matrix @ y2, y1)) * np.linalg.norm(x1) * np.linalg.norm(x2)
            assert value <= bound + 1e-10

    def test_phase_diagonal_matches_characteristic_sum(self):
        # U_L = diag(exp(i j theta L)) conjugating the projection onto a
        # weight vector gives |sum_j p_j exp(i j theta L)|^2, which we can
        # evaluate directly; the coefficient decays until the phases wrap
        dim, theta = 32, 0.35
        j = np.arange(dim)
        weights = np.exp(-((j - 16.0) ** 2) / 18.0)
        xi = np.sqrt(weights / weights.sum()).astype(np.complex128)
        p = rank_one(xi, xi)
        probs = np.abs(xi) ** 2
        values = []
        for length in range(9):
            u = FiniteUnitary(np.diag(np.exp(1j * j * theta * length)))
            got = hs_coefficient(p, p, u)
            char = np.sum(probs * np.exp(1j * j * theta * length))
            assert abs(got - abs(char) ** 2) <= 1e-10
            values.append(abs(got))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_coefficient(
                HSOperator(np.eye(2)), HSOperator(np.eye(3)), rotation_unitary(0.1)
            )


class TestHelpers:
    def test_random_unitary_is_unitary_and_deterministic(self):
        a = random_unitary(7, NormalStream(99)).matrix
        b = random_unitary(7, NormalStream(99)).matrix
        assert np.array_equal(a, b)
        assert np.max(np.abs(a.conj().T @ a - np.eye(7))) <= 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            FiniteUnitary(2.0 * np.eye(3))


def _reference_trials(count, seed):
    """The trials drawn and evaluated one at a time, as one loop over trials.

    Each trial reads its normals from the stream where the last one stopped:
    a trial of dimension d reads 2 d (d + 1) normals.
    """
    stream = NormalStream(seed)
    for trial in range(count):
        dim = 2 + trial % 15
        u = random_unitary(dim, stream)
        xi = random_unit_vector(dim, stream)
        yield trial, dim, projection_defect(u, xi), projection_defect_formula(u, xi)


def _hex_rows(rows):
    return [(t, dim, value.hex(), formula.hex()) for t, dim, value, formula in rows]


class TestStackedTrials:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "count", [0, 1, 14, 15, 16, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]
    )
    def test_chunks_equal_the_trial_loop_bit_for_bit(self, count, seed):
        chunked = list(projection_defect_trials(count, seed, projection_defect))
        assert all(type(v) is float and type(f) is float for *_, v, f in chunked)
        assert _hex_rows(chunked) == _hex_rows(_reference_trials(count, seed))

    @pytest.mark.parametrize("seed", [0, 9])
    def test_single_calls_keep_the_bits_of_plain_numpy(self, seed):
        # each helper against the numpy expression it stands for, so that the
        # trial loop above is pinned to numpy's own QR, norm, vdot and sum
        plain, stream = NormalStream(seed), NormalStream(seed)
        for dim in range(2, 17):
            a = plain.take(dim, dim) + 1j * plain.take(dim, dim)
            q, r = np.linalg.qr(a)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            v = plain.take(dim) + 1j * plain.take(dim)
            x = v / np.linalg.norm(v)
            u, xi = random_unitary(dim, stream), random_unit_vector(dim, stream)
            assert u.matrix.tobytes() == q.tobytes() and xi.tobytes() == x.tobytes()
            p = np.outer(x, x.conj())
            defect = float(np.sum(np.abs(q @ p @ q.conj().T - p) ** 2))
            c = complex(np.vdot(x, q @ x))
            assert projection_defect(u, xi).hex() == defect.hex()
            assert projection_defect_formula(u, xi).hex() == (2.0 * (1.0 - (c * c.conjugate()).real)).hex()

    def test_stacked_calls_equal_single_calls_bit_for_bit(self):
        stream = NormalStream(5)
        pairs = [(random_unitary(6, stream), random_unit_vector(6, stream)) for _ in range(5)]
        u = FiniteUnitary(np.stack([v.matrix for v, _ in pairs]))
        xi = np.stack([x for _, x in pairs])
        p = rank_one(xi, xi[::-1])
        stacked = [
            projection_defect(u, xi), projection_defect_formula(u, xi),
            p.hs_norm_sq(), inner(xi, xi[::-1]), adjoint_act(u, p).matrix,
        ]
        for k, (v, x) in enumerate(pairs):
            y = pairs[-1 - k][1]
            q = rank_one(x, y)
            single = [
                projection_defect(v, x), projection_defect_formula(v, x),
                q.hs_norm_sq(), inner(x, y), adjoint_act(v, q).matrix,
            ]
            for got, want in zip(stacked, single):
                assert np.asarray(got[k]).tobytes() == np.asarray(want).tobytes()

    def test_one_bad_matrix_fails_the_stack(self):
        stack = np.stack([rotation_unitary(0.1 * k).matrix for k in range(6)])
        FiniteUnitary(stack)
        skewed = stack.copy()
        skewed[4, 0, 0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="unitary"):
            FiniteUnitary(skewed)
        broken = stack.copy()
        broken[2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            FiniteUnitary(broken)
        with pytest.raises(ValueError, match="finite"):
            HSOperator(broken)
        xi = np.tile(np.array([1.0, 0.0]), (6, 1))
        xi[3] *= 1.0 + 1e-11
        with pytest.raises(ValueError, match="unit vector"):
            projection_defect(FiniteUnitary(stack), xi)

    def test_memory_does_not_grow_with_trials(self):
        # one chunk's normals, 2 d (d + 1) per trial of dimension d = 2..16
        footprint = CHUNK // 15 * sum(2 * d * (d + 1) for d in range(2, 17)) * 8

        def peak(count):
            tracemalloc.start()
            for _ in projection_defect_trials(count, 3, projection_defect):
                pass
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return top

        peak(CHUNK)  # first use of the LAPACK wrappers allocates once
        assert peak(40 * CHUNK) - peak(4 * CHUNK) < footprint
