"""End-to-end scorecard for the package's numerical guarantees.

Each test exercises one headline property at full advertised scale,
prints a single ``[acceptance] name ... PASS/FAIL`` line even under
pytest's capture, and enforces a wall-clock budget.  Everything here is
covered in more detail by the per-module tests; this file is the concise
go/no-go gate.
"""

import math
import random
import time

import numpy as np

from conftest import gromov_products, random_letters
from treeskew.cli import main as cli_main
from treeskew.gaussian import gram_matrix, window_coefficient_by_quadrature
from treeskew.hs import (
    projection_defect,
    projection_defect_formula,
    random_unit_vector,
    random_unitary,
    rotation_unitary,
)
from treeskew.koopman import (
    MCBudget,
    coefficient,
    gaussian_system,
    orientation_system,
    symmetric_difference,
    symmetric_difference_mc,
)
from treeskew.orientation import (
    Orientation,
    OrientationMeasure,
    SkewPoint,
    group_cocycle,
    pushforward,
    skew_step,
)
from treeskew.profiles import ProfileVector, cauchy_kernel_by_quadrature
from treeskew.words import Word, ball, ball_edges


def scored(capsys, name, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name} ... FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    with capsys.disabled():
        print(f"[acceptance] {name} ... {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"{name}: {elapsed:.1f}s exceeded the {budget_s}s budget"


def rand_word(rng, max_len, min_len=0):
    return Word(random_letters(rng, rng.randint(min_len, max_len), 2), 2)


def test_01_cocycle_chain_rule(capsys):
    def body():
        for p in (0.3, 0.5, 0.7):
            measure = OrientationMeasure(p)
            rng = random.Random(int(1000 * p))
            for _ in range(3334):
                omega = Orientation(rng.getrandbits(64), measure)
                g, h = rand_word(rng, 8), rand_word(rng, 8)
                lhs = group_cocycle(omega, g * h)
                rhs = group_cocycle(omega, g) + group_cocycle(pushforward(~g, omega), h)
                assert lhs == rhs

    scored(capsys, "integer cocycle chain rule, 10^4 triples", 10, body)


def test_02_skew_action_law(capsys):
    def body():
        measure = OrientationMeasure(0.7)
        rng = random.Random(202)
        edges = ball_edges(5, 2)
        for _ in range(500):
            omega = Orientation(rng.getrandbits(64), measure)
            point = SkewPoint(omega, float(rng.randint(-10, 10)))
            g, h = rand_word(rng, 5), rand_word(rng, 5)
            one = skew_step(g * h, point)
            two = skew_step(g, skew_step(h, point))
            assert one.t == two.t
            for edge in rng.sample(edges, 10):
                assert one.orientation.value(edge) == two.orientation.value(edge)

    scored(capsys, "skew action composition law, 500 instances", 10, body)


def test_03_window_coefficient_exact_vs_mc(capsys):
    def body():
        rng = random.Random(303)
        for i in range(50):
            g = rand_word(rng, 10, min_len=1)
            n = rng.randint(1, 50)
            p = round(rng.uniform(0.1, 0.9), 3)
            win = ProfileVector.window(n)
            exact = coefficient(orientation_system(p), g, win, win, method="exact").value
            assert 1.0 - exact <= len(g) / (2.0 * n) + 1e-12
            est = coefficient(
                orientation_system(p), g, win, win, budget=MCBudget(100_000, seed=i), method="mc"
            )
            assert abs(est.value - exact) <= 4.0 * est.stderr + 1e-15

    scored(capsys, "orientation window coefficient vs Monte Carlo, 50 configs", 60, body)


def test_04_gaussian_bound_decay(capsys):
    prof = ProfileVector.gaussian()

    def bound(length, p):
        return coefficient(orientation_system(p), Word((1,) * length, 2), prof, prof).value

    def body():
        values = [bound(length, 0.7) for length in range(1, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05
        driftless = bound(20, 0.5)
        assert driftless > values[-1]

    scored(capsys, "drift makes the Gaussian-profile bound decay", 5, body)


def test_05_gaussian_window_three_routes(capsys):
    def body():
        rng = np.random.default_rng(505)
        for sigma in (0.5, 1.0, 2.0, 3.0, 5.0):
            for n in (1, 2, 5, 10, 100):
                win = ProfileVector.window(n)
                closed = win.gaussian_mean(win, sigma)[0]
                assert closed <= 1.0 + 1e-12
                quad = window_coefficient_by_quadrature(sigma, n)
                assert abs(closed - quad) <= 1e-9
                draws = np.abs(sigma * rng.standard_normal(1_000_000))
                f = np.maximum(2.0 * n - draws, 0.0) / (2.0 * n)
                stderr = f.std(ddof=1) / 1000.0
                assert abs(f.mean() - closed) <= 4.0 * stderr
                if n / sigma >= 20.0:
                    tail = sigma / (n * math.sqrt(2.0 * math.pi))
                    assert abs((1.0 - closed) - tail) <= 0.02 * tail

    scored(capsys, "Gaussian window coefficient: erf vs quadrature vs MC grid", 60, body)


def test_06_cauchy_kernel_identity(capsys):
    def body():
        for x in (0.0, 1.0, 5.0, 20.0):
            value = cauchy_kernel_by_quadrature(x) * (4.0 + x * x)
            assert abs(value - 2.0 * math.pi) <= 1e-8
        raw = ProfileVector.cauchy("raw")
        values = [raw.gaussian_mean(raw, s)[0] for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    scored(capsys, "Cauchy kernel identity and coefficient decay", 5, body)


def test_07_gram_matrix_and_sampling(capsys):
    def body():
        system = gram_matrix(ball(5, 2))
        assert len(system) == 485
        assert system.min_eigenvalue() >= -1e-8
        assert np.array_equal(system.gram, gromov_products(system.words))

        words = [Word(tuple(), 2)] + [
            Word(letters, 2)
            for letters in [(1,), (2,), (1, 2), (1, -2), (1, 2, 1)]
        ]
        sub = gram_matrix(words)
        count = 100_000
        draws = sub.sample_matrix(count, seed=7)
        empirical = draws.T @ draws / count
        for i in range(len(words)):
            for j in range(len(words)):
                expected = sub.gram[i, j]
                spread = math.sqrt(
                    (sub.gram[i, i] * sub.gram[j, j] + expected * expected) / count
                )
                assert abs(empirical[i, j] - expected) <= 4.0 * spread + 1e-12

    scored(capsys, "Gram matrix PSD, Gromov products, empirical covariance", 60, body)


def test_08_projection_defect_identity(capsys):
    def body():
        rng = np.random.default_rng(808)
        for trial in range(500):
            dim = 2 + trial % 15
            u = random_unitary(dim, rng)
            xi = random_unit_vector(dim, rng)
            assert abs(projection_defect(u, xi) - projection_defect_formula(u, xi)) <= 1e-10
        quarter = projection_defect(rotation_unitary(math.pi / 4), np.array([1.0, 0.0]))
        assert abs(quarter - 1.0) <= 1e-12

    scored(capsys, "projection-defect identity, 500 random unitaries", 10, body)


def test_09_cli_determinism(capsys, tmp_path):
    # an odd sample count that spans several sample blocks and fills none
    # of them exactly, so any worker-dependent split of the sums would show
    mc = ["decay", "--method", "mc", "--max-radius", "4", "--shell-cap", "4",
          "--samples", str(2 * 2**16 + 1), "--seed", "11"]
    cases = [
        ("decay-exact", [["decay"]] * 2),
        *(
            (f"decay-mc-{system}",
             [mc + ["--system", system, "--workers", str(k)] for k in (1, 2, 3, 3)])
            for system in ("orientation", "gaussian")
        ),
        ("window", [["window"]] * 2),
        ("gram", [["gram"]] * 2),
        ("hs", [["hs", "--seed", "3"]] * 2),
    ]

    def body():
        for name, runs in cases:
            outputs = []
            for attempt, argv in enumerate(runs):
                dest = tmp_path / f"{name}-{attempt}.csv"
                assert cli_main(argv + ["--out", str(dest)]) == 0
                outputs.append(dest.read_bytes())
            assert outputs[0] and all(out == outputs[0] for out in outputs), name

    scored(capsys, "CLI subcommands are byte-identical across reruns and worker counts", 120, body)


def test_10_symmetric_difference_identity(capsys):
    def body():
        rng = random.Random(1010)
        for i in range(20):
            g = rand_word(rng, 6, min_len=1)
            if rng.random() < 0.5:
                profile = ProfileVector.window(rng.randint(1, 5))
            else:
                lo = rng.uniform(-3.0, 1.0)
                profile = ProfileVector.indicator(lo, lo + rng.uniform(0.5, 4.0))
            if i % 2 == 0:
                system = orientation_system(round(rng.uniform(0.2, 0.8), 3))
            else:
                system = gaussian_system()
            exact = symmetric_difference(system, g, profile)
            mc = symmetric_difference_mc(system, g, profile, MCBudget(50_000, seed=i))
            assert abs(exact - mc.value) <= 4.0 * mc.stderr + 1e-12

    scored(capsys, "symmetric-difference overlap identity vs MC, 20 configs", 60, body)
