"""In-process invariant suites behind the ``selftest`` CLI command.

Each suite re-checks the load-bearing identities of one module with small
budgets (seconds, not minutes).  A failed check names the identity it
guards; the runner returns a process exit code.  The optional fault
injection hands the projection-defect check a sign-flipped defect
``|| U P U* + P ||_HS^2``, so that check must fail, which keeps the suite
honest.
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import hs
from .gaussian import (
    gram_matrix,
    interval_overlap_by_quadrature,
    window_coefficient_by_quadrature,
)
from .koopman import (
    MCBudget,
    UnsupportedProfileError,
    almost_invariant_sweep,
    coefficient,
    decay_sweep,
    emit_csv,
    orientation_system,
    gaussian_system,
    symmetric_difference,
    symmetric_difference_mc,
)
from .orientation import (
    Orientation,
    OrientationMeasure,
    SkewPoint,
    cocycle_samples,
    group_cocycle,
    path_cocycle,
    path_sum_law,
    pushforward,
    skew_step,
)
from .profiles import ProfileVector, cauchy_kernel_by_quadrature
from .rng import prf_uniform, prf_uniform_array, sample_seed, sample_seeds_array
from .words import (
    Word,
    act_on_edge,
    ball,
    ball_edges,
    ball_size,
    distance,
    geodesic,
    median,
    parse_word,
    sample_word,
)

KNOWN_FAULTS = ("projection-defect-sign",)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _random_words(rng: random.Random, count: int, max_len: int, rank: int = 2):
    return [sample_word(rng.randint(0, max_len), rank, rng) for _ in range(count)]


def suite_group_tree() -> List[Check]:
    rng = random.Random(1101)
    checks = []

    ws = _random_words(rng, 600, 10)
    ok = all(
        ((x * y) * z).letters == (x * (y * z)).letters
        and (x * ~x).letters == ()
        and (Word.identity(2) * x) == x
        for x, y, z in zip(ws[::3], ws[1::3], ws[2::3])
    )
    checks.append(Check("group axioms (assoc, inverse, identity)", ok))

    ok = True
    for _ in range(200):
        x, y, g = (_random_words(rng, 3, 8)[i] for i in range(3))
        if distance(x, y) != len(~x * y) or distance(g * x, g * y) != distance(x, y):
            ok = False
            break
    checks.append(Check("distance = |x^-1 y| and left invariance", ok))

    ok = True
    for _ in range(100):
        x, y = _random_words(rng, 2, 8)
        p, q = geodesic(x, y), geodesic(y, x)
        if len(p) != distance(x, y):
            ok = False
        if [e for e, _ in q.steps] != [e for e, _ in reversed(p.steps)]:
            ok = False
        if [t for _, t in q.steps] != [-t for _, t in reversed(p.steps)]:
            ok = False
        if not ok:
            break
    checks.append(Check("geodesic length and reversal", ok))

    ok = True
    for _ in range(100):
        x, y, z = _random_words(rng, 3, 7)
        m = median(x, y, z)
        for a, b in ((x, y), (y, z), (x, z)):
            if distance(a, m) + distance(m, b) != distance(a, b):
                ok = False
    checks.append(Check("median lies on all three geodesics", ok))

    edges = ball_edges(4, 2)
    ok = True
    for _ in range(200):
        g, h = _random_words(rng, 2, 6)
        e = rng.choice(edges)
        e1, f1 = act_on_edge(h, e)
        e2, f2 = act_on_edge(g, e1)
        e3, f3 = act_on_edge(g * h, e)
        if e2 != e3 or f1 * f2 != f3:
            ok = False
            break
    checks.append(Check("edge action composes with multiplying flips", ok))

    ok = all(len(ball(r, 2)) == ball_size(r, 2) for r in range(5))
    ok = ok and len(ball(3, 2)) == 53 and parse_word("a1 a2^-1", 2) == parse_word("aB", 2)
    checks.append(Check("ball counts and word parsing", ok))
    return checks


def suite_orientation() -> List[Check]:
    rng = random.Random(2202)
    measure = OrientationMeasure(0.7)
    checks = []

    seeds = [rng.getrandbits(64) for _ in range(200)]
    fps = [rng.getrandbits(64) for _ in range(200)]
    scalar = np.array([prf_uniform(s, f) for s, f in zip(seeds, fps)])
    vector = prf_uniform_array(
        np.array(seeds, dtype=np.uint64), np.array(fps, dtype=np.uint64)
    )
    stream = np.array([sample_seed(7, i) for i in range(50)], dtype=np.uint64)
    checks.append(
        Check(
            "keyed PRF scalar/vector agreement",
            bool(np.array_equal(scalar, vector))
            and bool(np.array_equal(stream, sample_seeds_array(7, 0, 50))),
        )
    )

    ok = True
    for _ in range(150):
        omega = Orientation(rng.getrandbits(64), measure)
        x, y, z = _random_words(rng, 3, 7)
        if path_cocycle(omega, x, z) != path_cocycle(omega, x, y) + path_cocycle(omega, y, z):
            ok = False
            break
        if path_cocycle(omega, x, y) != -path_cocycle(omega, y, x):
            ok = False
            break
    checks.append(Check("path cocycle additivity and antisymmetry", ok))

    ok = True
    for p in (0.3, 0.5, 0.7):
        m = OrientationMeasure(p)
        for _ in range(70):
            omega = Orientation(rng.getrandbits(64), m)
            g, h = _random_words(rng, 2, 7)
            lhs = group_cocycle(omega, g * h)
            rhs = group_cocycle(omega, g) + group_cocycle(pushforward(~g, omega), h)
            if lhs != rhs:
                ok = False
    checks.append(Check("cocycle chain rule", ok))

    edges = ball_edges(5, 2)
    ok = True
    for _ in range(40):
        omega = Orientation(rng.getrandbits(64), measure)
        g, h = _random_words(rng, 2, 5)
        via_two = pushforward(g, pushforward(h, omega))
        via_one = pushforward(g * h, omega)
        for e in rng.sample(edges, 25):
            if via_two.value(e) != via_one.value(e):
                ok = False
    checks.append(Check("pushforward composition", ok))

    ok = True
    for _ in range(100):
        omega = Orientation(rng.getrandbits(64), measure)
        g, h = _random_words(rng, 2, 5)
        pt = SkewPoint(omega, rng.randint(-5, 5))
        one = skew_step(g * h, pt)
        two = skew_step(g, skew_step(h, pt))
        if one.t != two.t:
            ok = False
            break
        for e in rng.sample(edges, 12):
            if one.orientation.value(e) != two.orientation.value(e):
                ok = False
    checks.append(Check("skew action law", ok))

    ok = True
    for length, p in ((0, 0.3), (3, 0.5), (6, 0.7), (9, 0.41)):
        law = path_sum_law(length, p)
        if abs(math.fsum(law.pmf.values()) - 1.0) > 1e-12:
            ok = False
        if abs(law.mean() - length * (1.0 - 2.0 * p)) > 1e-10:
            ok = False
    checks.append(Check("path-sum law normalization and mean", ok))

    ok = True
    for g_text, n, p, seed in (("abab", 6, 0.7, 11), ("aabA", 9, 0.45, 12)):
        g = parse_word(g_text, 2)
        win = ProfileVector.window(n)
        exact = coefficient(orientation_system(p), g, win, win).value
        if exact < 1.0 - len(g) / (2.0 * n) - 1e-12:
            ok = False
        draws = cocycle_samples(g, p, seed, 40_000).astype(float)
        vals = np.maximum(2.0 * n - np.abs(draws), 0.0) / (2.0 * n)
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        if abs(float(vals.mean()) - exact) > 5.0 * stderr + 1e-12:
            ok = False
    checks.append(Check("window coefficient: exact law vs sampled orientations", ok))

    gauss = ProfileVector.gaussian()
    vals = [coefficient(orientation_system(0.7), Word((1,) * L, 2), gauss, gauss).value
            for L in range(1, 13)]
    checks.append(
        Check(
            "gaussian bound strictly decreasing",
            all(b < a for a, b in zip(vals, vals[1:])),
        )
    )
    return checks


def suite_gaussian() -> List[Check]:
    checks = []
    system = gram_matrix(ball(4, 2))
    checks.append(
        Check("gram matrix PSD on ball(4)", system.min_eigenvalue() >= -1e-8)
    )
    words = system.words
    ok = all(
        system.gram[i, j] == (len(x) + len(y) - distance(x, y)) / 2
        for i, x in enumerate(words)
        for j, y in enumerate(words[i:], i)
    )
    checks.append(Check("gram equals the Gromov products exactly on ball(4)", ok))

    words = [Word.identity(2), parse_word("ab", 2), parse_word("aB", 2), parse_word("aaa", 2)]
    sub = gram_matrix(words)
    draws = sub.sample_matrix(20_000, seed=5)
    ok = bool(np.all(draws[:, 0] == 0.0))
    emp = draws.T @ draws / len(draws)
    for i in range(len(words)):
        for j in range(len(words)):
            g_ii, g_jj, g_ij = sub.gram[i, i], sub.gram[j, j], sub.gram[i, j]
            stderr = math.sqrt((g_ii * g_jj + g_ij**2) / len(draws))
            if abs(emp[i, j] - g_ij) > 5.0 * stderr + 1e-12:
                ok = False
    checks.append(Check("sampling: identity is 0, covariance matches gram", ok))

    ok = all(
        abs(ProfileVector.window(n).gaussian_mean(ProfileVector.window(n), s)[0]
            - window_coefficient_by_quadrature(s, n))
        <= 1e-9
        for s, n in ((0.5, 1), (1.0, 10), (3.0, 2), (2.0, 100))
    )
    checks.append(Check("window coefficient: erf form vs quadrature", ok))

    ok = all(
        abs(cauchy_kernel_by_quadrature(x) * (4.0 + x * x) - 2.0 * math.pi) <= 1e-8
        for x in (0.0, 1.0, 5.0)
    )
    raw = ProfileVector.cauchy("raw")
    seq = [raw.gaussian_mean(raw, s)[0] for s in (0.0, 1.0, 2.0, 4.0)]
    ok = ok and all(b < a for a, b in zip(seq, seq[1:]))
    checks.append(Check("cauchy kernel identity and coefficient decay", ok))

    ok = True
    for g_text, i, j in (("ab", (0.0, 1.0), (0.0, 1.0)), ("abab", (-1.0, 2.0), (0.5, 3.0))):
        g = parse_word(g_text, 2)
        closed = coefficient(
            gaussian_system(), g, ProfileVector.indicator(*i), ProfileVector.indicator(*j)
        ).value
        quad = interval_overlap_by_quadrature(math.sqrt(len(g)), i, j)
        if abs(closed - quad) > 1e-9:
            ok = False
    checks.append(Check("interval overlap: erf form vs quadrature", ok))
    return checks


def suite_koopman() -> List[Check]:
    rng = random.Random(4404)
    osys = orientation_system(0.7)
    gsys = gaussian_system()
    w1 = ProfileVector.window(1)
    checks = []

    e = Word.identity(2)
    a = parse_word("a", 2)
    ok = (
        coefficient(osys, e, w1, w1).value == 1.0
        and coefficient(osys, a, w1, w1).value == 0.5
    )
    try:
        coefficient(osys, a, ProfileVector.cauchy(), ProfileVector.cauchy())
        ok = False
    except UnsupportedProfileError:
        pass
    checks.append(Check("exact routing and unsupported profile rejection", ok))

    ok = True
    for trial in range(8):
        system = osys if trial % 2 == 0 else gsys
        g = sample_word(rng.randint(1, 5), 2, rng)
        profile = (
            ProfileVector.window(rng.randint(1, 6))
            if (trial % 3 or system.kind == "orientation")
            else ProfileVector.cauchy()
        )
        exact = coefficient(system, g, profile, profile)
        mc = coefficient(
            system, g, profile, profile, budget=MCBudget(30_000, seed=trial), method="mc"
        )
        if abs(exact.value - mc.value) > 5.0 * mc.stderr + 1e-12:
            ok = False
    checks.append(Check("coefficient: exact route vs Monte Carlo", ok))

    exact = symmetric_difference(osys, a, w1)
    mc = symmetric_difference_mc(osys, a, w1, MCBudget(20_000, seed=3))
    ok = exact == 2.0 and abs(mc.value - exact) <= 5.0 * mc.stderr + 1e-12
    checks.append(Check("symmetric difference: defect identity and MC", ok))

    table = almost_invariant_sweep(osys, 3, [10, 100])
    ok = all(row.sup_defect <= row.bound + 1e-12 for row in table.rows)
    curve = decay_sweep(osys, ProfileVector.gaussian(), 6, per_shell_cap=4)
    values = [pt.estimate.value for pt in curve.points]
    ok = ok and [pt.radius for pt in curve.points] == list(range(1, 7))
    ok = ok and all(b < a for a, b in zip(values, values[1:]))
    ok = ok and all(abs(v) <= 1.0 + 1e-12 for v in values)
    checks.append(Check("sweeps: certified window bound and decay", ok))
    return checks


def _sign_flipped_defect(u: hs.FiniteUnitary, xi) -> float:
    """The injected fault: ``|| U P U* + P ||_HS^2`` in place of the defect."""
    p = hs.rank_one(xi, xi)
    return hs.HSOperator(hs.adjoint_act(u, p).matrix + p.matrix).hs_norm_sq()


def suite_hs(defect: Callable[..., float] = hs.projection_defect) -> List[Check]:
    rng = np.random.Generator(np.random.PCG64(5505))
    checks = []

    ok = True
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        u = hs.random_unitary(dim, rng)
        t = hs.HSOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        if abs(hs.trace(hs.adjoint_act(u, t)) - hs.trace(t)) > 1e-10:
            ok = False
    checks.append(Check("trace invariance under the adjoint action", ok))

    ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        x = hs.random_unit_vector(dim, rng)
        y = hs.random_unit_vector(dim, rng) * float(rng.uniform(0.2, 3.0))
        op = hs.rank_one(x, y)
        if abs(hs.trace(op) - hs.inner(y, x)) > 1e-12:
            ok = False
        if abs(op.hs_norm() - float(np.linalg.norm(y))) > 1e-12:
            ok = False
    checks.append(Check("rank-one trace and HS norm", ok))

    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        u = hs.random_unitary(dim, rng)
        x = hs.random_unit_vector(dim, rng)
        lhs = defect(u, x)
        rhs = hs.projection_defect_formula(u, x)
        if abs(lhs - rhs) > 1e-10:
            ok = False
    rot = hs.rotation_unitary(math.pi / 4.0)
    xi = np.array([1.0, 0.0], dtype=np.complex128)
    ok = ok and abs(defect(rot, xi) - 1.0) <= 1e-12
    checks.append(Check("projection-defect identity", ok))

    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        u = hs.random_unitary(dim, rng)
        xi1, xi2 = hs.random_unit_vector(dim, rng), hs.random_unit_vector(dim, rng)
        eta1, eta2 = hs.random_unit_vector(dim, rng), hs.random_unit_vector(dim, rng)
        value = hs.hs_coefficient(hs.rank_one(xi1, eta1), hs.rank_one(xi2, eta2), u)
        bound = abs(hs.inner(u.matrix @ eta2, eta1))
        if abs(value) > bound + 1e-10:
            ok = False
    checks.append(Check("rank-one bound on the HS coefficient", ok))
    return checks


def suite_csv() -> List[Check]:
    checks = []
    curve = decay_sweep(orientation_system(0.7), ProfileVector.gaussian(), 4, per_shell_cap=3)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(curve, buf)
        bufs.append(buf.getvalue())
    ok = bufs[0] == bufs[1] and bufs[0].startswith(
        "system,profile,radius,word,method,value,stderr,samples,seed\n"
    )
    table = almost_invariant_sweep(gaussian_system(), 3, [10, 100])
    buf = io.StringIO()
    emit_csv(table, buf)
    ok = ok and buf.getvalue().startswith("system,ball_radius,n,sup_defect,bound\n")
    checks.append(Check("CSV emission is deterministic with fixed headers", ok))
    return checks


SUITES: list[tuple[str, Callable[[], List[Check]]]] = [
    ("group-tree", suite_group_tree),
    ("orientation-dynamics", suite_orientation),
    ("gaussian-dynamics", suite_gaussian),
    ("koopman-lab", suite_koopman),
    ("hs-adjoint", suite_hs),
    ("csv-io", suite_csv),
]


def run_selftest(verbosity: int = 1, inject_fault: str | None = None, out=None) -> int:
    """Run every suite; returns 0 when all checks pass, 1 otherwise."""
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {KNOWN_FAULTS}")
    emit = out if out is not None else print
    suites = dict(SUITES)
    if inject_fault == "projection-defect-sign":
        suites["hs-adjoint"] = lambda: suite_hs(_sign_flipped_defect)
    all_ok = True
    for name, fn in suites.items():
        start = time.perf_counter()
        checks = fn()
        elapsed = time.perf_counter() - start
        passed = sum(1 for c in checks if c.ok)
        suite_ok = passed == len(checks)
        all_ok = all_ok and suite_ok
        if verbosity >= 1:
            status = "ok" if suite_ok else "FAIL"
            emit(f"[{status}] {name}: {passed}/{len(checks)} checks ({elapsed:.2f}s)")
        for c in checks:
            if not c.ok or verbosity >= 2:
                mark = "pass" if c.ok else "FAIL"
                detail = f" ({c.detail})" if c.detail else ""
                emit(f"    [{mark}] {c.name}{detail}")
    return 0 if all_ok else 1
