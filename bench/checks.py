"""Independent checks of treeskew CLI output.

Every reference value here is computed from the defining formula, with
mpmath at 40 digits or with exact rationals, never from treeskew code and
never from stored CSV.  Each check returns a list of problems; a problem is
a ``(tag, message)`` pair, and the tag names the property that broke.

Tolerances (the README repeats them):

* exact decay values: relative error <= 1e-12;
* Monte Carlo decay values: ``|value - exact| <= Z_LIMIT * stderr``; where
  stderr is 0, relative error <= 1e-12;
* Gaussian-averaged Cauchy values (adaptive quadrature): absolute error
  <= 1e-9;
* window defects: absolute error <= 1e-14 against the exact sup, and
  ``sup_defect <= bound`` with no slack; the bound itself must match its
  formula to relative 1e-15;
* gram values: exactly equal to the common-prefix length;
* hs residuals: ``residual == |defect - formula|`` exactly and
  ``residual <= 1e-12``; every defect lies in [0, 2].
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 40

EXACT_RTOL = 1e-12
Z_LIMIT = 6.0
CAUCHY_ATOL = 1e-9
DEFECT_ATOL = 1e-14
BOUND_RTOL = 1e-15
HS_RESIDUAL_MAX = 1e-12

RANK = 2
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
DECAY_HEADER = ["system", "profile", "radius", "word", "method", "value", "stderr", "samples", "seed"]


def shell_size(length: int) -> int:
    return 1 if length == 0 else 2 * RANK * (2 * RANK - 1) ** (length - 1)


def word_problem(word: str, length: int) -> str | None:
    """Why ``word`` is not a reduced rank-2 word of the given length, if it is not."""
    letters = "" if word == "1" else word
    if len(letters) != length:
        return f"word {word!r} has length {len(letters)}, expected {length}"
    for i, c in enumerate(letters):
        if c not in _INVERSE:
            return f"word {word!r} has letter {c!r}"
        if i and letters[i - 1] == _INVERSE[c]:
            return f"word {word!r} is not reduced"
    return None


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [("schema", f"header {rows[:1]!r}, expected {header!r}")]
    return rows[1:], []


# ---------------------------------------------------------------- references


@lru_cache(maxsize=None)
def binomial_law(length: int, p: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """Exact law of the orientation path sum: ``P(S = L - 2j) = C(L,j) p^j (1-p)^(L-j)``."""
    return tuple(
        (length - 2 * j, math.comb(length, j) * p**j * (1 - p) ** (length - j))
        for j in range(length + 1)
    )


@lru_cache(maxsize=None)
def orientation_gaussian_value(length: int, p: Fraction) -> float:
    """``sum_j C(L,j) p^j (1-p)^(L-j) exp(-(L-2j)^2/2)``."""
    total = mpmath.fsum(
        mpmath.mpf(prob.numerator) / prob.denominator * mpmath.exp(-mpmath.mpf(s * s) / 2)
        for s, prob in binomial_law(length, p)
    )
    return float(total)


@lru_cache(maxsize=None)
def normal_gaussian_value(length: int) -> float:
    """``E[exp(-X^2/2)]`` for ``X ~ N(0, L)``, by quadrature of the defining integral."""
    sigma = mpmath.sqrt(length)
    return float(
        mpmath.quad(lambda x: mpmath.exp(-x * x / 2) * mpmath.npdf(x, 0, sigma), [-mpmath.inf, 0, mpmath.inf])
    )


def _normal_abs_capped(c, sigma):
    """``E[min(|X|, c)]`` for ``X ~ N(0, sigma^2)``: ``2 int_0^c x phi + c P(|X| > c)``."""
    c = mpmath.mpf(c)
    head = 2 * sigma / mpmath.sqrt(2 * mpmath.pi) * (1 - mpmath.exp(-c * c / (2 * sigma * sigma)))
    return head + c * mpmath.erfc(c / (sigma * mpmath.sqrt(2)))


@lru_cache(maxsize=None)
def normal_window_value(length: int, n: int) -> float:
    """``E[max(2n - |X|, 0)] / (2n)`` for ``X ~ N(0, L)``, i.e. ``1 - E[min(|X|, 2n)]/(2n)``."""
    c = 2 * n
    return float(1 - _normal_abs_capped(c, mpmath.sqrt(length)) / c)


@lru_cache(maxsize=None)
def cauchy_value(length: int) -> float:
    """``pi^{3/2}/(sqrt2 sigma) e^{2/sigma^2} erfc(sqrt2/sigma) / (pi/2)`` with ``sigma = sqrt(L)``."""
    sigma = mpmath.sqrt(length)
    pi = mpmath.pi
    raw = pi**1.5 / (mpmath.sqrt(2) * sigma) * mpmath.exp(2 / sigma**2) * mpmath.erfc(mpmath.sqrt(2) / sigma)
    return float(raw / (pi / 2))


@lru_cache(maxsize=None)
def window_defect(system: str, ball_radius: int, n: int, p: Fraction) -> float:
    """Exact ``sup_{|g| <= R} E[min(|S_g|, 2n)] / (2n)``.

    Orientation: exact rationals over the binomial law.  Gaussian: the
    defect grows with ``|g|``, so the sup sits at ``|g| = R``.
    """
    c = 2 * n
    if system == "orientation":
        return float(
            max(
                sum(prob * min(abs(s), c) for s, prob in binomial_law(length, p)) / c
                for length in range(ball_radius + 1)
            )
        )
    if ball_radius == 0:
        return 0.0
    return float(_normal_abs_capped(c, mpmath.sqrt(ball_radius)) / c)


def window_bound(system: str, ball_radius: int, n: int) -> float:
    """The certified rate: ``R/(2n)``, or ``sqrt(R) sqrt(2/pi) / (2n)`` for the Gaussian system."""
    if system == "orientation":
        return float(mpmath.mpf(ball_radius) / (2 * n))
    return float(mpmath.sqrt(ball_radius) * mpmath.sqrt(2 / mpmath.pi) / (2 * n))


# ------------------------------------------------------------------- checks


def check_decay(text: str, *, system: str, p: Fraction | None, profile: str, max_radius: int,
                shell_cap: int, samples: int, seed: int, method: str) -> list:
    """A decay CSV: schema, shell make-up, provenance columns and values."""
    rows, problems = _rows(text, DECAY_HEADER)
    if problems:
        return problems
    label = f"orientation(p={float(p)!r})" if system == "orientation" else "gaussian"
    profile_label = {"gaussian": "gaussian[unit]", "cauchy": "cauchy[unit]"}.get(
        profile, f"window({profile.partition(':')[2]})"
    )
    shells: dict[int, list[list[str]]] = {}
    for row in rows:
        if len(row) != len(DECAY_HEADER):
            return [("schema", f"row {row!r} has {len(row)} fields")]
        if row[0] != label or row[1] != profile_label:
            return [("schema", f"row {row!r}: expected labels {label!r}, {profile_label!r}")]
        shells.setdefault(int(row[2]), []).append(row)
    if sorted(shells) != list(range(1, max_radius + 1)):
        return [("shells", f"radii {sorted(shells)}, expected 1..{max_radius}")]
    expect_method = {"exact": "exact", "mc": "monte-carlo"}[method]
    if method == "exact" and profile == "cauchy":
        expect_method = "quadrature"
    expect_samples = samples if method == "mc" else 0
    for length, shell in shells.items():
        expected = min(shell_cap, shell_size(length))
        words = {row[3] for row in shell}
        if len(shell) != expected or len(words) != expected:
            problems.append(("shells", f"shell {length}: {len(shell)} rows, {len(words)} distinct, expected {expected}"))
        bad = next(filter(None, (word_problem(w, length) for w in words)), None)
        if bad:
            problems.append(("shells", bad))
        for row in shell:
            if (row[4], int(row[7]), int(row[8])) != (expect_method, expect_samples, seed):
                problems.append(("provenance", f"row {row!r}: expected {expect_method}, {expect_samples}, {seed}"))
                break
        ref = _decay_reference(system, p, profile, length)
        if method == "exact" and len({row[5] for row in shell}) != 1:
            problems.append(("values", f"shell {length}: words of one length carry different values"))
        for row in shell:
            value, stderr = float(row[5]), float(row[6])
            err = abs(value - ref)
            if method == "mc" and stderr > 0.0:
                ok, limit = err <= Z_LIMIT * stderr, f"{Z_LIMIT} stderr = {Z_LIMIT * stderr:.3g}"
            elif profile == "cauchy":
                ok, limit = err <= CAUCHY_ATOL, f"{CAUCHY_ATOL:g}"
            else:
                ok, limit = err <= EXACT_RTOL * abs(ref), f"{EXACT_RTOL:g} relative"
            if not ok or (method != "mc" and stderr != 0.0):
                problems.append(("values", f"{row[3]}: value {value!r} stderr {stderr!r}, exact {ref!r}, limit {limit}"))
                break
    return problems


def _decay_reference(system: str, p: Fraction | None, profile: str, length: int) -> float:
    if profile == "cauchy":
        return cauchy_value(length)
    if profile == "gaussian":
        return orientation_gaussian_value(length, p) if system == "orientation" else normal_gaussian_value(length)
    return normal_window_value(length, int(profile.partition(":")[2]))


def check_same_bytes(first: bytes, second: bytes, what: str) -> list:
    if first == second:
        return []
    a, b = first.decode().splitlines(), second.decode().splitlines()
    diff = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return [("worker-invariance", f"{what}: {diff} of {len(a)} lines differ")]


WINDOW_HEADER = ["system", "ball_radius", "n", "sup_defect", "bound"]


def check_window(text: str, *, system: str, p: Fraction | None, ball_radius: int, sizes: list[int]) -> list:
    rows, problems = _rows(text, WINDOW_HEADER)
    if problems:
        return problems
    label = f"orientation(p={float(p)!r})" if system == "orientation" else "gaussian"
    if [(r[0], int(r[1]), int(r[2])) for r in rows] != [(label, ball_radius, n) for n in sizes]:
        return [("schema", f"rows {[r[:3] for r in rows]!r}")]
    for row in rows:
        n, defect, bound = int(row[2]), float(row[3]), float(row[4])
        ref = window_defect(system, ball_radius, n, p)
        if abs(defect - ref) > DEFECT_ATOL:
            problems.append(("values", f"n={n}: sup_defect {defect!r}, exact {ref!r}"))
        ref_bound = window_bound(system, ball_radius, n)
        if abs(bound - ref_bound) > BOUND_RTOL * ref_bound:
            problems.append(("values", f"n={n}: bound {bound!r}, formula {ref_bound!r}"))
        if defect > bound:
            problems.append(("certified-bound", f"n={n}: sup_defect {defect!r} > bound {bound!r}"))
    return problems


GRAM_HEADER = ["i", "j", "word_i", "word_j", "value"]


def check_gram(text: str, *, max_radius: int) -> list:
    """Dense row-major Gram matrix on the ball: entries are common-prefix lengths."""
    rows, problems = _rows(text, GRAM_HEADER)
    if problems:
        return problems
    m = sum(shell_size(length) for length in range(max_radius + 1))
    if len(rows) != m * m:
        return [("schema", f"{len(rows)} rows, expected {m}^2")]
    words = [rows[i][3] for i in range(m)]
    if len(set(words)) != m:
        return [("words", "the ball lists a word twice")]
    letters = ["" if w == "1" else w for w in words]
    for w, x in zip(words, letters):
        bad = word_problem(w, len(x)) or (len(x) > max_radius and f"word {w!r} outside the ball")
        if bad:
            return [("words", bad)]
    for k, row in enumerate(rows):
        i, j = divmod(k, m)
        if (int(row[0]), int(row[1]), row[2], row[3]) != (i, j, words[i], words[j]):
            return [("schema", f"row {k} is {row[:4]!r}, expected ({i}, {j}, {words[i]}, {words[j]})")]
        x, y = letters[i], letters[j]
        prefix = 0
        while prefix < min(len(x), len(y)) and x[prefix] == y[prefix]:
            prefix += 1
        if float(row[4]) != prefix:
            problems.append(("values", f"gram[{words[i]},{words[j]}] = {row[4]}, common prefix {prefix}"))
            break
    return problems


HS_HEADER = ["trial", "dim", "defect", "formula", "residual"]


def check_hs(text: str, *, samples: int) -> list:
    rows, problems = _rows(text, HS_HEADER)
    if problems:
        return problems
    if [(int(r[0]), int(r[1])) for r in rows] != [(t, 2 + t % 15) for t in range(samples)]:
        return [("schema", "trial and dim columns do not run 0..N-1 and 2 + trial % 15")]
    for row in rows:
        defect, formula, residual = float(row[2]), float(row[3]), float(row[4])
        if not 0.0 <= defect <= 2.0:
            problems.append(("values", f"trial {row[0]}: defect {defect!r} outside [0, 2]"))
        elif residual != abs(defect - formula) or residual > HS_RESIDUAL_MAX:
            problems.append(("values", f"trial {row[0]}: residual {residual!r} for {defect!r} vs {formula!r}"))
        if problems:
            break
    return problems
