"""The benchmark's workloads: CLI operations and the checks on their output.

An operation is one or more CLI invocations together with their checks.
Commands marked ``timed`` run on one worker and make up the end-to-end
metrics; the worker-invariance comparison runs untimed, because it needs
a second worker.  ``known_fault`` names the single check tag an operation
is expected to fail today because of a documented program fault; any
other problem makes the run incorrect.

The README in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks

P = Fraction(7, 10)
WINDOW_SIZES = [10, 100, 1000, 10_000_000]

# Sizes, kept in one place so that a resize is one edit.
EXACT_RADIUS = 9
MC_SAMPLES = 200_000
MC_RADIUS = 12
INVARIANCE_SAMPLES = 30_001  # odd, so one and two workers split it differently
INVARIANCE_SEED = 0  # fixed: this operation's inputs must not depend on the run's seed
CAUCHY_CAP = 40
HS_SAMPLES = 2_000
GRAM_RADIUS = 4
WINDOW_RADIUS = 20


@dataclass
class Command:
    args: list[str]
    timed: bool = True


@dataclass
class Operation:
    name: str
    commands: list[Command]
    check: Callable[[list[bytes]], list]
    known_fault: Optional[str] = None


@dataclass
class Workload:
    name: str
    operations: list[Operation]


def _system_args(system: str) -> list[str]:
    return ["--system", system] + (["--p", str(float(P))] if system == "orientation" else [])


def _p(system: str) -> Optional[Fraction]:
    return P if system == "orientation" else None


def decay_exact(seed: int) -> Workload:
    ops = []
    for system, profile in (("orientation", "gaussian"), ("gaussian", "window:25")):
        args = ["decay", *_system_args(system), "--profile", profile, "--method", "exact",
                "--max-radius", str(EXACT_RADIUS), "--shell-cap", "100000", "--seed", str(seed),
                "--workers", "1"]
        ops.append(Operation(
            f"exact {system} {profile}",
            [Command(args)],
            lambda out, system=system, profile=profile: checks.check_decay(
                out[0].decode(), system=system, p=_p(system), profile=profile,
                max_radius=EXACT_RADIUS, shell_cap=100000, samples=0, seed=seed, method="exact"),
        ))
    return Workload("decay-exact", ops)


def _mc_args(system: str, samples: int, seed: int, workers: int) -> list[str]:
    return ["decay", *_system_args(system), "--profile", "gaussian", "--method", "mc",
            "--samples", str(samples), "--max-radius", str(MC_RADIUS), "--shell-cap", "2",
            "--seed", str(seed), "--workers", str(workers)]


def _mc_check(text: str, system: str, samples: int, seed: int) -> list:
    return checks.check_decay(text, system=system, p=_p(system), profile="gaussian",
                              max_radius=MC_RADIUS, shell_cap=2, samples=samples, seed=seed,
                              method="mc")


def decay_mc(seed: int) -> Workload:
    ops = []
    for system in ("orientation", "gaussian"):
        ops.append(Operation(
            f"mc {system}",
            [Command(_mc_args(system, MC_SAMPLES, seed, 1))],
            lambda out, system=system: _mc_check(out[0].decode(), system, MC_SAMPLES, seed),
        ))
    for system in ("orientation", "gaussian"):
        ops.append(Operation(
            f"mc {system} workers 1 vs 2",
            [Command(_mc_args(system, INVARIANCE_SAMPLES, INVARIANCE_SEED, w), timed=False)
             for w in (1, 2)],
            lambda out, system=system: (
                _mc_check(out[0].decode(), system, INVARIANCE_SAMPLES, INVARIANCE_SEED)
                + _mc_check(out[1].decode(), system, INVARIANCE_SAMPLES, INVARIANCE_SEED)
                + checks.check_same_bytes(out[0], out[1], f"{system} CSV at 1 and 2 workers")),
            known_fault="worker-invariance",
        ))
    return Workload("decay-mc", ops)


def desk_session(seed: int) -> Workload:
    s = ["--seed", str(seed), "--workers", "1"]
    ops = [Operation(
        "decay gaussian cauchy",
        [Command(["decay", "--system", "gaussian", "--profile", "cauchy",
                  "--shell-cap", str(CAUCHY_CAP), *s])],
        lambda out: checks.check_decay(out[0].decode(), system="gaussian", p=None,
                                       profile="cauchy", max_radius=20, shell_cap=CAUCHY_CAP,
                                       samples=0, seed=seed, method="exact"),
    )]
    for system in ("orientation", "gaussian"):
        ops.append(Operation(
            f"window {system}",
            [Command(["window", *_system_args(system), "--max-radius", str(WINDOW_RADIUS),
                      "--n", ",".join(map(str, WINDOW_SIZES)), *s])],
            lambda out, system=system: checks.check_window(
                out[0].decode(), system=system, p=_p(system), ball_radius=WINDOW_RADIUS,
                sizes=WINDOW_SIZES),
            known_fault="certified-bound" if system == "gaussian" else None,
        ))
    ops.append(Operation(
        "gram",
        [Command(["gram", "--max-radius", str(GRAM_RADIUS), *s])],
        lambda out: checks.check_gram(out[0].decode(), max_radius=GRAM_RADIUS),
    ))
    ops.append(Operation(
        "hs",
        [Command(["hs", "--samples", str(HS_SAMPLES), *s])],
        lambda out: checks.check_hs(out[0].decode(), samples=HS_SAMPLES),
    ))
    return Workload("desk-session", ops)


WORKLOADS = {"decay-exact": decay_exact, "decay-mc": decay_mc, "desk-session": desk_session}
