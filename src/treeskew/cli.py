"""Command line driver for batch experiments.

Subcommands::

    treeskew decay     coefficient decay over shells, one CSV row per word
    treeskew window    sup window defect over a ball vs certified bound (CSV)
    treeskew gram      Gram matrix of the Gaussian field on a ball (CSV)
    treeskew hs        projection-defect bench on random unitaries (CSV)
    treeskew selftest  run the identity catalogue at small counts

Configuration comes from flags, optionally layered over a ``--config``
file of ``key=value`` lines (same keys as the flags, underscores instead
of dashes, and ``window_sizes`` for ``--n``; ``#`` starts a comment).
Flags override the file.  A flag value is parsed exactly as the same
key's config line, so a malformed value of either is an invalid
configuration whose message names the field.  CSV goes
to ``--out`` or stdout; one-line summaries go to stderr so stdout stays
machine-readable.  ``--out`` is opened once every check that can reject
the request has passed, and before any shell, sample or matrix is built,
so an invalid request leaves no file and an unwritable one costs no work.

Exit codes: 0 success, 1 selftest failure, 2 invalid configuration,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional, TextIO

from .gaussian import GaussianMeasure, gram_matrix
from .koopman import (
    MCBudget,
    System,
    _check_sweep,
    _fmt,
    almost_invariant_sweep,
    decay_sweep,
    emit_csv,
)
from .orientation import OrientationMeasure
from .profiles import ProfileVector, check_window_size
from .rng import MASK64
from .words import ball, ball_size

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters shared by the experiment subcommands."""

    system: str = "orientation"
    rank: int = 2
    p: float = 0.7
    profile: str = "gaussian"
    max_radius: int = 20
    shell_cap: int = 40
    window_sizes: tuple[int, ...] = (10, 100, 1000)
    samples: int = 100_000
    seed: int = 0
    workers: int = 1  # accepted and validated, but it selects nothing
    method: str = "exact"
    out: Optional[str] = None


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.system not in ("orientation", "gaussian"):
        raise ConfigError(f"system must be 'orientation' or 'gaussian', got {config.system!r}")
    if config.rank < 2:
        raise ConfigError(f"rank must be >= 2, got {config.rank}")
    if not 0.0 < config.p < 1.0:
        raise ConfigError(f"p must lie strictly between 0 and 1, got {config.p}")
    parse_profile(config.profile)
    if not 0 <= config.max_radius <= 20:
        raise ConfigError(f"max_radius must lie in [0, 20], got {config.max_radius}")
    if config.shell_cap < 1:
        raise ConfigError(f"shell_cap must be >= 1, got {config.shell_cap}")
    if not config.window_sizes:
        raise ConfigError("window_sizes must name at least one window size")
    try:
        for n in config.window_sizes:
            check_window_size(n)
    except ValueError as exc:
        raise ConfigError(f"window_sizes: {exc}") from exc
    if config.samples < 1000:
        raise ConfigError(f"samples must be >= 1000, got {config.samples}")
    if not 0 <= config.seed <= MASK64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {config.seed}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.method not in ("exact", "mc"):
        raise ConfigError(f"method must be exact or mc, got {config.method!r}")
    return config


def parse_profile(text: str) -> ProfileVector:
    """Parse a profile string: gaussian, cauchy, window:N, indicator:a,b."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "gaussian" and not arg:
            return ProfileVector.gaussian()
        if kind == "cauchy" and not arg:
            return ProfileVector.cauchy()
        if kind == "window":
            return ProfileVector.window(int(arg))
        if kind == "indicator":
            lo, _, hi = arg.partition(",")
            return ProfileVector.indicator(float(lo), float(hi))
    except ValueError as exc:
        raise ConfigError(f"profile {text!r}: {exc}") from exc
    raise ConfigError(
        f"profile must be gaussian, cauchy, window:N or indicator:a,b, got {text!r}"
    )


def _parse_window_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# field: (parser, flag, metavar, help).  A flag value and a config line
# value are the same text and go through the same parser (_set_field).
_FIELDS = {
    "system": (str, "--system", "NAME", "orientation | gaussian"),
    "rank": (int, "--rank", "K", "free-group rank (>= 2)"),
    "p": (float, "--p", "P", "orientation bias toward the basepoint"),
    "profile": (str, "--profile", "SPEC", "gaussian | cauchy | window:N | indicator:a,b"),
    "max_radius": (int, "--max-radius", "R", "shell or ball radius (<= 20)"),
    "shell_cap": (int, "--shell-cap", "CAP", "max words evaluated per shell"),
    "window_sizes": (
        _parse_window_sizes, "--n", "N1,N2,...", "window half-widths for the window sweep"
    ),
    "samples": (int, "--samples", "N", "Monte Carlo samples, or hs trials"),
    "seed": (int, "--seed", "SEED", "random seed"),
    "workers": (int, "--workers", "W", "accepted (>= 1) and has no effect"),
    "method": (str, "--method", "METHOD", "exact | mc"),
    "out": (str, "--out", "FILE", "CSV destination (default stdout)"),
}


def _set_field(config: ExperimentConfig, key: str, text: str) -> ExperimentConfig:
    try:
        value = _FIELDS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return replace(config, **{key: value})


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config as the key=value text the --config flag reads back."""
    lines = []
    for field in fields(ExperimentConfig):
        value = getattr(config, field.name)
        if value is None:
            continue
        if field.name == "window_sizes":
            value = ",".join(str(n) for n in value)
        lines.append(f"{field.name}={value}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Apply key=value lines on top of ``base`` (defaults if omitted)."""
    config = base if base is not None else ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key not in _FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            config = _set_field(config, key, value)
        except ConfigError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from exc
    return config


def _system(config: ExperimentConfig) -> System:
    if config.system == "orientation":
        return OrientationMeasure(config.p, config.rank)
    return GaussianMeasure(config.rank)


@contextlib.contextmanager
def _open_out(out: Optional[str]) -> Iterator[TextIO]:
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", newline="") as fh:
            yield fh


def cmd_decay(config: ExperimentConfig) -> int:
    system = _system(config)
    profile = parse_profile(config.profile)
    _check_sweep(system, profile, config.max_radius, config.shell_cap, config.method)
    with _open_out(config.out) as fh:
        curve = decay_sweep(
            system,
            profile,
            config.max_radius,
            per_shell_cap=config.shell_cap,
            budget=MCBudget(config.samples, config.seed),
            method=config.method,
        )
        emit_csv(curve, fh)
    last = [pt for pt in curve.points if pt.radius == config.max_radius]
    last_count = sum(len(pt.words) for pt in last)
    # weights below 1 keep each term, and so the sum, within the range of the values
    last_mean = math.fsum(len(pt.words) / last_count * pt.estimate.value for pt in last)
    print(
        f"decay: {system.label()} {profile.label()} shells=1..{config.max_radius} "
        f"points={sum(len(pt.words) for pt in curve.points)} last_mean={last_mean:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_window(config: ExperimentConfig) -> int:
    system = _system(config)
    with _open_out(config.out) as fh:
        table = almost_invariant_sweep(system, config.max_radius, config.window_sizes)
        emit_csv(table, fh)
    worst = max((row.sup_defect for row in table.rows), default=0.0)
    print(
        f"window: {system.label()} ball_radius={config.max_radius} "
        f"n={','.join(str(r.n) for r in table.rows)} worst_defect={worst:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


_GRAM_WORD_LIMIT = ball_size(4, 2)


def cmd_gram(config: ExperimentConfig) -> int:
    size = ball_size(config.max_radius, config.rank)
    if size > _GRAM_WORD_LIMIT:
        raise ConfigError(
            f"max_radius: gram emits a dense matrix, so its ball is capped at "
            f"{_GRAM_WORD_LIMIT} words; radius {config.max_radius} at rank {config.rank} "
            f"has {size} words"
        )
    with _open_out(config.out) as fh:
        words = ball(config.max_radius, config.rank)
        system = gram_matrix(words)
        # word labels hold no comma, quote or newline, so csv would quote no
        # field, and each matrix row goes out as one write
        labels = [str(w) for w in words]
        fh.write("i,j,word_i,word_j,value\n")
        for i, (wi, row) in enumerate(zip(labels, system.gram.tolist())):
            fh.write("".join(
                [f"{i},{j},{wi},{wj},{_fmt(x)}\n" for j, (wj, x) in enumerate(zip(labels, row))]
            ))
    print(
        f"gram: radius={config.max_radius} size={len(words)} "
        f"min_eig={system.min_eigenvalue():.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_hs(config: ExperimentConfig) -> int:
    from . import hs  # imported on use: the other commands never compile the bench

    worst = 0.0
    with _open_out(config.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "dim", "defect", "formula", "residual"])
        for trial, dim, defect, formula in hs.projection_defect_trials(
            config.samples, config.seed, hs.projection_defect
        ):
            residual = abs(defect - formula)
            worst = max(worst, residual)
            writer.writerow(
                [trial, dim, _fmt(defect), _fmt(formula), _fmt(residual)]
            )
    print(
        f"hs: trials={config.samples} dims=2..16 max_residual={worst:.3g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_selftest(verbosity: int = 1, inject_fault: Optional[str] = None) -> int:
    from .selftest import KNOWN_FAULTS, run_selftest  # imported on use, as in cmd_hs

    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        print(
            f"error: fault must be one of {', '.join(KNOWN_FAULTS)}, got {inject_fault!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    code = run_selftest(verbosity=verbosity, inject_fault=inject_fault)
    return EXIT_OK if code == 0 else EXIT_TEST_FAILURE


# Each command takes a config that _config_from_args has validated.
_COMMANDS = {
    "decay": cmd_decay,
    "window": cmd_window,
    "gram": cmd_gram,
    "hs": cmd_hs,
}

_COMMAND_DEFAULTS = {
    "decay": {},
    "window": {"max_radius": 4},
    "gram": {"max_radius": 3},
    "hs": {"samples": 1000},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeskew",
        description="Coefficient-decay and almost-invariance experiments "
        "for skew products over free-group trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decay", "coefficient decay over shells"),
        ("window", "window defect sweep over a ball"),
        ("gram", "Gram matrix of the Gaussian field on a ball"),
        ("hs", "projection-defect bench on random unitaries"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="FILE", help="key=value config file")
        for key, (_, flag, metavar, flag_help) in _FIELDS.items():
            cmd.add_argument(flag, dest=key, metavar=metavar, help=flag_help)
    st = sub.add_parser("selftest", help="run the invariant suites")
    st.add_argument("--verbosity", type=int, default=1, choices=[0, 1, 2])
    st.add_argument(
        "--fault", metavar="NAME", help="inject a known fault; the run must then fail"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = replace(ExperimentConfig(), **_COMMAND_DEFAULTS[args.command])
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"config file {args.config!r}: {exc}") from exc
        config = parse_config(text, base=config)
    for key in _FIELDS:
        text = getattr(args, key)
        if text is not None:
            config = _set_field(config, key, text)
    return validate_config(config)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args.verbosity, args.fault)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
