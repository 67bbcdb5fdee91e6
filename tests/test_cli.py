import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

import treeskew
from conftest import gromov_products
from treeskew import koopman
from treeskew.cli import (
    _FIELDS,
    ConfigError,
    ExperimentConfig,
    _config_from_args,
    build_parser,
    main,
    parse_config,
    parse_profile,
    serialize_config,
    validate_config,
)
from treeskew.parallel import BLOCK_SIZE
from treeskew.profiles import ProfileVector
from treeskew.words import Shell, ball


class TestConfigValidation:
    def test_defaults_are_valid(self):
        validate_config(ExperimentConfig())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("system", "brownian"),
            ("rank", 1),
            ("p", 0.0),
            ("p", 1.5),
            ("profile", "triangle"),
            ("max_radius", -1),
            ("max_radius", 21),
            ("shell_cap", 0),
            ("window_sizes", ()),
            ("window_sizes", (10, 0)),
            ("samples", 999),
            ("seed", -1),
            ("seed", 2**64),
            ("workers", 0),
            ("method", "fast"),
            ("method", "auto"),
        ],
    )
    def test_each_field_is_checked(self, field, value):
        from dataclasses import replace

        with pytest.raises(ConfigError, match=field.split("_")[0]):
            validate_config(replace(ExperimentConfig(), **{field: value}))

    def test_parse_profile_kinds(self):
        assert parse_profile("gaussian") == ProfileVector.gaussian()
        assert parse_profile("cauchy") == ProfileVector.cauchy()
        assert parse_profile("window:5") == ProfileVector.window(5)
        assert parse_profile("indicator:-1,2.5") == ProfileVector.indicator(-1.0, 2.5)

    @pytest.mark.parametrize("text", ["gauss", "window:", "window:x", "indicator:3", "gaussian:2"])
    def test_parse_profile_rejects(self, text):
        with pytest.raises(ConfigError, match="profile"):
            parse_profile(text)


class TestConfigFile:
    def test_round_trip(self):
        config = ExperimentConfig(
            system="gaussian",
            rank=3,
            profile="window:4",
            max_radius=6,
            window_sizes=(5, 50),
            samples=2000,
            seed=9,
            method="mc",
        )
        assert parse_config(serialize_config(config)) == config

    def test_comments_and_blanks(self):
        text = "# header\n\np = 0.4   # inline\nseed=3\n"
        config = parse_config(text)
        assert config.p == 0.4 and config.seed == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("radius=3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("just some words\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*rank"):
            parse_config("p=0.5\nrank=two\n")

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p=1.5\nmax_radius=2\n")
        # the file alone is invalid, but the flag repairs it before validation
        code = main(["decay", "--config", str(cfg), "--p", "0.3", "--shell-cap", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "orientation(p=0.3)" in err
        assert "shells=1..2" in err


# one valid, non-default text per field
FIELD_TEXTS = {
    "system": "gaussian",
    "rank": "3",
    "p": "0.25",
    "profile": "window:4",
    "max_radius": "5",
    "shell_cap": "7",
    "window_sizes": "5,50",
    "samples": "2000",
    "seed": "9",
    "workers": "2",
    "method": "mc",
    "out": "x.csv",
}


class TestFieldTable:
    def test_one_row_per_config_field(self):
        names = [field.name for field in fields(ExperimentConfig)]
        assert list(_FIELDS) == names
        assert list(FIELD_TEXTS) == names

    @pytest.mark.parametrize("key", list(FIELD_TEXTS))
    def test_flag_and_config_line_agree(self, tmp_path, key):
        text = FIELD_TEXTS[key]
        flag = _FIELDS[key][1]
        from_flag = _config_from_args(build_parser().parse_args(["decay", flag, text]))
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key}={text}\n")
        from_file = _config_from_args(build_parser().parse_args(["decay", "--config", str(cfg)]))
        assert from_flag == from_file == parse_config(f"{key}={text}\n")
        assert from_flag != ExperimentConfig()

    @pytest.mark.parametrize(
        "flag,text,field",
        [("--rank", "x", "rank"), ("--system", "brownian", "system"),
         ("--method", "fast", "method"), ("--method", "auto", "method")],
    )
    def test_malformed_flag_is_a_config_error(self, capsys, flag, text, field):
        assert main(["decay", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}")
        assert err.count("\n") == 1


class TestEnumerationLimit:
    def test_large_cap_does_not_lift_the_limit(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a shell was enumerated before the limit check")

        monkeypatch.setattr(koopman, "_shell_words", refuse)
        argv = ["decay", "--method", "exact", "--max-radius", "11", "--shell-cap", "1000000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "length 11 has 236196 words" in err and "per_shell_cap" in err

    def test_cap_under_the_limit_still_runs(self, monkeypatch, capsys):
        seen = []

        def one_word(length, rank, cap, seed):
            seen.append((length, cap))
            return Shell(length, rank, (0,))

        monkeypatch.setattr(koopman, "_shell_words", one_word)
        argv = ["decay", "--method", "exact", "--max-radius", "10", "--shell-cap", "1000000"]
        assert main(argv) == 0
        assert seen == [(length, 1_000_000) for length in range(1, 11)]
        capsys.readouterr()

    def test_capped_shells_beyond_ssize_t_run(self, capsys):
        # shell 20 at rank 5 has 1.35e19 words, more than len() of a range can count
        argv = ["decay", "--rank", "5", "--max-radius", "20", "--shell-cap", "2"]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert len(rows) == 40
        for radius in range(1, 21):
            words = [row[3] for row in rows if row[2] == str(radius)]
            assert len(set(words)) == 2 and all(len(word) == radius for word in words)


class TestExitCodes:
    def test_ok(self, capsys):
        assert main(["decay", "--max-radius", "2", "--shell-cap", "2"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("system,profile,radius,word,method,value,stderr,samples,seed\n")
        assert err.startswith("decay:")

    def test_invalid_p(self, capsys):
        assert main(["decay", "--p", "1.5"]) == 2
        assert "p must lie strictly between 0 and 1" in capsys.readouterr().err

    def test_invalid_profile(self, capsys):
        assert main(["decay", "--profile", "sombrero"]) == 2
        assert "profile" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("radius=3\n")
        assert main(["decay", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["decay", "--config", str(tmp_path / "absent.cfg")]) == 3
        assert "absent.cfg" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        dest = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["window", "--out", str(dest)]) == 3

    @pytest.mark.parametrize(
        "command,stage",
        [("decay", "decay_sweep"), ("window", "almost_invariant_sweep"), ("gram", "gram_matrix")],
    )
    def test_unwritable_out_fails_before_any_work(
        self, monkeypatch, tmp_path, capsys, command, stage
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was opened")

        monkeypatch.setattr(treeskew.cli, stage, refuse)
        dest = tmp_path / "missing" / "out.csv"
        assert main([command, "--out", str(dest)]) == 3
        assert "missing" in capsys.readouterr().err

    def test_rejected_request_creates_no_out_file(self, tmp_path, capsys):
        dest = tmp_path / "f.csv"
        argv = ["decay", "--out", str(dest)]
        assert main(argv + ["--seed", "18446744073709551616"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must lie in [0, 2**64)")
        assert main(argv + ["--max-radius", "0"]) == 2
        assert "max_radius must be >= 1" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("system", ["orientation", "gaussian"])
    def test_seeds_the_prf_cannot_tell_apart_are_rejected(self, capsys, system):
        # every draw reads the seed modulo 2**64, so 2**64 + s would repeat seed s
        argv = ["decay", "--system", system, "--method", "mc", "--samples", "1000",
                "--max-radius", "2", "--shell-cap", "2", "--seed"]
        for seed in (2**64, 2**64 + 1):
            assert main(argv + [str(seed)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: seed must lie in [0, 2**64)")
        assert main(argv + [str(2**64 - 1)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(row["seed"] == str(2**64 - 1) for row in rows)

    def test_orientation_cauchy_is_measured_exactly(self, capsys):
        argv = ["decay", "--system", "orientation", "--profile", "cauchy", "--max-radius", "3"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {row["radius"] for row in rows} == {"1", "2", "3"}
        assert all(row["method"] == "exact" for row in rows)
        assert all(float(row["value"]) == pytest.approx(0.8) for row in rows if row["radius"] == "1")

    @pytest.mark.parametrize(
        "argv,field",
        [(["window", "--n", "1" + "0" * 400], "window_sizes"),
         (["decay", "--profile", "window:1" + "0" * 400], "profile")],
        ids=["window", "decay"],
    )
    def test_window_size_beyond_float_range_is_rejected(self, tmp_path, capsys, argv, field):
        dest = tmp_path / "f.csv"
        assert main(argv + ["--out", str(dest)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
        assert not dest.exists()

    def test_indicator_width_beyond_float_range_is_rejected(self, tmp_path, capsys):
        dest = tmp_path / "f.csv"
        assert main(["decay", "--profile", "indicator:-1e308,1e308", "--out", str(dest)]) == 2
        assert "interval length overflows" in capsys.readouterr().err
        assert not dest.exists()

    def test_gram_radius_cap(self, capsys):
        assert main(["gram", "--max-radius", "5"]) == 2
        assert "capped at 161 words; radius 5 at rank 2 has 485 words" in capsys.readouterr().err

    def test_gram_rank_cap_checked_before_ball(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the ball was built before the word-count check")

        monkeypatch.setattr(treeskew.cli, "ball", refuse)
        assert main(["gram", "--max-radius", "4", "--rank", "5"]) == 2
        assert "radius 4 at rank 5 has 8201 words" in capsys.readouterr().err

    def test_selftest_clean(self, capsys):
        assert main(["selftest", "--verbosity", "0"]) == 0

    def test_unknown_selftest_fault_is_rejected_before_any_check(self, monkeypatch, capsys):
        import treeskew.selftest

        def refuse(*args, **kwargs):
            raise AssertionError("a check ran for an unknown fault")

        monkeypatch.setattr(treeskew.selftest, "run_selftest", refuse)
        assert main(["selftest", "--fault", "no-such-fault"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fault must be one of projection-defect-sign, got 'no-such-fault'\n"

    def test_selftest_fault_injection_fails(self, capsys):
        assert main(["selftest", "--fault", "projection-defect-sign"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "projection-defect identity" in out
        # the hook must have been reverted
        assert main(["selftest", "--verbosity", "0"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("system", ["orientation", "gaussian"])
def test_mc_decay_starts_no_thread(monkeypatch, capsys, system):
    def refuse(self):
        raise AssertionError("the Monte Carlo path started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    argv = ["decay", "--system", system, "--method", "mc", "--samples", str(2 * BLOCK_SIZE + 1),
            "--max-radius", "2", "--shell-cap", "2", "--workers", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith("decay:")


class TestDecaySummary:
    """``last_mean`` on stderr is the word-weighted mean of the last radius's values."""

    def test_last_mean_of_huge_exact_values_is_finite(self, capsys):
        # 36 rows of 2e307: weighting by the word count before dividing overflowed
        argv = ["decay", "--system", "gaussian", "--profile", "indicator:-1e307,1e307",
                "--max-radius", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().err.endswith(" last_mean=2e+307\n")

    def test_last_mean_of_huge_mc_values_exits_0(self, tmp_path, capsys):
        dest = tmp_path / "f.csv"
        argv = ["decay", "--system", "orientation", "--profile", "indicator:-1.7e308,1e270",
                "--max-radius", "3", "--shell-cap", "2", "--method", "mc", "--samples", "1000",
                "--out", str(dest)]
        assert main(argv) == 0
        rows = csv.DictReader(io.StringIO(dest.read_text()))
        last = [float(row["value"]) for row in rows if row["radius"] == "3"]
        assert len(last) == 2
        mean = float(capsys.readouterr().err.rsplit("last_mean=", 1)[1])
        assert mean == pytest.approx(math.fsum(v / 2 for v in last), rel=1e-5)

    @pytest.mark.parametrize(
        "system, profile, radius, rows",
        [
            ("orientation", "indicator:-1.7e308,1e270", 3, 6),
            ("orientation", "indicator:0,1e155", 1, 1),
            ("gaussian", "indicator:-5e16,1.5e236", 2, 2),
        ],
    )
    def test_stderr_of_huge_mc_values_is_finite(self, capsys, system, profile, radius, rows):
        # kernel values past 1.3e154 square to inf; the merge of the first
        # block scaled that by a zero count and printed nan in every stderr
        argv = ["decay", "--system", system, "--profile", profile, "--max-radius", str(radius),
                "--shell-cap", str(rows // radius), "--method", "mc", "--samples", "5000"]
        assert main(argv) == 0
        out = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(out) == rows
        assert all(math.isfinite(float(row[k])) for row in out for k in ("value", "stderr"))


class TestPinnedStdout:
    """SHA-256 of CLI stdout at small sizes, pinned so that a refactor is checked byte for byte.

    ``hs`` and Gaussian Monte Carlo are left out: their bits depend on
    LAPACK and on numpy's float64 ``log1p`` and ``cos``, which the normal
    stream uses and which numpy may dispatch to different SIMD code on
    different CPUs.  A change that means to alter
    one of these outputs updates its digest and says why in CHANGES.md.
    """

    O = ["--system", "orientation", "--p", "0.7"]
    G = ["--system", "gaussian"]
    N = ["--n", "10,100,1000,10000000"]
    DIGESTS = {
        "exact-orientation": (
            ["decay", *O, "--profile", "gaussian", "--max-radius", "5", "--shell-cap", "100000"],
            "f0eb08c7ad2cbe0792d65406125146e13fbf963ae2daf3456de35c60f39e13b0"),
        "exact-gaussian": (
            ["decay", *G, "--profile", "window:25", "--max-radius", "5", "--shell-cap", "100000"],
            "4008dafa6301f16d61969f7e28aeaaab2ab7ee6e1d34c96ab9010032d74066b6"),
        "cauchy-capped": (
            ["decay", *G, "--profile", "cauchy", "--max-radius", "6", "--shell-cap", "5",
             "--seed", "3"],
            "084a0a1aabd9e2c87c11223815ce33506841aa275c20b53e36bda602f38c7ddd"),
        "rank-27": (
            ["decay", "--rank", "27", "--max-radius", "2"],
            "9df873c7978d2d44eee1538b5348428a2b39bd9c97284e9c2830824e72940265"),
        "window-orientation": (
            ["window", *O, "--max-radius", "20", *N],
            "5d24d1dd19af04a309ef7b14f7a14c34aa21ace4b2b6f79a5182d7e2344f5bdb"),
        "window-gaussian": (
            ["window", *G, "--max-radius", "20", *N],
            "ace3acdb80a799be22e18d0e9cd99b8e3b59ed6f2c40638c04a39a646be6e0cc"),
        "mc-orientation": (
            ["decay", *O, "--profile", "gaussian", "--method", "mc", "--samples", "3000",
             "--max-radius", "4", "--shell-cap", "3", "--seed", "5"],
            "c36cb6b0024d7a24e47e7130df9ef5bc205a10a170a96aea994a6495d93b4cae"),
        # three blocks, and shells 2..6 share the prefixes of shell 1
        "mc-orientation-blocks": (
            ["decay", *O, "--profile", "gaussian", "--method", "mc", "--samples", "9001",
             "--max-radius", "6", "--shell-cap", "4", "--seed", "2"],
            "c03b08a83d7fc3ad0746b1006ce5c8debcc403bef8cd73788aac21c663911eee"),
        "gram": (
            ["gram", "--max-radius", "3"],
            "8a541e04be8978c50e8e41ae395283507b0733a6bdc1ecd1462f60b4d3f10fe3"),
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_stdout_digest(self, capsys, name):
        argv, digest = self.DIGESTS[name]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def run_to_file(argv, path):
    code = main(argv + ["--out", str(path)])
    assert code == 0
    return path.read_bytes()


class TestArtifacts:
    def test_decay_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ["decay", "--max-radius", "3", "--shell-cap", "3"]
        a = run_to_file(argv, tmp_path / "a.csv")
        b = run_to_file(argv, tmp_path / "b.csv")
        assert a == b
        capsys.readouterr()

    def test_window_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ["window", "--system", "gaussian", "--n", "10,100"]
        a = run_to_file(argv, tmp_path / "a.csv")
        b = run_to_file(argv, tmp_path / "b.csv")
        assert a == b
        capsys.readouterr()

    def test_gram_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ["gram", "--max-radius", "2"]
        a = run_to_file(argv, tmp_path / "a.csv")
        b = run_to_file(argv, tmp_path / "b.csv")
        assert a == b
        capsys.readouterr()

    def test_hs_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ["hs", "--seed", "5"]
        a = run_to_file(argv, tmp_path / "a.csv")
        b = run_to_file(argv, tmp_path / "b.csv")
        assert a == b
        capsys.readouterr()

    def test_window_csv_contents(self, capsys):
        assert main(["window", "--max-radius", "4", "--n", "10,100,1000"]) == 0
        out, _ = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["n"] for row in rows] == ["10", "100", "1000"]
        for row in rows:
            n = int(row["n"])
            assert float(row["bound"]) == 4.0 / (2.0 * n)
            assert float(row["sup_defect"]) <= float(row["bound"])

    def test_window_zero_radius(self, capsys):
        assert main(["window", "--max-radius", "0"]) == 0
        out, _ = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(row["sup_defect"]) == 0.0 for row in rows)

    def test_gaussian_window_defect_scales_like_inverse_n(self, capsys):
        assert main(["window", "--system", "gaussian", "--n", "100,200,400"]) == 0
        out, _ = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        scaled = [int(r["n"]) * float(r["sup_defect"]) for r in rows]
        assert max(scaled) - min(scaled) <= 0.1 * max(scaled)

    def test_gram_csv_dense_and_symmetric(self, capsys):
        assert main(["gram", "--max-radius", "0"]) == 0
        out, err = capsys.readouterr()
        assert out == "i,j,word_i,word_j,value\n0,0,1,1,0\n"
        assert "min_eig" in err

        assert main(["gram", "--max-radius", "1"]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 25
        values = {(r["i"], r["j"]): r["value"] for r in rows}
        for (i, j), v in values.items():
            assert values[(j, i)] == v
        expected = gromov_products(ball(1, 2))
        for r in rows:
            assert float(r["value"]) == expected[int(r["i"]), int(r["j"])]
        assert "min_eig" in err

    def test_hs_residuals_tiny(self, capsys):
        assert main(["hs", "--samples", "1000", "--seed", "1"]) == 0
        out, _ = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1000
        assert {row["dim"] for row in rows} == {str(d) for d in range(2, 17)}
        assert max(float(row["residual"]) for row in rows) <= 1e-10


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child imports the same package as this test, installed or not.
        package_root = str(Path(treeskew.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeskew", "window", "--max-radius", "2", "--n", "10"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("system,ball_radius,n,sup_defect,bound\n")
        assert proc.stderr.startswith("window:")

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
