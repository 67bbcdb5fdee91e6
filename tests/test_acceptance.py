"""End-to-end scorecard for the package's numerical guarantees.

Every identity of the ``treeskew.selftest`` catalogue runs here once more
at full scale: the same function that ``selftest`` runs at its small
counts, called with the instance and sample counts below.  Each test
prints a single ``[acceptance] name ... PASS/FAIL`` line even under
pytest's capture and enforces a wall-clock budget; a failing identity
reports its worst residual or z-score.  ``test_09_cli_determinism`` is
the one scorecard line with no catalogue twin.
"""

import time

from treeskew import selftest
from treeskew.cli import main as cli_main


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


def at_full_scale(check, name, budget_s, **counts):
    """The scorecard test that runs one catalogue identity with the given counts."""

    def body():
        result = check(**counts)
        assert result.ok, f"{result.name}: {result.detail}"

    def test(capsys):
        scored(capsys, name, budget_s, body)

    test.identity, test.counts = check, counts
    return test


test_01_cocycle_chain_rule = at_full_scale(
    selftest.chain_rule, "integer cocycle chain rule, 10^4 triples", 10, count=3334
)
test_02_skew_action_law = at_full_scale(
    selftest.skew_action_law, "skew action composition law, 500 instances", 10, count=500
)
test_03_window_coefficient_exact_vs_mc = at_full_scale(
    selftest.window_exact_vs_mc,
    "orientation window coefficient vs Monte Carlo, 50 configs",
    60,
    configs=50,
    samples=100_000,
)
test_04_gaussian_bound_decay = at_full_scale(
    selftest.gaussian_profile_decay, "drift makes the Gaussian-profile bound decay", 5
)
test_05_gaussian_window_three_routes = at_full_scale(
    selftest.gaussian_window_routes,
    "Gaussian window coefficient: erf vs quadrature vs MC grid",
    60,
    samples=1_000_000,
)
test_06_cauchy_kernel_identity = at_full_scale(
    selftest.cauchy_identity, "Cauchy kernel identity and coefficient decay", 5
)
test_07_gram_matrix_and_sampling = at_full_scale(
    selftest.gram_and_sampling,
    "Gram matrix PSD, Gromov products, empirical covariance",
    60,
    radius=5,
    samples=100_000,
)
test_08_projection_defect_identity = at_full_scale(
    selftest.projection_defect_identity,
    "projection-defect identity, 500 random unitaries",
    10,
    count=500,
)


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


test_10_symmetric_difference_identity = at_full_scale(
    selftest.symmetric_difference_identity,
    "symmetric difference: capped-shift mean vs MC, 20 configs",
    60,
    configs=20,
    samples=50_000,
)
test_11_coefficient_exact_vs_mc = at_full_scale(
    selftest.coefficient_exact_vs_mc,
    "coefficients of both systems: exact route vs Monte Carlo, 40 trials",
    60,
    trials=40,
    samples=100_000,
)
test_12_interval_overlap_routes = at_full_scale(
    selftest.interval_overlap_routes, "interval overlap: erf vs quadrature, 40 pairs", 10, count=40
)
test_13_rank_one_hs_bound = at_full_scale(
    selftest.rank_one_hs_bound,
    "rank-one bound on the HS coefficient, 1000 unitaries",
    10,
    count=1000,
)
test_14_certified_window_bound = at_full_scale(
    selftest.certified_window_bound,
    "certified window bound and sweep decay at radius 20",
    10,
    radius=20,
)


def test_every_identity_runs_at_full_scale():
    # full scale is at least the selftest scale, count by count
    full = {test.identity: test.counts for test in globals().values() if hasattr(test, "identity")}
    assert set(full) == {check for check, _ in selftest.CATALOGUE}
    for check, small in selftest.CATALOGUE:
        assert full[check].keys() == small.keys()
        assert all(full[check][key] >= small[key] for key in small), check.__name__
