"""End-to-end acceptance suite.

Each test prints one line ``[criterion N] PASS/FAIL (elapsed)`` with the
observed values (run pytest with ``-s`` to see the lines as they appear).
Criterion 7's grid scan is expected to fail and is marked as such: the
halving model answers it from its exact laws, and the certified scan
minimum is P_100(10, B(0, 0.1)) ~ 8.38e-4, at x = 10 and t = 100, with a
half-width under 1e-12. From 10 the halving map fires at rate
``lam * exp(-10)``, about 4.5e-5 per unit time, so the stated floor of 0.9
is out of reach on this grid.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from ergokit.core import EmpiricalMeasure, xmin1
from ergokit.diagnostics import (
    McSettings,
    check_b2,
    check_b3,
    check_b5,
    check_c2,
    ec_profile,
    eproperty_witness,
    lower_bound_scan,
    stability_report,
)
from ergokit.exact_ctmc import CtmcProcess, CtmcState, chapman_kolmogorov_residual
from ergokit.ifs_jump import (
    example_flip,
    example_halving,
    halving_tv_modulus,
    j_n,
    linear_modulus,
)
from ergokit.montecarlo import estimate_ptf
from ergokit.cli import main

F = xmin1()
CTMC = CtmcProcess()


def record(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status} ({elapsed:5.1f}s / budget {budget:.0f}s) {detail}")


def test_criterion_01_exact_equicontinuity_failure_witness():
    t0 = time.perf_counter()
    worst = 0.0
    floor = math.inf
    for n in (2, 5, 10, 50):
        gap = CTMC.exact_expectation(F, CtmcState.low(n), float(n)) \
            - CTMC.exact_expectation(F, CtmcState.zero(), float(n))
        worst = max(worst, abs(gap - math.exp(-1.0) * (1.0 + 1.0 / n)))
        floor = min(floor, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and floor >= math.exp(-1.0) and elapsed < 1.0
    record(1, ok, elapsed, 1, f"max identity error {worst:.2e}, witness floor {floor:.6f}")
    assert worst <= 1e-12
    assert floor >= math.exp(-1.0)
    assert elapsed < 1.0


def test_criterion_02_exact_eventual_continuity_surrogate():
    t0 = time.perf_counter()
    psis = {}
    for n in (2, 5, 10):
        T, t_max = 10.0 * n, 100.0 * n
        grid = np.linspace(T, t_max, 32)
        report = ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.low(n)], T, t_max, grid)
        psis[n] = report.values("ec_gap_max")[0]
    elapsed = time.perf_counter() - t0
    bound = 11.0 * math.exp(-10.0)
    ok = all(v <= bound for v in psis.values()) and bound < 5e-4 and elapsed < 1.0
    record(2, ok, elapsed, 1, f"profiles {psis} all <= {bound:.3e} < 5e-4")
    assert all(v <= bound for v in psis.values())
    assert bound < 5e-4
    assert elapsed < 1.0


def test_criterion_03_chapman_kolmogorov_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 120))
        s, t = rng.uniform(0.0, 45.0, size=2)
        worst = max(worst, chapman_kolmogorov_residual(n, s, t))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    record(3, ok, elapsed, 1, f"max residual {worst:.2e} over 100 random triples")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_04_monte_carlo_coverage_calibration():
    t0 = time.perf_counter()
    exact = math.exp(-1.0) * 1.25
    n_runs, per_run_conf = 200, 0.999
    misses = 0
    for seed in range(n_runs):
        est = estimate_ptf(CTMC, CtmcState.low(4), 4.0, F, 10_000, seed=seed,
                           confidence=per_run_conf)
        misses += not est.brackets(exact)
    # allow the smallest miss count whose exceedance probability under
    # Binomial(200, 0.001) stays within the 0.999 test level
    allowed = 0
    while binom.sf(allowed, n_runs, 1.0 - per_run_conf) > 1.0 - per_run_conf:
        allowed += 1
    elapsed = time.perf_counter() - t0
    ok = misses <= allowed and elapsed < 60.0
    record(4, ok, elapsed, 60,
           f"{misses}/{n_runs} misses (allowed {allowed}) around exact {exact:.6f}")
    assert misses <= allowed
    assert elapsed < 60.0


def test_criterion_05_flip_witness_floor_persists():
    t0 = time.perf_counter()
    model = example_flip(1.0)
    ns = (5, 10, 20)
    pairs = [(1.0 / n, float(n)) for n in ns]
    mc = McSettings(n_samples=100_000, seed=515)
    report = eproperty_witness(model, F, 0.0, pairs, mc)
    floor = 0.1839
    witnesses = dict(zip(ns, report.values("witness")))
    hws = dict(zip(ns, [r.half_width for r in report.rows]))
    ok_floor = all(witnesses[n] >= floor - 3.0 * hws[n] for n in ns)
    # the witness is affine in 1/n, so 2 w(20) - w(10) extrapolates the deep-n
    # limit; a positive clearance there rules out a decreasing trend through
    # the floor
    limit = 2.0 * witnesses[20] - witnesses[10]
    limit_hw = math.sqrt(5.0) * hws[20]
    ok_trend = limit >= floor - 3.0 * limit_hw
    # cross-check against the closed form of the two-point jump chain
    closed = {n: (math.exp(-0.5) - math.exp(-1.5)) / 2.0
              + (math.exp(-0.5) + math.exp(-1.5)) / (2.0 * n) for n in ns}
    ok_oracle = all(abs(witnesses[n] - closed[n]) <= 3.0 * hws[n] for n in ns)
    elapsed = time.perf_counter() - t0
    ok = ok_floor and ok_trend and ok_oracle and elapsed < 120.0
    record(5, ok, elapsed, 120,
           f"witnesses {dict((n, round(witnesses[n], 4)) for n in ns)} vs floor {floor}, "
           f"deep-n extrapolation {limit:.4f}")
    assert ok_floor
    assert ok_trend
    assert ok_oracle
    assert elapsed < 120.0


def test_criterion_06_all_builtins_asymptotically_stable():
    t0 = time.perf_counter()
    mc = McSettings(n_samples=10_000, seed=606)
    reference = EmpiricalMeasure.point_mass(0.0)
    cases = [
        (CTMC, [CtmcState.low(2), CtmcState.high(3), CtmcState.low(5)]),
        (example_flip(1.0), [0.5, 1.0, 2.0]),
        (example_halving(1.0)[0], [0.25, 1.0, 2.0]),
    ]
    distances = {}
    for process, initials in cases:
        report = stability_report(process, initials, [200.0], reference, mc)
        for row in report.rows:
            if row.label == "bl_to_ref":
                distances[(process.name, row.x)] = row.value
    elapsed = time.perf_counter() - t0
    ok = all(v < 0.05 for v in distances.values()) and elapsed < 120.0
    worst = max(distances.values())
    record(6, ok, elapsed, 120,
           f"9 laws at t=200 vs point mass at 0, worst distance {worst:.2e} < 0.05")
    assert len(distances) == 9
    assert all(v < 0.05 for v in distances.values())
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the certified scan minimum is P_100(10, B(0, 0.1)) ~ 8.38e-4 at "
           "x=10, t=100 (exact law, half-width under 1e-12), not above 0.9: "
           "from x=10 the halving map fires at rate exp(-10) ~ 4.5e-5",
)
def test_criterion_07a_lower_bound_scan_grid_as_stated():
    t0 = time.perf_counter()
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=10_000, seed=707)
    report = lower_bound_scan(model, 0.0, 0.1, [0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
                              [100.0, 150.0, 200.0], mc)
    scan = next(r for r in report.rows if r.label == "scan_min")
    adjusted = scan.value - scan.half_width
    elapsed = time.perf_counter() - t0
    record(7, adjusted >= 0.9, elapsed, 120,
           f"(scan part) adjusted scan minimum {adjusted:.4f}, stated floor 0.9")
    assert adjusted >= 0.9


def test_criterion_07b_reachability_floor_beta():
    t0 = time.perf_counter()
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=2_000, seed=717)
    report = check_c2(model, 0.0, [0.1], [0.25, 1.0, 4.0], 512.0, mc)
    beta_row = next(r for r in report.rows if r.label == "c2_beta")
    floor = 0.288788
    ok_beta = beta_row.value >= floor - 3.0 * beta_row.half_width
    elapsed = time.perf_counter() - t0
    record(7, ok_beta, elapsed, 120,
           f"(floor part) beta_hat(0.1) = {beta_row.value:.4f} vs "
           f"{floor} - 3*{beta_row.half_width:.4f}")
    assert ok_beta


def test_criterion_08_assumption_identities():
    t0 = time.perf_counter()
    model, assume = example_halving(1.0)
    grid = np.linspace(0.01, 10.0, 1000)
    b2 = check_b2(model, assume, grid)
    eta = assume.eta
    boundary_lhs = 2.0 * eta * math.exp(eta)
    boundary_rhs = math.exp(0.125) / 4.0
    b5 = check_b5(model, assume, 10, [eta], omega=linear_modulus)
    b3_exact = check_b3(model, assume, grid, omega=halving_tv_modulus)
    b3_linear = check_b3(model, assume, [0.01], omega=linear_modulus)
    elapsed = time.perf_counter() - t0
    ok = (b2 <= 1e-12
          and abs(boundary_lhs - boundary_rhs) <= 1e-12
          and abs(boundary_rhs - (1.0 - assume.gamma)) <= 1e-12
          and abs(b5) <= 1e-12
          and abs(b3_exact) <= 1e-12
          and b3_linear > 0.0
          and elapsed < 5.0)
    record(8, ok, elapsed, 5,
           f"b2 max {b2:.2e}, b5 boundary residual {b5:.2e}, "
           f"b3 exact-modulus {b3_exact:.2e}, b3 linear-modulus +{b3_linear:.5f}")
    assert b2 <= 1e-12
    assert abs(boundary_lhs - boundary_rhs) <= 1e-12
    assert abs(boundary_rhs - (1.0 - assume.gamma)) <= 1e-12
    assert abs(b5) <= 1e-12
    assert abs(b3_exact) <= 1e-12
    assert b3_linear > 0.0
    assert elapsed < 5.0


def test_criterion_09_contraction_product_oracle():
    t0 = time.perf_counter()
    model, assume = example_halving(1.0)
    worst = 0.0
    for x in (0.125, 0.5, 1.0, 3.0):
        for n in range(0, 9):
            got = j_n(model, assume, x, n)
            want = (1.0 - math.exp(-x) / 2.0) ** n
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    record(9, ok, elapsed, 5, f"max |enumerated - closed form| = {worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_10_byte_identical_outputs_across_workers(tmp_path):
    t0 = time.perf_counter()
    diag = ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", "0.1",
            "--x-grid", "0.5,1,2", "--t-grid", "20,40", "--samples", "1000",
            "--seed", "42"]
    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert main(diag + ["--workers", "1", "--out", str(d1)]) == 0
    assert main(diag + ["--workers", "3", "--out", str(d2)]) == 0
    diag_same = d1.read_bytes() == d2.read_bytes()

    sim = ["simulate", "--model", "flip", "--x0", "0.5", "--horizon", "25",
           "--trajectories", "50", "--seed", "7"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(sim + ["--workers", "1", "--out", str(s1)]) == 0
    assert main(sim + ["--workers", "4", "--out", str(s2)]) == 0
    sim_same = s1.read_bytes() == s2.read_bytes()

    est = ["estimate", "--model", "ctmc", "--x0", "low:3,high:4", "--times", "3,6",
           "--f", "xmin1", "--samples", "2000", "--seed", "99"]
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    assert main(est + ["--workers", "1", "--format", "json", "--out", str(e1)]) == 0
    assert main(est + ["--workers", "2", "--format", "json", "--out", str(e2)]) == 0
    est_same = e1.read_bytes() == e2.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = diag_same and sim_same and est_same and elapsed < 60.0
    record(10, ok, elapsed, 60,
           f"diagnose={diag_same}, simulate={sim_same}, estimate={est_same}")
    assert diag_same and sim_same and est_same
    assert elapsed < 60.0
