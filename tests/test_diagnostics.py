import math
import re

import numpy as np
import pytest

from ergokit.core import Ball, EmpiricalMeasure, bl_distance, xmin1
from ergokit.diagnostics import (
    DiagnosticReport,
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
from ergokit.exact_ctmc import CtmcProcess, CtmcState, semigroup_apply
from ergokit.ifs_jump import (
    AssumptionSet,
    ExponentialFlow,
    IfsModel,
    example_flip,
    example_halving,
    halving_tv_modulus,
    linear_modulus,
)
from ergokit.montecarlo import (
    _estimate,
    estimate_ptf,
    hoeffding_half_width,
    sample_cells,
    sample_terminals,
)

from oracles import flip_expectation_xmin1
from test_cli import _MAP_FAILURE, _far_nan_model

F = xmin1()
CTMC = CtmcProcess()


class Sampled:
    """A process without its exact laws: diagnostics must sample it, with
    its batch form or its cell form, whichever it has."""

    def __init__(self, process):
        self.name = process.name
        self.state_label = process.state_label
        if hasattr(process, "terminal_states"):
            self.terminal_states = process.terminal_states
            self.batch_draws = process.batch_draws
        if hasattr(process, "terminal_states_from"):
            self.terminal_states_from = process.terminal_states_from


def _closed_gap(x, grid):
    """max over grid of |P_t F(x) - P_t F(0)| on the chain, by its closed form."""
    return max(abs(semigroup_apply(F, x, t) - semigroup_apply(F, CtmcState.zero(), t))
               for t in grid)


# ---------------------------------------------------------------------------
# late-time sensitivity profile


@pytest.mark.parametrize("n", [2, 5, 10])
def test_ec_exact_profile_matches_closed_form(n):
    T, t_max = 10.0 * n, 100.0 * n
    grid = np.linspace(T, t_max, 32)
    report = ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.low(n)], T, t_max, grid)
    psi = report.values("ec_gap_max")[0]
    closed = max(math.exp(-t / n) * (1.0 + t) / n for t in grid)
    assert psi == pytest.approx(closed, abs=1e-15)
    assert psi <= 11.0 * math.exp(-10.0)
    # the sweep's rows count their rounding: a width above 0 that covers
    # the distance to the closed form
    assert 0.0 < report.rows[0].half_width
    assert abs(psi - _closed_gap(CtmcState.low(n), grid)) <= report.rows[0].half_width


def test_ec_exact_profile_zero_at_anchor():
    report = ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.zero()], 1.0, 10.0, [1.0, 5.0, 10.0])
    assert report.values("ec_gap_max") == [0.0]


def test_ec_monte_carlo_halving_profile():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=2_000, seed=17)
    report = ec_profile(Sampled(model), F, 0.0, [0.5, 0.25, 0.125], 50.0, 100.0,
                        [50.0, 75.0, 100.0], mc)
    assert report.mode == "monte-carlo"
    psis = dict(zip([r.x for r in report.rows], report.values("ec_gap_max")))
    hw = report.rows[0].half_width
    assert all(v <= 0.05 + hw for v in psis.values())
    assert psis["0.25"] <= psis["0.5"] + 2 * hw
    assert psis["0.125"] <= psis["0.5"] + 2 * hw


def test_ec_monte_carlo_gap_at_anchor_within_noise():
    model = example_flip(1.0)
    mc = McSettings(n_samples=1_000, seed=3)
    report = ec_profile(Sampled(model), F, 1.0, [1.0], 5.0, 10.0, [5.0, 10.0], mc)
    assert report.mode == "monte-carlo"
    row = report.rows[0]
    assert row.value <= row.half_width


def test_ec_start_sharing_the_anchor_label_keeps_its_own_cells():
    # 0.5000001 prints as "0.5", like the anchor; its gap must come from its
    # own cells (0, 1), not from the anchor's cells (2, 3)
    model = example_flip(1.0)
    mc = McSettings(n_samples=400, seed=8)
    grid = [5.0, 10.0]
    report = ec_profile(Sampled(model), F, 0.5, [0.5000001, 3.0], 5.0, 10.0, grid, mc)
    want = max(abs(estimate_ptf(model, 0.5000001, t, F, 400, 8, cell=j).mean
                   - estimate_ptf(model, 0.5, t, F, 400, 8, cell=4 + j).mean)
               for j, t in enumerate(grid))
    assert want > 0.0
    assert report.rows[0].x == "0.5"
    assert report.rows[0].value == want
    exact = ec_profile(model, F, 0.5, [0.5000001, 3.0], 5.0, 10.0, grid, mc)
    assert exact.mode == "exact"
    assert 0.0 < exact.rows[0].value <= 1e-6


def test_ec_sampled_chain_brackets_the_exact_profile():
    z, xs, grid = CtmcState.zero(), [CtmcState.low(2), CtmcState.high(3)], [2.0, 3.0, 4.0]
    exact = ec_profile(CTMC, F, z, xs, 2.0, 4.0, grid)
    sampled = ec_profile(Sampled(CTMC), F, z, xs, 2.0, 4.0, grid,
                         McSettings(n_samples=4_000, seed=19))
    assert [(r.label, r.x, r.t) for r in sampled.rows] == [(r.label, r.x, r.t) for r in exact.rows]
    for x, e, m in zip(xs, exact.rows, sampled.rows):
        assert 0.0 < e.half_width < m.half_width
        assert abs(e.value - _closed_gap(x, grid)) <= e.half_width
        assert abs(m.value - e.value) <= m.half_width


def test_ec_rejects_bad_grids():
    with pytest.raises(ValueError, match="grid empty"):
        ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.low(2)], 1.0, 10.0, [])
    with pytest.raises(ValueError):
        ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.low(2)], 5.0, 10.0, [3.0])
    for process, z in ((CTMC, CtmcState.zero()), (example_flip(1.0), 0.0)):
        with pytest.raises(ValueError, match="time must be a finite nonnegative real"):
            ec_profile(process, F, z, [z], 1.0, 10.0, [1.0, math.nan])


def test_ec_needs_a_start():
    # as lower_bound_scan and check_c2 do: no row labelled exact from the
    # anchor's cells alone
    with pytest.raises(ValueError, match="^need at least one start$"):
        ec_profile(CTMC, F, CtmcState.zero(), [], 1.0, 10.0, [1.0, 2.0])


@pytest.mark.parametrize("T, t_max, message", [
    (-1.0, 10.0, r"window start must be a finite nonnegative real, got -1\.0"),
    (math.nan, 10.0, "window start must be a finite nonnegative real, got nan"),
    (0.0, math.inf, "window end must be a finite nonnegative real, got inf"),
    (5.0, 2.0, "window must satisfy 0 <= T <= t_max"),
])
def test_ec_rejects_bad_windows(T, t_max, message):
    # an infinite window end used to print an exact row labelled [0,inf]
    with pytest.raises(ValueError, match=f"^{message}$"):
        ec_profile(CTMC, F, CtmcState.zero(), [CtmcState.low(3)], T, t_max, [1.0, 2.0])


# ---------------------------------------------------------------------------
# equicontinuity-failure witnesses


def test_eprop_exact_ctmc_witness_identity():
    pairs = [(CtmcState.low(n), float(n)) for n in range(2, 51)]
    report = eproperty_witness(CTMC, F, CtmcState.zero(), pairs)
    values = report.values("witness")
    for (state, _), w in zip(pairs, values):
        assert w == pytest.approx(math.exp(-1.0) * (1.0 + 1.0 / state.n), abs=1e-12)
    assert min(values) >= math.exp(-1.0) - 1e-12


def test_eprop_anchor_pair_is_zero():
    report = eproperty_witness(CTMC, F, CtmcState.zero(), [(CtmcState.zero(), 4.0)])
    assert report.values("witness") == [0.0]


def test_flip_oracle_matches_two_state_closed_form():
    # cross-check of the test oracle itself: matrix series vs direct formula
    for n in (5, 10, 20):
        want = (math.exp(-0.5) - math.exp(-1.5)) / 2.0 \
            + (math.exp(-0.5) + math.exp(-1.5)) / (2.0 * n)
        assert flip_expectation_xmin1(1.0 / n, 1.0, float(n)) == pytest.approx(want, abs=1e-12)


def test_eprop_flip_witness_floor():
    model = example_flip(1.0)
    mc = McSettings(n_samples=20_000, seed=29)
    pairs = [(1.0 / n, float(n)) for n in (5, 10, 20)]
    report = eproperty_witness(model, F, 0.0, pairs, mc)
    floor = 0.5 * 1.0 * math.exp(-1.0)
    for (x, t), row in zip(pairs, report.rows):
        oracle = flip_expectation_xmin1(x, 1.0, t)
        assert abs(row.value - oracle) <= 3.0 * row.half_width
        assert row.value >= floor - 3.0 * row.half_width


def test_eprop_sampled_chain_brackets_the_exact_witnesses():
    pairs = [(CtmcState.low(n), float(n)) for n in (2, 5, 10)]
    exact = eproperty_witness(CTMC, F, CtmcState.zero(), pairs)
    sampled = eproperty_witness(Sampled(CTMC), F, CtmcState.zero(), pairs,
                                McSettings(n_samples=4_000, seed=37))
    assert [(r.x, r.t) for r in sampled.rows] == [(r.x, r.t) for r in exact.rows]
    for (x, t), e, m in zip(pairs, exact.rows, sampled.rows):
        assert 0.0 < e.half_width < m.half_width
        assert abs(e.value - _closed_gap(x, [t])) <= e.half_width
        assert abs(m.value - e.value) <= m.half_width


def test_eprop_width_follows_the_mode():
    # an exact pair adds the widths of its two cells; a sampled pair keeps
    # the two-sample Hoeffding width, whatever its cells' widths
    model = example_flip(1.0)
    pairs = [(0.2, 5.0), (0.1, 10.0)]
    mc = McSettings(n_samples=500, seed=4)
    exact = eproperty_witness(model, F, 0.0, pairs, mc)
    assert exact.mode == "exact"
    for row, (x, t) in zip(exact.rows, pairs):
        bx, bz = (model.exact_means([y], [t], [F])[0][0][0][1] for y in (x, 0.0))
        assert 0.0 < row.half_width == bx + bz < 1e-12
    sampled = eproperty_witness(Sampled(model), F, 0.0, pairs, mc)
    assert sampled.mode == "monte-carlo"
    two_sample = math.sqrt(math.log(2.0 / 0.001) / 500)
    assert [r.half_width for r in sampled.rows] == [pytest.approx(two_sample, rel=1e-12)] * 2
    for e, m in zip(exact.rows, sampled.rows):
        assert abs(m.value - e.value) <= m.half_width


def test_mixed_mode_when_only_some_starts_are_exact(monkeypatch):
    # a budget that fits the one-point orbit of the absorbing anchor 0 but
    # not the orbit of 0.5: the anchor's cells are exact, the others sampled
    from ergokit import ifs_jump

    left, weights, _, _ = ifs_jump._poisson_window(20.0)
    steps = left + len(weights) - 1
    monkeypatch.setattr(ifs_jump, "BREAK_EVEN_SAMPLES", 0)
    monkeypatch.setattr(ifs_jump, "ORBIT_BUDGET",
                        (1 + ifs_jump.SWEEP_STEP_POINTS) * steps + ifs_jump.NODE_POINTS)
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=300, seed=5)
    ec = ec_profile(model, F, 0.0, [0.5], 20.0, 20.0, [20.0], mc)
    eprop = eproperty_witness(model, F, 0.0, [(0.5, 20.0)], mc)
    assert ec.mode == eprop.mode == "mixed"
    z_bound = model.exact_means([0.0], [20.0], [F])[0][0][0][1]
    # the sampled cell is stream cell 0, as in a fully sampled run
    sampled = ec_profile(Sampled(model), F, 0.0, [0.5], 20.0, 20.0, [20.0], mc)
    assert ec.rows[0].value == sampled.rows[0].value > 0.0
    assert ec.rows[0].half_width == \
        hoeffding_half_width(1.0, 300, 1.0 - (1.0 - 0.999) / 2) + z_bound
    assert eprop.rows[0].half_width == hoeffding_half_width(1.0, 300, 0.999) + z_bound


def test_eprop_requires_pairs():
    with pytest.raises(ValueError):
        eproperty_witness(CTMC, F, CtmcState.zero(), [])
    for process, z in ((CTMC, CtmcState.zero()), (example_flip(1.0), 0.0)):
        with pytest.raises(ValueError, match="time must be a finite nonnegative real"):
            eproperty_witness(process, F, z, [(z, 1.0), (z, math.inf)])


# ---------------------------------------------------------------------------
# neighborhood hit floors


def test_scan_absorbing_start_hits_surely():
    model = example_flip(1.0)
    mc = McSettings(n_samples=500, seed=5)
    report = lower_bound_scan(model, 0.0, 0.1, [0.0], [3.0, 6.0], mc)
    row = next(r for r in report.rows if r.label == "hit_prob_min")
    assert row.value == 1.0


def test_scan_ctmc_matches_exact_absorption():
    mc = McSettings(n_samples=20_000, seed=31)
    report = lower_bound_scan(CTMC, CtmcState.zero(), 0.01,
                              [CtmcState.high(3)], [30.0, 60.0], mc)
    row = next(r for r in report.rows if r.label == "hit_prob_min")
    # the minimum over the grid sits at t = 30
    assert row.t == "30"
    assert abs(row.value - (1.0 - math.exp(-10.0))) <= 3.0 * row.half_width
    scan = next(r for r in report.rows if r.label == "scan_min")
    assert scan.value == row.value


def test_scan_monotone_in_radius():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=2_000, seed=13)
    grids = ([0.5, 1.0], [20.0, 40.0])
    small = lower_bound_scan(model, 0.0, 0.05, *grids, mc)
    large = lower_bound_scan(model, 0.0, 0.1, *grids, mc)
    for a, b in zip(small.values("hit_prob_min"), large.values("hit_prob_min")):
        assert b >= a


def test_scan_starts_sharing_a_label_keep_their_own_minimum():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=400, seed=6)
    x_grid, t_grid = [1.0, 1.0000001], [2.0, 4.0]
    exact = lower_bound_scan(model, 0.0, 0.3, x_grid, t_grid, mc)
    first, second = (r.value for r in exact.rows if r.label == "hit_prob_min")
    assert first != second
    report = lower_bound_scan(Sampled(model), 0.0, 0.3, x_grid, t_grid, mc)
    rows = [r for r in report.rows if r.label == "hit_prob_min"]
    want = [min(_estimate(sample_terminals(model, x, t, 400, 6, cell=2 * i + j), Ball(0.0, 0.3),
                          0.999).mean
                for j, t in enumerate(t_grid))
            for i, x in enumerate(x_grid)]
    assert want[0] != want[1]
    assert [r.x for r in rows] == ["1", "1"]
    assert [r.value for r in rows] == want


def test_scan_validation():
    with pytest.raises(ValueError, match="grid empty"):
        lower_bound_scan(CTMC, CtmcState.zero(), 0.1, [CtmcState.low(2)], [])
    with pytest.raises(ValueError):
        lower_bound_scan(CTMC, CtmcState.zero(), -0.1, [CtmcState.low(2)], [1.0])
    with pytest.raises(ValueError, match="time must be a finite nonnegative real"):
        lower_bound_scan(CTMC, CtmcState.zero(), 0.1, [CtmcState.low(2)], [1.0, -1.0])


_HALVING, _ = example_halving(1.0)
_SMALL_MC = McSettings(n_samples=50, seed=3)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_scan_radius_is_checked_by_its_ball_before_any_cell_is_sampled(monkeypatch, eps):
    from ergokit import diagnostics

    calls = []
    monkeypatch.setattr(diagnostics, "run_batch", lambda *a, **k: calls.append(a) or [])
    with pytest.raises(ValueError, match="^ball radius must be positive and finite$"):
        lower_bound_scan(Sampled(_HALVING), 0.0, eps, [0.5], [2.0], _SMALL_MC)
    assert calls == []


@pytest.mark.parametrize("run, grid", [
    (lambda grid: lower_bound_scan(_HALVING, 0.0, 0.3, grid, [2.0, 4.0], _SMALL_MC), [0.5, 1.0]),
    (lambda grid: stability_report(_HALVING, grid, [2.0], EmpiricalMeasure.point_mass(0.0),
                                   _SMALL_MC), [0.5, 1.0]),
    # c2 reads the grid as its radii too
    (lambda grid: check_c2(_HALVING, 0.0, grid, grid, 4.0, _SMALL_MC), [0.5, 1.0]),
    (lambda pairs: eproperty_witness(_HALVING, F, 0.0, pairs, _SMALL_MC),
     [[0.5, 2.0], [1.0, 4.0]]),
], ids=["lowerbound", "stability", "c2", "eprop"])
def test_numpy_grids_give_the_rows_of_lists(run, grid):
    assert run(np.array(grid)).rows == run(grid).rows


# ---------------------------------------------------------------------------
# distance-to-equilibrium decay


def test_stability_invariant_point_distance_zero():
    model = example_flip(1.0)
    mc = McSettings(n_samples=400, seed=23)
    report = stability_report(model, [0.0], [2.0, 8.0], EmpiricalMeasure.point_mass(0.0), mc)
    assert report.values("bl_to_ref") == [0.0, 0.0]


def test_stability_halving_distance_decays():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=3_000, seed=41)
    report = stability_report(model, [1.0], [10.0, 100.0], EmpiricalMeasure.point_mass(0.0), mc)
    d10, d100 = report.values("bl_to_ref")
    assert d100 < d10


def test_stability_ctmc_nearly_absorbed():
    mc = McSettings(n_samples=2_000, seed=47)
    report = stability_report(CTMC, [CtmcState.low(2)], [40.0],
                              EmpiricalMeasure.point_mass(0.0), mc)
    assert report.values("bl_to_ref")[0] <= 2e-3


def test_stability_starts_sharing_a_label_keep_their_own_laws():
    # 0.5000001 prints as "0.5": the pairwise row must compare the laws of
    # cells 0 and 1, not one law with itself
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=200, seed=3)
    report = stability_report(Sampled(model), [0.5, 0.5000001], [4.0],
                              EmpiricalMeasure.point_mass(0.0), mc)
    a, b = (EmpiricalMeasure.from_samples(sample_terminals(model, x, 4.0, 200, 3, cell=i))
            for i, x in enumerate([0.5, 0.5000001]))
    want = bl_distance(a, b)
    assert want > 0.0
    assert report.values("bl_between") == [want]
    exact = stability_report(model, [0.5, 0.5000001], [4.0],
                             EmpiricalMeasure.point_mass(0.0), mc)
    assert 0.0 < exact.values("bl_between")[0] <= 1e-6


@pytest.mark.parametrize("t_grid", [[], [1.0, math.nan], [math.inf], [-1.0]])
def test_stability_rejects_bad_time_grids(t_grid):
    model = example_flip(1.0)
    with pytest.raises(ValueError, match="grid empty|time must be a finite nonnegative real"):
        stability_report(model, [0.5], t_grid, EmpiricalMeasure.point_mass(0.0),
                         McSettings(n_samples=10))


def test_stability_pairwise_rows():
    model = example_flip(1.0)
    mc = McSettings(n_samples=300, seed=2)
    report = stability_report(model, [0.5, 2.0], [5.0], EmpiricalMeasure.point_mass(0.0), mc)
    pair_rows = [r for r in report.rows if r.label == "bl_between"]
    assert len(pair_rows) == 1
    assert pair_rows[0].x == "0.5|2"
    assert 0.0 <= pair_rows[0].value <= 2.0


# ---------------------------------------------------------------------------
# contraction bound audit


def test_b2_halving_identity_at_one():
    model, assume = example_halving(1.0)
    assert abs(check_b2(model, assume, [1.0])) <= 1e-15


def test_b2_holds_on_dense_grid():
    model, assume = example_halving(1.0)
    grid = np.linspace(0.01, 10.0, 1000)
    assert check_b2(model, assume, grid) <= 1e-12


def test_b2_anchor_point_no_slack():
    model, assume = example_halving(1.0)
    assert check_b2(model, assume, [0.0]) == 0.0


def test_b2_detects_violation():
    model, good = example_halving(1.0)
    stingy = AssumptionSet(anchor=0.0, r=lambda x: 0.9 * (1.0 - math.exp(-x) / 2.0),
                           omega=linear_modulus, m_start=0, eta=good.eta,
                           gamma=good.gamma, alpha=0.0)
    assert check_b2(model, stingy, [1.0]) > 0.0


# ---------------------------------------------------------------------------
# probability-modulus audit


def test_b3_exact_modulus_no_violation():
    model, assume = example_halving(1.0)
    grid = np.linspace(0.0, 10.0, 500)
    assert abs(check_b3(model, assume, grid, omega=halving_tv_modulus)) <= 1e-15


def test_b3_linear_modulus_fails_near_anchor():
    model, assume = example_halving(1.0)
    violation = check_b3(model, assume, [0.01], omega=linear_modulus)
    assert violation == pytest.approx(2.0 * (1.0 - math.exp(-0.01)) - 0.01, abs=1e-15)
    assert violation > 0.0


@pytest.mark.parametrize("field, match", [
    (lambda x: (1.0,), "returned 1 weights for 2 maps"),
    (lambda x: np.array([1.5, -0.5]), "negative selection probability -0.5"),
    (lambda x: (0.5, 0.4), "selection probabilities sum to 0.9"),
    (lambda x: (0.7, 0.7), "selection probabilities sum to 1.4"),
], ids=["count", "negative", "sum-low", "sum-high"])
def test_audits_reject_bad_selection_probabilities(field, match):
    # the audits validate weights with the checks and messages of the jump loop
    model = IfsModel(name="bad", maps=(lambda x: x, lambda x: x), prob_field=field, rate=1.0)
    _, assume = example_halving(1.0)
    with pytest.raises(ValueError, match=match):
        check_b2(model, assume, [0.5])
    with pytest.raises(ValueError, match=match):
        check_b3(model, assume, [0.5])


# ---------------------------------------------------------------------------
# series budget audit


def test_b5_boundary_identity():
    model, assume = example_halving(1.0)
    residual = check_b5(model, assume, 10, [0.125])
    assert abs(residual) <= 1e-12


def test_b5_interior_point_closed_form():
    model, assume = example_halving(1.0)
    x = 1.0 / 16.0
    residual = check_b5(model, assume, 10, [x])
    want = 2.0 * x * math.exp(x) - (1.0 - assume.gamma)
    assert residual == pytest.approx(want, abs=1e-12)
    assert residual < 0.0


def test_b5_vanishing_start_leaves_full_budget():
    model, assume = example_halving(1.0)
    residual = check_b5(model, assume, 10, [1e-12])
    assert residual == pytest.approx(-(1.0 - assume.gamma), abs=1e-10)


def test_b5_monotone_on_window():
    model, assume = example_halving(1.0)
    xs = np.linspace(0.01, 0.125, 15)
    residuals = [check_b5(model, assume, 10, [x]) for x in xs]
    assert all(b >= a for a, b in zip(residuals, residuals[1:]))


def test_b5_concave_modulus_blows_budget():
    # with the exact probability-gap modulus the same budget fails, which is
    # the structural tension between the two natural moduli for this model
    model, assume = example_halving(1.0)
    assert check_b5(model, assume, 14, [0.125], omega=halving_tv_modulus) > 0.0


def test_b5_refuses_nondecaying_terms():
    model, good = example_halving(1.0)
    flat = AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus,
                         m_start=0, eta=good.eta, gamma=good.gamma, alpha=0.0)
    with pytest.raises(ValueError, match="decay"):
        check_b5(model, flat, 8, [0.125])


@pytest.mark.parametrize("audit", [
    lambda model, assume: lower_bound_scan(model, 0.0, 0.1, [], [1.0]),
    lambda model, assume: check_b2(model, assume, []),
    lambda model, assume: check_b3(model, assume, []),
    lambda model, assume: check_b5(model, assume, 4, []),
], ids=["lowerbound", "b2", "b3", "b5"])
def test_empty_x_grid_is_rejected(audit):
    with pytest.raises(ValueError, match="^x grid empty$"):
        audit(*example_halving(1.0))


def test_stability_needs_an_initial_point():
    with pytest.raises(ValueError, match="^need at least one initial point$"):
        stability_report(CTMC, [], [1.0], EmpiricalMeasure.point_mass(0.0))


def test_b5_rejects_a_modulus_off_zero_and_a_single_positive_term():
    model, assume = example_halving(1.0)
    with pytest.raises(ValueError, match=r"^omega\(0\) must equal 0$"):
        check_b5(model, assume, 4, [0.1], omega=lambda s: s + 1.0)
    # m_start = 0 = n_trunc leaves one term, omega(|x - z|) > 0
    with pytest.raises(ValueError, match="^cannot extrapolate the tail from a single "
                                         "positive term; increase n_trunc$"):
        check_b5(model, assume, 0, [0.1])


def test_b5_reads_the_models_rate():
    # the budget carries (rate / (rate - alpha))^m with the model's own rate
    _, assume = example_halving(1.0)
    expanding = AssumptionSet(anchor=0.0, r=assume.r, omega=linear_modulus, m_start=0,
                              eta=assume.eta, gamma=assume.gamma, alpha=0.1)
    with pytest.raises(ValueError, match="rate > alpha"):
        check_b5(example_halving(0.1)[0], expanding, 10, [0.1])
    slow, fast = (check_b5(example_halving(lam)[0], expanding, 10, [0.1]) for lam in (1.0, 4.0))
    assert slow > fast


def test_b5_validation():
    model, assume = example_halving(1.0)
    with pytest.raises(ValueError, match="eta"):
        check_b5(model, assume, 10, [0.5])
    with pytest.raises(ValueError):
        check_b5(model, assume, -1, [0.1])
    inflated = AssumptionSet(anchor=0.0, r=assume.r, omega=linear_modulus, m_start=0,
                             eta=assume.eta, gamma=assume.gamma, alpha=1.0)
    with pytest.raises(ValueError, match="rate"):
        check_b5(model, inflated, 10, [0.1])


# ---------------------------------------------------------------------------
# reachability floor


def test_c2_absorbing_start_hits_at_time_zero():
    model = example_flip(1.0)
    mc = McSettings(n_samples=300, seed=53)
    report = check_c2(model, 0.0, [0.1], [0.0], 8.0, mc)
    row = next(r for r in report.rows if r.label == "c2_first_hit")
    assert row.t == "0" and row.value == 1.0


def test_c2_ctmc_hit_probability_matches_table():
    mc = McSettings(n_samples=20_000, seed=59)
    report = check_c2(CTMC, 0.0, [0.01], [CtmcState.high(2)], 16.0, mc)
    row = next(r for r in report.rows if r.label == "c2_first_hit")
    assert abs(row.value - (1.0 - math.exp(-8.0))) <= 3.0 * row.half_width


def test_c2_halving_beta_floor():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=1_500, seed=61)
    report = check_c2(model, 0.0, [0.1], [0.25, 1.0, 4.0], 512.0, mc)
    beta_row = next(r for r in report.rows if r.label == "c2_beta")
    beta = math.prod(1.0 - 2.0 ** (-i) for i in range(1, 60))
    assert beta == pytest.approx(0.288788, abs=1e-6)
    assert beta_row.value >= beta - 3.0 * beta_row.half_width


def test_c2_reports_failures():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=200, seed=67)
    report = check_c2(model, 0.0, [1e-9], [8.0], 2.0, mc)
    failed = [r for r in report.rows if r.error is not None]
    assert len(failed) == 1
    assert "no hit within" in failed[0].error
    assert failed[0].value == 0.0


def test_c2_starts_sharing_a_label_keep_their_own_hits():
    # 1.0000001 prints as "1"; the row of x = 1.0 and the floor must come
    # from the cells of x = 1.0 (0.25), not from those of 1.0000001 (0.27)
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=200, seed=3)
    report = check_c2(Sampled(model), 0.0, [0.1], [1.0, 1.0000001], t_search=4.0, mc=mc)
    assert report.values("c2_first_hit") == [0.25, 0.27]
    assert report.values("c2_beta") == [0.25]
    exact = check_c2(model, 0.0, [0.1], [1.0, 1.0000001], t_search=4.0, mc=mc)
    first, second = exact.values("c2_first_hit")
    assert first > second
    assert exact.values("c2_beta") == [second]


def test_c2_needs_a_radius():
    with pytest.raises(ValueError, match="^need at least one radius and one start$"):
        check_c2(example_flip(1.0), 0.0, [], [0.5], 4.0)


@pytest.mark.parametrize("t_search", [0.0, -1.0, math.nan, math.inf])
def test_c2_rejects_bad_search_horizon(t_search):
    # an infinite horizon used to double the search time forever
    model, _ = example_halving(1.0)
    with pytest.raises(ValueError, match="t_search"):
        check_c2(model, 0.0, [0.1], [1.0], t_search, McSettings(n_samples=10))


def test_c2_radius_monotone_via_shared_trajectories():
    model, _ = example_halving(1.0)
    mc = McSettings(n_samples=500, seed=71)
    report = check_c2(model, 0.0, [0.05, 0.2], [1.0], 64.0, mc)
    betas = report.values("c2_beta")
    assert betas[1] >= betas[0]


class _Tied:
    """An exact process whose hit probability from x at time t is
    ``probs[t] / x``, so that grid times tie."""

    name = "tied"

    def __init__(self, probs):
        self.probs = probs

    def state_label(self, x):
        return f"{x:g}"

    def exact_means(self, starts, times, functionals):
        return [[[(self.probs[t] / x, 0.0) for _ in functionals] for t in times]
                for x in starts]


def test_extreme_rows_name_the_first_grid_time_that_attains_them():
    # the lowest probability ties at t = 2 and 3, the highest at t = 2 and
    # 4: each start's row names t = 2, whatever the order of the grid given
    scan = lower_bound_scan(_Tied({1.0: 0.5, 2.0: 0.25, 3.0: 0.25, 4.0: 0.75}), 0.0, 0.1,
                            [1.0, 2.0], [3.0, 4.0, 2.0, 1.0])
    assert scan.mode == "exact"
    assert [(r.x, r.t, r.value) for r in scan.rows] == [
        ("1", "2", 0.25), ("2", "2", 0.125), ("all", "[1,4]", 0.125)]
    c2 = check_c2(_Tied({0.0: 0.0, 1.0: 0.25, 2.0: 0.5, 4.0: 0.5, 8.0: 0.125}), 0.0, [0.1],
                  [1.0, 2.0], 8.0)
    assert c2.mode == "exact"
    assert [(r.x, r.t, r.value) for r in c2.rows] == [
        ("1", "2", 0.5), ("2", "2", 0.25), ("eps=0.1", "<=8", 0.25)]


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rejects_negative_half_width():
    report = DiagnosticReport("test")
    with pytest.raises(ValueError):
        report.add("x", "a", "b", 1.0, -0.1)


def test_mc_settings_validation():
    with pytest.raises(ValueError):
        McSettings(n_samples=0)
    with pytest.raises(ValueError):
        McSettings(confidence=1.0)


# ---------------------------------------------------------------------------
# failed cells of the sampled mean diagnostics


_FAILING = {
    # (the cells the diagnostic samples, in order; the call)
    "ec_profile": ([(x, t) for x in (0.5, 1.0, 0.0) for t in (2.0, 40.0)],
                   lambda m, mc: ec_profile(m, F, 0.0, [0.5, 1.0], 2.0, 40.0, [2.0, 40.0], mc)),
    "eproperty_witness": ([(0.5, 2.0), (0.0, 2.0), (1.0, 40.0), (0.0, 40.0)],
                          lambda m, mc: eproperty_witness(m, F, 0.0, [(0.5, 2.0), (1.0, 40.0)],
                                                          mc)),
    "check_c2": ([(1.0, t) for t in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)],
                 lambda m, mc: check_c2(m, 0.0, [0.1], [1.0], 64.0, mc)),
}


@pytest.mark.parametrize("name", sorted(_FAILING))
def test_sampled_mean_diagnostic_raises_its_first_failed_cell(name):
    # halving under ExponentialFlow(0.1) whose stay map fails past 8: a
    # trajectory from 1 gets there before t = 40, none before t = 2
    model = _far_nan_model(ExponentialFlow(0.1))(1.0)[0]
    mc = McSettings(n_samples=50)
    cells, run = _FAILING[name]
    want = next(r for r in sample_cells(model, cells, mc.n_samples, mc.seed)
                if isinstance(r, str))
    assert re.fullmatch(_MAP_FAILURE, want)
    with pytest.raises(RuntimeError) as info:
        run(model, mc)
    assert str(info.value) == want
