import math

import numpy as np
import pytest

from ergokit.core import Ball, xmin1
from ergokit.exact_ctmc import CtmcProcess, CtmcState
from ergokit.ifs_jump import ExponentialFlow, IfsModel, example_flip, example_halving
from ergokit.montecarlo import (
    Estimate,
    SamplingPlan,
    StreamFactory,
    estimate_hit,
    estimate_ptf,
    hoeffding_half_width,
    resolve_workers,
    run_batch,
    sample_cells,
    sample_terminals,
)

from oracles import flip_expectation_xmin1

F = xmin1()
CTMC = CtmcProcess()


# ---------------------------------------------------------------------------
# confidence width arithmetic


def test_half_width_formula_is_exact():
    for bound, n, conf in [(1.0, 100, 0.999), (2.0, 7, 0.95), (0.5, 10_000, 0.99)]:
        delta = 1.0 - conf
        want = bound * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
        assert hoeffding_half_width(bound, n, conf) == want


def test_half_width_validation():
    with pytest.raises(ValueError):
        hoeffding_half_width(1.0, 0, 0.999)
    with pytest.raises(ValueError):
        hoeffding_half_width(1.0, 10, 1.0)
    with pytest.raises(ValueError):
        hoeffding_half_width(0.0, 10, 0.9)


def test_estimate_bracketing_helper():
    est = Estimate(mean=0.5, n_samples=10, half_width=0.1, confidence=0.99, value_bound=1.0)
    assert est.brackets(0.45) and est.brackets(0.6)
    assert not est.brackets(0.61)
    assert est.lower == pytest.approx(0.4) and est.upper == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# stream derivation


def test_streams_differ_across_cells_and_trajectories():
    factory = StreamFactory(12345)
    draws = {
        (cell, k): factory.stream(cell, k).random()
        for cell in range(3) for k in range(3)
    }
    assert len(set(draws.values())) == 9


def test_streams_reproducible_across_factories():
    a = StreamFactory(42).stream(5, 9).random()
    b = StreamFactory(42).stream(5, 9).random()
    assert a == b


def test_stream_reset_matches_fresh_philox():
    key = np.array([42, 0x9E3779B97F4A7C15], dtype=np.uint64)
    fresh = np.random.Generator(
        np.random.Philox(key=key, counter=np.array([0, 9, 5, 0], dtype=np.uint64)))
    want = [fresh.random() for _ in range(5)]
    got_stream = StreamFactory(42).stream(5, 9)
    got = [got_stream.random() for _ in range(5)]
    assert got == want


def test_seed_validation():
    with pytest.raises(ValueError):
        StreamFactory(-1)
    with pytest.raises(ValueError):
        StreamFactory(2 ** 64)


# ---------------------------------------------------------------------------
# estimators against exact oracles


def test_ptf_degenerate_at_absorbing_state():
    est = estimate_ptf(CTMC, CtmcState.zero(), 13.0, F, 500, seed=7)
    assert est.mean == 0.0
    assert est.half_width == hoeffding_half_width(1.0, 500, 0.999)
    assert est.value_bound == 1.0


def test_ptf_ctmc_matches_closed_form():
    est = estimate_ptf(CTMC, CtmcState.low(4), 4.0, F, 100_000, seed=11)
    exact = math.exp(-1.0) * 1.25
    assert abs(est.mean - exact) <= 3.0 * est.half_width


def test_ptf_flip_matches_jump_matrix_oracle():
    model = example_flip(1.0)
    est = estimate_ptf(model, 0.2, 5.0, F, 20_000, seed=3)
    want = flip_expectation_xmin1(0.2, 1.0, 5.0)
    assert abs(est.mean - want) <= 3.0 * est.half_width


def test_ptf_halving_absorbs():
    model, _ = example_halving(1.0)
    est = estimate_ptf(model, 1.0, 100.0, F, 10_000, seed=5)
    assert est.mean < 0.02


def test_hit_absorbing_start_always_inside():
    model = example_flip(1.0)
    est = estimate_hit(model, 0.0, 17.0, Ball(0.0, 0.1), 400, seed=0)
    assert est.mean == 1.0
    assert est.value_bound == 1.0


def test_hit_ctmc_matches_closed_form():
    # only the absorbing state sits inside B(0, 0.01) for the level-3 cascade
    est = estimate_hit(CTMC, CtmcState.low(3), 3.0, Ball(0.0, 0.01), 100_000, seed=21)
    exact = 1.0 - 2.0 * math.exp(-1.0)
    assert abs(est.mean - exact) <= 3.0 * est.half_width


def test_hit_halving_long_run():
    model, _ = example_halving(1.0)
    est = estimate_hit(model, 1.0, 200.0, Ball(0.0, 0.1), 10_000, seed=2)
    assert est.mean >= 0.95


def test_sampler_failure_carries_trajectory_index():
    def bad(x):
        return math.nan

    model = IfsModel(name="nanmap", maps=(bad,), prob_field=lambda x: np.array([1.0]), rate=5.0)
    with pytest.raises(RuntimeError, match=r"trajectory 0 of cell 3"):
        sample_terminals(model, 1.0, 10.0, 4, seed=0, cell=3)


def test_overflowing_flow_fails_instead_of_returning_inf():
    # at rate 1e-3 most trajectories never jump, and their terminal point
    # flow(100, 1e10) = 1e10 * exp(700) overflows to inf
    model = IfsModel(name="blowup", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1e-3, flow=ExponentialFlow(7.0))
    msg = r"flow ExponentialFlow\(alpha=7\.0\) of model 'blowup'"
    with pytest.raises(RuntimeError, match=msg + r".* from x=10000000000\.0 after time 100\.0"):
        sample_terminals(model, 1e10, 100.0, 20, seed=0)
    with pytest.raises(RuntimeError, match=msg):
        estimate_ptf(model, 1e10, 100.0, F, 20, seed=0)
    with pytest.raises(RuntimeError, match=msg):
        estimate_hit(model, 1e10, 100.0, Ball(0.0, 1.0), 20, seed=0)


# ---------------------------------------------------------------------------
# the cell engine


HALVING_CELLS = [(1.0, 2.0), (4.0, 2.0), (1.0, 8.0), (0.0, 3.0)]


def test_sample_cells_draw_each_cell_from_its_own_stream():
    model, _ = example_halving(1.0)
    samples = sample_cells(model, HALVING_CELLS, 60, 17)
    assert len(samples) == len(HALVING_CELLS)
    for i, (x0, t) in enumerate(HALVING_CELLS):
        want = sample_terminals(model, x0, t, 60, 17, cell=i)
        assert samples[i].tobytes() == want.tobytes()
    # cell order, not (x0, t): the repeated start 1.0 draws other streams
    assert samples[0].tobytes() != sample_terminals(model, 1.0, 2.0, 60, 17, cell=2).tobytes()


def test_sample_cells_failure_does_not_abort_siblings():
    model = IfsModel(name="blowup", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1e-3, flow=ExponentialFlow(7.0))
    cells = [(1.0, 2.0), (1e10, 100.0), (2.0, 2.0)]
    samples = sample_cells(model, cells, 5, 0)
    assert isinstance(samples[1], str)
    assert samples[1].startswith("trajectory 0 of cell 1: flow ExponentialFlow")
    for i in (0, 2):
        want = sample_terminals(model, *cells[i], 5, 0, cell=i)
        assert samples[i].tobytes() == want.tobytes()


def test_sample_cells_bitwise_identical_across_worker_counts():
    model, _ = example_halving(1.0)
    serial = sample_cells(model, HALVING_CELLS, 80, 5, workers=1)
    parallel = sample_cells(model, HALVING_CELLS, 80, 5, workers=2)
    assert [a.tobytes() for a in serial] == [b.tobytes() for b in parallel]


# ---------------------------------------------------------------------------
# batch runs


def _plan(n_samples=200, seed=99, times=(1.0, 3.0)):
    return SamplingPlan(
        process=CTMC,
        initials=(CtmcState.low(2), CtmcState.high(3), CtmcState.zero()),
        times=times,
        functionals=(F,),
        n_samples=n_samples,
        seed=seed,
    )


def test_batch_shape_and_declared_order():
    results = run_batch(_plan())
    assert len(results) == 6
    assert [r.cell_index for r in results] == list(range(6))
    assert [r.initial for r in results] == ["low:2", "low:2", "high:3", "high:3", "zero", "zero"]
    assert [r.time for r in results] == [1.0, 3.0] * 3


def test_batch_single_cell_reproducible():
    plan = SamplingPlan(CTMC, (CtmcState.low(2),), (2.0,), (F,), 1, 5)
    a = run_batch(plan)
    b = run_batch(plan)
    assert a == b


def test_batch_bitwise_identical_across_worker_counts():
    plan = _plan(n_samples=300)
    serial = run_batch(plan, workers=1)
    parallel = run_batch(plan, workers=3)
    assert serial == parallel


def test_batch_cell_failure_does_not_abort_siblings():
    def sometimes_bad(x):
        if x > 5.0:
            return math.inf
        return x / 2.0

    model = IfsModel(name="fragile", maps=(sometimes_bad,),
                     prob_field=lambda x: np.array([1.0]), rate=1.0)
    plan = SamplingPlan(model, (1.0, 7.0), (4.0,), (F,), 50, 1)
    results = run_batch(plan)
    assert results[0].error is None and results[0].estimate is not None
    assert results[1].error is not None and results[1].estimate is None
    assert "w1" in results[1].error


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(CTMC, (), (1.0,), (F,), 10, 0)
    with pytest.raises(ValueError):
        SamplingPlan(CTMC, (CtmcState.zero(),), (-1.0,), (F,), 10, 0)
    with pytest.raises(ValueError):
        SamplingPlan(CTMC, (CtmcState.zero(),), (1.0,), (F,), 0, 0)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("ERGOKIT_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("ERGOKIT_WORKERS", "3")
    assert resolve_workers(None) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)


@pytest.mark.parametrize("raw", ["abc", "0", "-2", ""])
def test_resolve_workers_bad_env_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("ERGOKIT_WORKERS", raw)
    with pytest.raises(ValueError, match="ERGOKIT_WORKERS"):
        resolve_workers(None)
    assert resolve_workers(2) == 2  # an explicit count does not read the variable


# ---------------------------------------------------------------------------
# coverage calibration (small-scale version of the acceptance run)


def test_ctmc_coverage_quick():
    exact = math.exp(-1.0) * 1.25
    misses = 0
    for seed in range(40):
        est = estimate_ptf(CTMC, CtmcState.low(4), 4.0, F, 2_000, seed=seed)
        misses += not est.brackets(exact)
    assert misses == 0
