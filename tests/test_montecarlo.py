import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from ergokit import montecarlo
from ergokit.core import Ball, EmpiricalMeasure, TestFunction, bump_function, constant, xmin1
from ergokit.exact_ctmc import CtmcProcess, CtmcState
from ergokit.ifs_jump import ExponentialFlow, IfsModel, example_flip, example_halving
from ergokit.montecarlo import (
    CHUNK,
    Estimate,
    McSettings,
    StreamFactory,
    _estimate,
    _time_grid,
    estimate_ptf,
    hoeffding_half_width,
    resolve_workers,
    run_batch,
    sample_cells,
    sample_terminals,
    stream_uniforms,
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
    for bound in (-1.0, math.nan):
        with pytest.raises(ValueError, match="value_bound must be nonnegative"):
            hoeffding_half_width(bound, 10, 0.9)


def test_half_width_of_a_constant_is_zero():
    # a constant has no spread, so its sample mean is exact
    assert hoeffding_half_width(0.0, 10, 0.9) == 0.0


def test_estimate_bracketing_helper():
    est = Estimate(mean=0.5, n_samples=10, half_width=0.1, confidence=0.99, value_bound=1.0)
    assert est.brackets(0.45) and est.brackets(0.6)
    assert not est.brackets(0.61)


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


def _draws(gen):
    return (gen.random(6).tolist(), gen.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist(),
            gen.random(), gen.integers(0, 2 ** 32, dtype=np.uint32), gen.standard_normal(3).tolist())


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("cell", [0, 2 ** 32 + 7])
@pytest.mark.parametrize("trajectory", [0, 2 ** 64 - 1])
def test_reused_stream_restarts_like_a_fresh_philox(seed, cell, trajectory):
    # leave the factory's stream mid-buffer with a cached 32-bit half
    # before every reset
    key = np.array([seed, 0x9E3779B97F4A7C15], dtype=np.uint64)
    factory = StreamFactory(seed)
    for other in (1, 2 ** 63, trajectory):
        left = factory.stream(cell + 1, other)
        left.random(3)
        left.integers(0, 2 ** 32, dtype=np.uint32)
        assert left.bit_generator.state["has_uint32"] == 1
        stream = factory.stream(cell, trajectory)
        assert stream.bit_generator.state["has_uint32"] == 0
        fresh = np.random.Generator(np.random.Philox(
            key=key, counter=np.array([0, trajectory, cell, 0], dtype=np.uint64)))
        assert _draws(stream) == _draws(fresh)


def test_seed_validation():
    with pytest.raises(ValueError):
        StreamFactory(-1)
    with pytest.raises(ValueError):
        StreamFactory(2 ** 64)
    with pytest.raises(ValueError):
        stream_uniforms(2 ** 64, 0, 0, 1, 1)


@pytest.mark.parametrize("bad", [0.5, 1.9, 1.0, "3", None])
def test_seed_that_is_no_integer_is_rejected(bad):
    # a float seed used to be truncated, so seed 0.5 drew seed 0's streams
    # and StreamFactory(1.9).seed was 1
    with pytest.raises(ValueError, match=rf"^seed must be an integer, got {re.escape(repr(bad))}$"):
        StreamFactory(bad)
    with pytest.raises(ValueError, match=r"^seed\b"):
        stream_uniforms(bad, 0, 0, 2, 1)
    halving, _ = example_halving(1.0)
    for process, x0 in ((halving, 1.0), (CTMC, CtmcState.low(2))):
        with pytest.raises(ValueError, match=r"^seed\b"):
            sample_terminals(process, x0, 1.0, 2, bad)


def test_seed_accepts_integer_types():
    want = StreamFactory(2 ** 64 - 1).stream(0, 0).random(3)
    assert StreamFactory(np.uint64(2 ** 64 - 1)).stream(0, 0).random(3).tobytes() == \
        want.tobytes()
    assert StreamFactory(np.int32(7)).seed == 7 and type(StreamFactory(np.int32(7)).seed) is int
    assert StreamFactory(True).seed == 1


@pytest.mark.parametrize("bad", [0.5, 1.0, -1, 2 ** 64, "3", None])
def test_stream_rejects_a_cell_or_trajectory_that_is_no_counter_word(bad):
    # a float cell used to be truncated, so cell 0.5 drew cell 0's stream
    factory = StreamFactory(1)
    with pytest.raises(ValueError, match=r"\bcell\b"):
        factory.stream(bad, 0)
    with pytest.raises(ValueError, match=r"\btrajectory\b"):
        factory.stream(0, bad)
    with pytest.raises(ValueError, match=r"\bcell\b"):
        factory.streams(bad, 2)
    with pytest.raises(ValueError, match=r"\bcell\b"):
        stream_uniforms(1, bad, 0, 2, 1)
    # the scalar sampler and the batch form reject the cell up front
    halving, _ = example_halving(1.0)
    for process in (halving, CTMC):
        x0 = CtmcState.low(2) if process is CTMC else 1.0
        with pytest.raises(ValueError, match=r"\bcell\b"):
            sample_terminals(process, x0, 1.0, 2, 1, cell=bad)


@pytest.mark.parametrize("cell", [0, 2 ** 64 - 1])
def test_cell_streams_restart_like_single_streams(cell):
    # each stream of a cell is read before the next one is taken; a stream
    # of another cell taken in between leaves the rest of the cell alone
    factory, single = StreamFactory(9), StreamFactory(9)
    got = []
    for k, stream in enumerate(factory.streams(cell, 4)):
        got.append(_draws(stream))
        factory.stream(1, k).random(5)
    assert got == [_draws(single.stream(cell, k)) for k in range(4)]
    assert list(factory.streams(cell, 0)) == []


def test_stream_uniforms_rejects_a_trajectory_range_of_no_counter_words():
    for start, stop in ((0.5, 2), (0, 2.5), (-1, 2), (0, 2 ** 64 + 1)):
        with pytest.raises(ValueError, match=r"\bst(art|op)\b"):
            stream_uniforms(1, 0, start, stop, 1)


def test_stream_accepts_integer_types_and_the_largest_words():
    factory = StreamFactory(2 ** 64 - 1)
    want = factory.stream(2 ** 64 - 1, 2 ** 64 - 1).random(5)
    got = factory.stream(np.uint64(2 ** 64 - 1), np.uint64(2 ** 64 - 1)).random(5)
    assert got.tobytes() == want.tobytes()
    assert factory.stream(np.int32(3), True).random() == factory.stream(3, 1).random()
    row = stream_uniforms(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 2, 2 ** 64, 5)[1]
    assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("cell", [0, 5, 2 ** 32 + 7, 2 ** 64 - 1])
def test_stream_uniforms_match_streams_bit_for_bit(seed, cell):
    # trajectories on both sides of a chunk boundary, draws across the
    # 4-word Philox block and up to block 17, so the rounds the kernel runs
    # on Python ints see many blocks and the largest words
    factory = StreamFactory(seed)
    start, stop = CHUNK - 3, CHUNK + 3
    for draws in [*range(1, 10), 63, 64, 65]:
        got = stream_uniforms(seed, cell, start, stop, draws)
        want = np.array([factory.stream(cell, k).random(draws) for k in range(start, stop)])
        assert got.shape == (stop - start, draws)
        assert got.tobytes() == want.tobytes()


def test_stream_uniforms_empty_range_and_validation():
    assert stream_uniforms(3, 1, 7, 7, 2).shape == (0, 2)
    with pytest.raises(ValueError):
        stream_uniforms(3, 1, 7, 6, 2)
    with pytest.raises(ValueError):
        stream_uniforms(3, 1, 0, 6, 0)


@pytest.mark.parametrize("bad", [0, -1, 2.0, 0.5, "2", None])
def test_stream_uniforms_rejects_draws_that_are_no_positive_integer(bad):
    # a float count used to fail in numpy's allocation, and None or a string
    # on a comparison, with a TypeError that did not name draws
    with pytest.raises(ValueError, match=rf"^draws must be a positive integer, got "
                                         rf"{re.escape(repr(bad))}$"):
        stream_uniforms(3, 1, 0, 6, bad)


def test_stream_uniforms_accept_integer_types_for_draws():
    # np.uint8(1) used to wrap in -draws and fail with an IndexError
    want = stream_uniforms(3, 1, 0, 6, 2)
    assert stream_uniforms(3, 1, 0, 6, np.int64(2)).tobytes() == want.tobytes()
    assert stream_uniforms(3, 1, 0, 6, np.uint8(1)).tobytes() == want[:, :1].tobytes()


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
    est = _estimate(sample_terminals(model, 0.0, 17.0, 400, seed=0), Ball(0.0, 0.1), 0.999)
    assert est.mean == 1.0
    assert est.value_bound == 1.0


def test_hit_ctmc_matches_closed_form():
    # only the absorbing state sits inside B(0, 0.01) for the level-3 cascade
    est = _estimate(sample_terminals(CTMC, CtmcState.low(3), 3.0, 100_000, seed=21),
                    Ball(0.0, 0.01), 0.999)
    exact = 1.0 - 2.0 * math.exp(-1.0)
    assert abs(est.mean - exact) <= 3.0 * est.half_width


def test_hit_halving_long_run():
    model, _ = example_halving(1.0)
    est = _estimate(sample_terminals(model, 1.0, 200.0, 10_000, seed=2), Ball(0.0, 0.1), 0.999)
    assert est.mean >= 0.95


def _float32_min1(x):
    return np.float32(x if x < 1.0 else 1.0)


def test_custom_function_keeps_the_loops_promotion():
    # a user's evaluator is summed one value at a time from 0.0, so float32
    # values keep a float32 total and mean; pinned as of 0.8.0
    f = TestFunction(_float32_min1, sup_bound=1.0, lip_const=1.0, lower=0.0, upper=1.0,
                     name="f32")
    est = estimate_ptf(CTMC, CtmcState.low(4), 4.0, f, 6000, seed=9)
    assert type(est.mean) is np.float32
    assert est.mean.tobytes().hex() == "d815e83e"
    cells = [(CtmcState.low(4), 4.0), (CtmcState.high(3), 1.0)]
    for workers in (1, 2):
        got = run_batch(CTMC, cells, (f,), McSettings(6000, 9, workers=workers), 0.999)
        assert [(type(e.mean), e.mean.tobytes().hex()) for [e] in got] == \
            [(np.float32, "d815e83e"), (np.float32, "7605383f")]


def _loop_mean(values, f):
    total = 0.0
    for v in values:
        total += f(v)
    return total / len(values)


def _outcome(mean):
    """The bits of mean(), or the error it raises."""
    try:
        return np.float64(mean()).tobytes()
    except Exception as exc:
        return repr(exc)


_EDGES = [0.0, -0.0, 5e-324, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5, 0.9, 1.0, 1.1, 1.9, 2.0, 2.1,
          3.0, 1e308]


@pytest.mark.parametrize("f", [
    xmin1(), constant(3.0), constant(-0.0), constant(1e308), bump_function((0.0, 1.0), 0.5),
    bump_function((1.0, 2.0), 0.4), bump_function(Ball(0.3, 0.1), 0.05),
    bump_function((0.0, 0.0), 1.0)], ids=lambda f: f.name)
def test_builtin_array_sums_equal_the_loop(f):
    # every built-in sums its array form, which must give the loop's bits;
    # states off the half-line take the loop itself
    rng = np.random.default_rng(17)
    samples = [np.array(_EDGES), np.full(7, -0.0), rng.random(5000) * 3.0,
               rng.choice(_EDGES, 5000), np.array([0.5, -1.0, math.nan, math.inf])]
    for values in samples:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: _estimate(values, f, 0.99).mean)
        assert got == _outcome(lambda: _loop_mean(values, f))


def test_bump_whose_denominator_vanishes_still_raises():
    # at 2, bump:1,2,1e-300 divides 0 by 0: the scalar form's error, as a
    # cell of run_batch reports it
    f = bump_function((1.0, 2.0), 1e-300)
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        _estimate(np.array([0.0, 1.5, 2.0]), f, 0.99)
    assert _estimate(np.array([0.0, 1.5]), f, 0.99).mean == 0.5


def test_array_forms_leave_test_function_equality_alone():
    assert [fd.name for fd in dataclasses.fields(TestFunction)] == \
        ["evaluator", "sup_bound", "lip_const", "lower", "upper", "name"]
    plain = TestFunction(xmin1().evaluator, 1.0, 1.0, 0.0, 1.0, "xmin1")
    assert xmin1() == plain and hash(xmin1()) == hash(plain)
    assert repr(xmin1()) == repr(plain)
    # a copy with another evaluator has no array form
    halved = dataclasses.replace(xmin1(), evaluator=lambda x: x / 2.0)
    assert _estimate(np.array([0.5, 3.0]), halved, 0.99).mean == 0.875


def test_ball_count_matches_contains_on_the_boundary():
    ball = Ball(0.3, 0.1)
    values = np.array([0.3, 0.2, 0.4, 0.19999999999999998, 0.39999999999999997,
                       0.2000000000000001, 0.0, 5.0])
    est = _estimate(values, ball, 0.99)
    assert est.mean == sum(1 for v in values if ball.contains(v)) / len(values)


@pytest.mark.parametrize("process, x0", [(CtmcProcess(), CtmcState.low(2)),
                                         (example_flip(1.0), 0.5)], ids=["ctmc", "flip"])
def test_sample_terminals_needs_a_trajectory(process, x0):
    with pytest.raises(ValueError, match="^need at least one trajectory$"):
        sample_terminals(process, x0, 1.0, 0, seed=0)


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


class _ScalarOnly:
    """A process with a one-trajectory sampler but neither sampler form."""

    name = "scalar-only"

    def terminal_state(self, x0, t, stream):
        return x0


def test_a_process_without_a_sampler_form_fails_before_any_stream(monkeypatch):
    def drawn(*args, **kwargs):
        raise AssertionError("a stream was drawn")

    for owner, name in ((StreamFactory, "stream"), (StreamFactory, "streams"),
                        (montecarlo, "stream_uniforms")):
        monkeypatch.setattr(owner, name, drawn)
    msg = ("a process needs a batch form terminal_states(x0, t, uniforms) "
           "or a cell form terminal_states_from(x0, t, streams)")
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        sample_terminals(_ScalarOnly(), 1.0, 2.0, 10, 0, cell=3)
    cells = [(1.0, 2.0), (0.5, 1.0)]
    for workers in (1, 2):
        assert run_batch(_ScalarOnly(), cells, (F,), McSettings(10, 0, workers=workers),
                         0.999) == [msg, msg]


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


CTMC_STARTS = (CtmcState.low(2), CtmcState.high(3), CtmcState.zero())


def _cells(times=(1.0, 3.0)):
    return [(x0, t) for x0 in CTMC_STARTS for t in times]


def test_batch_shape_and_declared_order():
    cells = _cells()
    results = run_batch(CTMC, cells, (F, Ball(0.0, 0.1)), McSettings(200, 99), 0.99)
    assert len(results) == 6
    for (x0, t), cell in zip(cells, results):
        assert [est.value_bound for est in cell] == [F.value_bound, 1.0]
        assert all(est.n_samples == 200 and est.confidence == 0.99 for est in cell)
    # the first start in declared order draws stream cell 0, not sorted by
    # start or time
    flipped = run_batch(CTMC, cells[::-1], (F,), McSettings(200, 99), 0.99)
    assert flipped[0][0] == estimate_ptf(CTMC, *cells[-1], F, 200, 99, cell=0,
                                         confidence=0.99)


def test_batch_single_cell_reproducible():
    args = (CTMC, [(CtmcState.low(2), 2.0)], (F,), McSettings(1, 5), 0.999)
    a = run_batch(*args)
    b = run_batch(*args)
    assert a == b


def test_batch_bitwise_identical_across_worker_counts():
    serial = run_batch(CTMC, _cells(), (F,), McSettings(300, 99, workers=1), 0.999)
    parallel = run_batch(CTMC, _cells(), (F,), McSettings(300, 99, workers=3), 0.999)
    assert serial == parallel


def test_batch_cell_failure_does_not_abort_siblings():
    def sometimes_bad(x):
        if x > 5.0:
            return math.inf
        return x / 2.0

    model = IfsModel(name="fragile", maps=(sometimes_bad,),
                     prob_field=lambda x: np.array([1.0]), rate=1.0)
    results = run_batch(model, [(1.0, 4.0), (7.0, 4.0)], (F,), McSettings(50, 1), 0.999)
    assert isinstance(results[0][0], Estimate)
    assert isinstance(results[1], str)
    assert "w1" in results[1]


def test_batch_functional_failure_fails_only_its_cell():
    def inverse(x):
        if x == 0.0:
            raise ValueError("no inverse at 0")
        return min(1.0, 1.0 / x)

    inv = TestFunction(inverse, sup_bound=1.0, lip_const=1.0, lower=0.0, name="inv")
    model, _ = example_halving(1.0)
    # 0 absorbs, and at time 0 every trajectory still sits at its start
    cells = [(4.0, 0.0), (0.0, 2.0), (2.0, 0.0)]
    results = run_batch(model, cells, (F, inv), McSettings(40, 3), 0.999)
    assert results[1] == "no inverse at 0"
    for i in (0, 2):
        assert results[i] == [estimate_ptf(model, *cells[i], fn, 40, 3, cell=i)
                              for fn in (F, inv)]


def test_batch_functionals_share_each_cell():
    starts = (CtmcState.low(2), CtmcState.high(3))
    cells = [(x0, t) for x0 in starts for t in (1.0, 4.0)]
    ball = Ball(0.0, 0.1)
    results = run_batch(CTMC, cells, (F, ball), McSettings(400, 21), 0.999)
    assert len(results) == 4
    for j, (x0, t) in enumerate(cells):
        # the cell of start s feeds both functionals from stream cell s
        s = starts.index(x0)
        assert results[j] == [estimate_ptf(CTMC, x0, t, F, 400, 21, cell=s),
                              _estimate(sample_terminals(CTMC, x0, t, 400, 21, cell=s), ball,
                                        0.999)]
    single = run_batch(CTMC, cells, (F,), McSettings(400, 21), 0.999)
    assert [cell[:1] for cell in results] == single


# ---------------------------------------------------------------------------
# the chain is sampled once per start


# three starts, each at its times in another order, interleaved
CHAIN_CELLS = [(CtmcState.low(2), 4.0), (CtmcState.high(3), 16.0), (CtmcState.low(2), 1.0),
               (CtmcState.low(5), 0.5), (CtmcState.high(3), 1.0), (CtmcState.low(5), 16.0),
               (CtmcState.low(2), 16.0), (CtmcState.low(5), 4.0), (CtmcState.high(3), 0.0)]
CHAIN_STARTS = [CtmcState.low(2), CtmcState.high(3), CtmcState.low(5)]


@pytest.mark.parametrize("order", [range(9), range(8, -1, -1), (4, 0, 8, 2, 6, 1, 3, 7, 5)],
                         ids=["declared", "reversed", "shuffled"])
def test_chain_cells_draw_the_streams_of_their_start(order):
    # two chunks: the uniforms of each chunk serve every time of a start
    cells = [CHAIN_CELLS[i] for i in order]
    starts = list(dict.fromkeys(x0 for x0, _ in cells))
    samples = sample_cells(CTMC, cells, CHUNK + 5, 8)
    for (x0, t), got in zip(cells, samples):
        want = sample_terminals(CTMC, x0, t, CHUNK + 5, 8, cell=starts.index(x0))
        assert got.tobytes() == want.tobytes()


def test_chain_cells_bitwise_identical_across_worker_counts():
    serial = sample_cells(CTMC, CHAIN_CELLS, 300, 12, workers=1)
    parallel = sample_cells(CTMC, CHAIN_CELLS, 300, 12, workers=2)
    assert [a.tobytes() for a in serial] == [b.tobytes() for b in parallel]


def test_equal_chain_starts_share_their_samples():
    cells = [(CtmcState.low(2), 1.0), (CtmcState.high(3), 1.0), (CtmcState.low(2), 4.0),
             (CtmcState.low(2), 1.0)]
    samples = sample_cells(CTMC, cells, 200, 3)
    assert samples[3].tobytes() == samples[0].tobytes()
    assert samples[1].tobytes() == \
        sample_terminals(CTMC, CtmcState.high(3), 1.0, 200, 3, cell=1).tobytes()


class _FailsAtTwo(CtmcProcess):
    """The chain, whose batch form raises at t = 2 on the second chunk."""

    def terminal_states(self, x0, t, uniforms):
        if t == 2.0 and len(uniforms) < CHUNK:
            raise ValueError("no states at t = 2")
        return super().terminal_states(x0, t, uniforms)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_batch_failure_at_one_time_fails_only_that_cell(workers):
    process = _FailsAtTwo()
    cells = [(CtmcState.low(2), 1.0), (CtmcState.high(3), 2.0), (CtmcState.high(3), 1.0),
             (CtmcState.low(2), 2.0), (CtmcState.high(3), 4.0)]
    samples = sample_cells(process, cells, CHUNK + 5, 4, workers=workers)
    assert samples[1] == f"trajectory {CHUNK} of cell 1: no states at t = 2"
    assert samples[3] == f"trajectory {CHUNK} of cell 0: no states at t = 2"
    for i, s in ((0, 0), (2, 1), (4, 1)):
        want = sample_terminals(CTMC, *cells[i], CHUNK + 5, 4, cell=s)
        assert samples[i].tobytes() == want.tobytes()


def test_jump_system_cells_keep_their_cell_streams_in_stability_report(monkeypatch):
    # the contract a replay of a stability report relies on: under a cell
    # form, cell i of initials x sorted times draws stream cell i
    from ergokit import diagnostics

    model = IfsModel(name="moving", maps=(lambda x: x / 2.0, lambda x: x / 2.0 + 1.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0, flow=ExponentialFlow(0.1))
    seen = []

    def recorded(process, cells, n, seed, workers=None):
        seen.append((cells, sample_cells(process, cells, n, seed, workers)))
        return seen[-1][1]

    monkeypatch.setattr(diagnostics, "sample_cells", recorded)
    diagnostics.stability_report(model, [0.0, 2.0, 0.0], [3.0, 1.0],
                                 EmpiricalMeasure.point_mass(0.0), McSettings(50, 6))
    (cells, samples), = seen
    assert cells == [(x, t) for x in (0.0, 2.0, 0.0) for t in (1.0, 3.0)]
    for i, ((x, t), got) in enumerate(zip(cells, samples)):
        assert got.tobytes() == sample_terminals(model, x, t, 50, 6, cell=i).tobytes()
    assert samples[0].tobytes() != samples[4].tobytes()


def test_time_grid_and_mc_settings_validation():
    with pytest.raises(ValueError, match="grid empty"):
        _time_grid([])
    with pytest.raises(ValueError):
        _time_grid([1.0, -1.0])
    with pytest.raises(ValueError):
        McSettings(n_samples=0)
    assert _time_grid((2, 0.5)) == [2.0, 0.5]


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_time_grid_rejects_non_finite_times(t):
    with pytest.raises(ValueError, match="finite"):
        _time_grid([1.0, t])


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
