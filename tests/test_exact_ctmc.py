import math
import pickle
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from ergokit.core import Ball, xmin1
from ergokit.exact_ctmc import (
    CtmcProcess,
    CtmcState,
    _jump_system,
    chapman_kolmogorov_residual,
    parse_ctmc_state,
    sample_path,
    semigroup_apply,
    transition_prob,
)
from ergokit.montecarlo import (
    CHUNK,
    StreamFactory,
    hoeffding_half_width,
    sample_terminals,
    stream_uniforms,
)
from oracles import ctmc_zero_mass

F = xmin1()


def states(n):
    return CtmcState.low(n), CtmcState.high(n), CtmcState.zero()


# ---------------------------------------------------------------------------
# transition table


def test_low_to_high_at_matching_time():
    assert transition_prob(CtmcState.low(4), CtmcState.high(4), 4.0) == pytest.approx(
        math.exp(-1.0), abs=1e-15)


def test_zero_is_absorbing():
    for t in (0.0, 1.0, 123.4):
        assert transition_prob(CtmcState.zero(), CtmcState.zero(), t) == 1.0
        assert transition_prob(CtmcState.zero(), CtmcState.low(2), t) == 0.0


def test_time_zero_is_identity():
    low3, high3, zero = states(3)
    assert transition_prob(low3, zero, 0.0) == 0.0
    assert transition_prob(low3, low3, 0.0) == 1.0
    assert transition_prob(high3, high3, 0.0) == 1.0


def test_no_cross_cascade_transitions():
    assert transition_prob(CtmcState.low(3), CtmcState.high(5), 2.0) == 0.0
    assert transition_prob(CtmcState.high(3), CtmcState.low(3), 2.0) == 0.0


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        transition_prob(CtmcState.low(2), CtmcState.zero(), -0.1)


@pytest.mark.parametrize("n", [2, 3, 7, 50])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 5.0, 40.0])
def test_rows_sum_to_one(n, t):
    row_states = states(n)
    for i in row_states:
        total = sum(transition_prob(i, j, t) for j in row_states)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_absorption_is_monotone_in_time():
    zero = CtmcState.zero()
    grid = np.linspace(0.0, 60.0, 121)
    for i in (CtmcState.low(4), CtmcState.high(4)):
        probs = [transition_prob(i, zero, t) for t in grid]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# semigroup evaluation


def test_expectation_from_absorbing_state_is_zero():
    assert semigroup_apply(F, CtmcState.zero(), 7.0) == 0.0


def test_expectation_low2_at_time_two():
    got = semigroup_apply(F, CtmcState.low(2), 2.0)
    assert got == pytest.approx(math.exp(-1.0) * 1.5, abs=1e-15)


def test_expectation_high5_at_time_five():
    got = semigroup_apply(F, CtmcState.high(5), 5.0)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 50])
def test_diagonal_gap_identity(n):
    # the time-n gap between starting at 1/n and at 0 is exp(-1) (1 + 1/n)
    gap = semigroup_apply(F, CtmcState.low(n), float(n)) - semigroup_apply(
        F, CtmcState.zero(), float(n))
    assert gap == pytest.approx(math.exp(-1.0) * (1.0 + 1.0 / n), abs=1e-12)
    assert gap >= math.exp(-1.0)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_gap_dies_out_for_fixed_start(n):
    # max over [10n, 100n] of the expectation from 1/n, against the closed form
    grid = np.linspace(10.0 * n, 100.0 * n, 64)
    psi = max(abs(semigroup_apply(F, CtmcState.low(n), t)) for t in grid)
    closed = max(math.exp(-t / n) * (1.0 + t) / n for t in grid)
    assert psi == pytest.approx(closed, abs=1e-15)
    assert psi <= 11.0 * math.exp(-10.0) < 5e-4


# ---------------------------------------------------------------------------
# consistency of the table


@pytest.mark.parametrize("seed", range(4))
def test_chapman_kolmogorov_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        s, t = rng.uniform(0.0, 40.0, size=2)
        assert chapman_kolmogorov_residual(n, s, t) < 1e-12


def test_chapman_kolmogorov_at_time_zero_is_exact():
    assert chapman_kolmogorov_residual(2, 0.0, 5.0) == 0.0


def test_chapman_kolmogorov_symbolic_case():
    assert chapman_kolmogorov_residual(3, 1.0, 2.0) < 1e-12
    assert chapman_kolmogorov_residual(10, 7.3, 0.4) < 1e-12


# ---------------------------------------------------------------------------
# trajectory sampling against the closed form


def test_sample_path_zero_absorbing():
    stream = StreamFactory(1).stream(0, 0)
    for t in (0.0, 2.0, 50.0):
        assert sample_path(CtmcState.zero(), t, stream) == CtmcState.zero()


def test_sample_path_no_time_no_move():
    stream = StreamFactory(1).stream(0, 1)
    assert sample_path(CtmcState.high(4), 0.0, stream) == CtmcState.high(4)


def test_sample_path_marginal_matches_table():
    # empirical occupation of High(4) at t = 4 vs the closed form exp(-1)
    n_samples = 100_000
    factory = StreamFactory(777)
    start = CtmcState.low(4)
    hits_high = 0
    hits_low = 0
    for k in range(n_samples):
        out = sample_path(start, 4.0, factory.stream(0, k))
        hits_high += out == CtmcState.high(4)
        hits_low += out == CtmcState.low(4)
    hw = hoeffding_half_width(1.0, n_samples, 0.999)
    assert hits_high / n_samples == pytest.approx(math.exp(-1.0), abs=3 * hw)
    assert hits_low / n_samples == pytest.approx(math.exp(-1.0), abs=3 * hw)


def test_process_terminal_state_embeds_sampled_state():
    proc = CtmcProcess()
    factory = StreamFactory(5)
    uniforms = factory.stream(0, 0).random((1, proc.batch_draws))
    a = proc.terminal_states(CtmcState.low(3), 3.0, uniforms)[0]
    b = sample_path(CtmcState.low(3), 3.0, factory.stream(0, 0)).value
    assert a == b


@pytest.mark.parametrize("x0", [CtmcState.zero(), CtmcState.low(3), CtmcState.high(3),
                                CtmcState.low(60), CtmcState.high(60)])
@pytest.mark.parametrize("t", [0.0, 0.5, "n", 60.0])
def test_terminal_states_match_sample_path(x0, t):
    t = float(max(x0.n, 2)) if t == "n" else t
    proc, factory, n = CtmcProcess(), StreamFactory(41), 500
    uniforms = stream_uniforms(41, 6, 0, n, proc.batch_draws)
    got = proc.terminal_states(x0, t, uniforms)
    want = [sample_path(x0, t, factory.stream(6, k)).value for k in range(n)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _ulps_around(x, k=200):
    """The 2k + 1 floats from k ulps below x to k ulps above it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def _next_to_t(n, t):
    """Uniform pairs whose first holding time lies within 200 ulps of t, and
    pairs whose second holding time brings the sum within 200 ulps of t."""
    first = _ulps_around(-math.expm1(-t / n))
    rows = [np.column_stack((first, np.full(len(first), 0.5)))]
    for frac in (0.1, 0.37, 0.5, 0.8, 0.99):
        u0 = -math.expm1(-frac * t / n)
        rest = t + n * math.log1p(-u0)  # t minus the first holding time
        second = _ulps_around(-math.expm1(-rest / n))
        rows.append(np.column_stack((np.full(len(second), u0), second)))
    return np.concatenate(rows)


_NEXT_TO_T = [(2, 1.0), (3, 0.5), (5, 0.7), (6, 7.0), (60, 60.0), (100, 1.5)]


@pytest.mark.parametrize("n, t", _NEXT_TO_T)
@pytest.mark.parametrize("kind", ["low", "high"])
def test_terminal_states_match_sample_path_next_to_t(n, t, kind):
    # numpy's log1p puts some of these rows on the other side of t than
    # math.log1p (see below): the scalar recheck must settle every one as
    # sample_path does
    x0 = CtmcState(kind, n)
    uniforms = _next_to_t(n, t)
    got = CtmcProcess().terminal_states(x0, t, uniforms)
    want = [sample_path(x0, t, SimpleNamespace(random=iter(row).__next__)).value
            for row in uniforms.tolist()]
    assert got.tobytes() == np.array(want).tobytes()


def test_next_to_t_rows_include_log1p_disagreements():
    # rows where an array pass alone would pick another state than the
    # scalar cascade, both on the first holding time and on the sum
    first = second = 0
    for n, t in _NEXT_TO_T:
        u = _next_to_t(n, t)
        hold = float(-n) * np.log1p(-u)
        want = np.array([[-n * math.log1p(-v) for v in row] for row in u.tolist()])
        first += np.count_nonzero((hold[:, 0] <= t) != (want[:, 0] <= t))
        second += np.count_nonzero(((hold.sum(axis=1) <= t) != (want.sum(axis=1) <= t))
                                   & (want[:, 0] <= t))
    assert first > 0 and second > 0


def test_batch_sampled_cell_matches_scalar_terminal_states():
    # more trajectories than one chunk, so the cell is sampled in two passes
    proc, factory, n = CtmcProcess(), StreamFactory(2 ** 64 - 1), CHUNK + 5
    got = sample_terminals(proc, CtmcState.low(3), 3.0, n, 2 ** 64 - 1, cell=2)
    want = [sample_path(CtmcState.low(3), 3.0, factory.stream(2, k)).value for k in range(n)]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_batch_invalid_time_names_trajectory_and_cell(t):
    with pytest.raises(RuntimeError, match=r"trajectory 0 of cell 4: time must be a finite"):
        sample_terminals(CtmcProcess(), CtmcState.low(2), t, 10, 0, cell=4)


def test_batch_sampled_cell_memory_stays_near_its_output():
    import tracemalloc

    n = 200_000
    tracemalloc.start()
    try:
        out = sample_terminals(CtmcProcess(), CtmcState.low(4), 4.0, n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output array plus one chunk of scratch; a whole-cell tolist()
    # of the uniforms alone would take over 20 MB
    assert peak < out.nbytes + 2_000_000


def test_exact_laws_and_means_of_an_empty_grid_are_empty():
    chain = CtmcProcess()
    assert chain.exact_laws(CtmcState.low(3), []) == []
    assert chain.exact_means([CtmcState.low(3), CtmcState.zero()], [], [F]) == [[], []]


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 49, 50, 93, 1000])
def test_the_chain_as_a_jump_system_matches_the_closed_form(n):
    # the sweep behind the exact rows against the chain's reference: xmin1
    # and a ball at each state, from each start, within the sweep's bound;
    # the zero mass from 1/n against the decimal oracle, as the closed form
    # cancels there
    starts = [CtmcState.low(n), CtmcState.high(n), CtmcState.zero()]
    times = [1e-9, 0.5, 4.0, float(n), 100.0]
    balls = [Ball(y.value, 0.5 / n) for y in starts]
    means = CtmcProcess().exact_means(starts, times, [F] + balls)
    for x, at_x in zip(starts, means):
        for t, ((mean, bound), *hits) in zip(times, at_x):
            assert 0.0 < bound < 1e-12
            assert abs(mean - semigroup_apply(F, x, t)) <= bound
            for y, (hit, hit_bound) in zip(starts, hits):
                assert hit_bound == bound
                assert abs(hit - transition_prob(x, y, t)) <= bound
                if x.kind == "low" and y.kind == "zero":
                    assert abs(Decimal(hit) - ctmc_zero_mass(n, t)) <= Decimal(bound)


@pytest.mark.parametrize("n", [49, 93])
def test_the_chain_laws_land_on_the_states_themselves(n):
    # 1.0 / (1.0 / n) is 49.00000000000001 at 49 and 92.99999999999999 at 93
    assert 1.0 / (1.0 / n) != n
    [(law, bound)] = CtmcProcess().exact_laws(CtmcState.low(n), [float(n)])
    assert law.support.tolist() == [0.0, 1.0 / n, float(n)]
    assert 0.0 < bound


def test_the_chain_jump_system_is_built_once_and_pickles():
    model = _jump_system()
    assert _jump_system() is model
    assert pickle.loads(pickle.dumps(model)) == model


# ---------------------------------------------------------------------------
# state plumbing


def test_state_embeddings():
    assert CtmcState.zero().value == 0.0
    assert CtmcState.low(4).value == 0.25
    assert CtmcState.high(4).value == 4.0


def test_state_validation():
    with pytest.raises(ValueError):
        CtmcState.low(1)
    with pytest.raises(ValueError):
        CtmcState.high(0)
    with pytest.raises(ValueError):
        CtmcState("weird")


def test_absorbing_state_and_residual_reject_a_level_index():
    with pytest.raises(ValueError, match="^the absorbing state carries no level index$"):
        CtmcState("zero", 2)
    with pytest.raises(ValueError, match="^level index n must be >= 2$"):
        chapman_kolmogorov_residual(1, 1.0, 1.0)


def test_state_parsing_round_trip():
    for token, want in [("zero", CtmcState.zero()), ("low:7", CtmcState.low(7)),
                        ("high:3", CtmcState.high(3))]:
        assert parse_ctmc_state(token) == want
        assert parse_ctmc_state(str(want)) == want
    with pytest.raises(ValueError):
        parse_ctmc_state("mid:4")


def test_exact_laws_bound_covers_the_rounding_of_the_zero_mass():
    # the closed form 1 - e^{-s} - s e^{-s}, s = t/n, gives 4.16e-17 here
    [(law, bound)] = CtmcProcess().exact_laws(CtmcState.low(2), [1e-9])
    mass = float(law.weights[law.support == 0.0].sum())
    truth = ctmc_zero_mass(2, 1e-9)
    assert Decimal("1.2499e-19") < truth < Decimal("1.2501e-19")
    assert abs(Decimal(mass) - truth) <= Decimal(bound)
