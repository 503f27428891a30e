import collections
import itertools
import math
import pickle
import re
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from ergokit import ifs_jump
from ergokit.core import Ball, xmin1
from ergokit.ifs_jump import (
    MEMO_NODES,
    AssumptionSet,
    ExponentialFlow,
    IdentityFlow,
    IfsModel,
    example_flip,
    example_halving,
    halving_tv_modulus,
    j_n,
    linear_modulus,
    sample_jump_chains,
)
from ergokit.montecarlo import StreamFactory, sample_cells, sample_terminals

from oracles import affine_moments, flip_jump_matrix, poisson_mixture_law, uniformized_mean


# ---------------------------------------------------------------------------
# built-in probability fields


def test_flip_probs_low_branch():
    assert example_flip(1.0).prob_field(0.5) == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_flip_probs_middle_branch():
    third = 1.0 / 3.0
    assert example_flip(1.0).prob_field(1.0) == pytest.approx([third] * 3, abs=1e-15)


def test_flip_probs_high_branch():
    assert example_flip(1.0).prob_field(2.0) == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


@pytest.mark.parametrize("seam", [2.0 / 3.0, 1.5])
def test_flip_probs_continuous_at_seams(seam):
    model = example_flip(1.0)
    left = np.asarray(model.prob_field(seam - 1e-9))
    right = np.asarray(model.prob_field(seam + 1e-9))
    assert np.max(np.abs(left - right)) <= 1e-8


def test_halving_probs():
    model, _ = example_halving(1.0)
    assert model.prob_field(1.0) == pytest.approx(
        [math.exp(-1.0), 1.0 - math.exp(-1.0)], abs=1e-15)
    assert model.prob_field(0.0) == pytest.approx([1.0, 0.0], abs=0.0)


def test_halving_assumption_constants():
    _, assume = example_halving(2.5)
    assert assume.anchor == 0.0
    assert assume.m_start == 0
    assert assume.eta == 0.125
    assert assume.alpha == 0.0
    assert not hasattr(assume, "rate")  # check_b5 reads the model's rate
    assert assume.gamma == pytest.approx(1.0 - math.exp(0.125) / 4.0, abs=1e-15)
    assert assume.gamma == pytest.approx(0.716713, abs=1e-6)
    assert assume.r(1.0) == pytest.approx(1.0 - math.exp(-1.0) / 2.0, abs=1e-15)


def test_moduli():
    assert linear_modulus(0.0) == 0.0
    assert halving_tv_modulus(0.0) == 0.0
    assert halving_tv_modulus(0.3) == pytest.approx(2.0 * (1.0 - math.exp(-0.3)), abs=1e-15)


# ---------------------------------------------------------------------------
# trajectory sampling


_Chain = collections.namedtuple("_Chain", "tau xi index phi")


def _chain(model, x, horizon, stream):
    """One trajectory's records from ``sample_jump_chains``, each as an array."""
    tau, xi, index, phi = next(sample_jump_chains(model, x, horizon, (stream,)))
    return _Chain(tau, np.array(xi, dtype=float), np.array(index, dtype=int),
                  np.array(phi, dtype=float))


def _terminal(model, x0, t, stream):
    """One trajectory's state at time t from ``terminal_states_from``."""
    return next(model.terminal_states_from(x0, t, (stream,)))


def test_zero_horizon_has_no_jumps():
    traj = _chain(example_flip(1.0), 0.7, 0.0, StreamFactory(0).stream(0, 0))
    assert len(traj.tau) == 0
    assert _terminal(example_flip(1.0), 0.7, 0.0, StreamFactory(0).stream(0, 0)) == 0.7


def test_flip_from_zero_stays_at_zero():
    model = example_flip(1.0)
    traj = _chain(model, 0.0, 20.0, StreamFactory(1).stream(0, 0))
    assert len(traj.tau) > 0
    assert np.all(traj.phi == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_trajectory_invariants(seed):
    model = example_flip(1.3)
    traj = _chain(model, 0.8, 15.0, StreamFactory(seed).stream(0, 0))
    assert np.all(np.diff(np.concatenate([[0.0], traj.tau])) > 0.0)
    assert traj.tau.size == 0 or traj.tau[-1] <= 15.0
    prev = 0.8
    for tau, xi, idx, phi in zip(traj.tau, traj.xi, traj.index, traj.phi):
        assert xi == prev  # identity flow
        assert phi == model.maps[idx - 1](xi)
        prev = phi


@pytest.mark.parametrize("x", [0.5, 0.9, 3.0])
def test_flip_orbit_stays_on_three_points(x):
    # up to 1-ulp noise from the float round trip x -> 1/x -> 1/(1/x)
    model = example_flip(1.0)
    orbit = np.array([0.0, x, 1.0 / x])
    for seed in range(30):
        traj = _chain(model, x, 30.0, StreamFactory(seed).stream(1, seed))
        for phi in traj.phi:
            assert np.min(np.abs(orbit - phi)) <= 4e-16 * max(phi, 1.0)


def test_jump_counts_are_poisson():
    lam, horizon, n = 1.3, 7.0, 10_000
    factory = StreamFactory(99)
    model = example_flip(lam)
    total = 0
    for k in range(n):
        total += len(_chain(model, 1.0, horizon, factory.stream(0, k)).tau)
    mean = total / n
    sigma = math.sqrt(lam * horizon / n)
    assert abs(mean - lam * horizon) <= 3.0 * sigma


def test_halving_long_run_absorption():
    # terminal states over 10^3 trajectories at horizon 10^4: nearly all tiny
    model, _ = example_halving(1.0)
    factory = StreamFactory(123)
    small = 0
    for k in range(1000):
        small += _terminal(model, 1.0, 1e4, factory.stream(0, k)) < 1e-3
    assert small / 1000 >= 0.99


def test_terminal_state_matches_recorded_trajectory():
    model, _ = example_halving(0.7)
    for seed in range(20):
        a = _terminal(model, 1.0, 12.0, StreamFactory(seed).stream(2, 0))
        traj = _chain(model, 1.0, 12.0, StreamFactory(seed).stream(2, 0))
        # identity flow: the state at the horizon is the last post-jump point
        assert a == (traj.phi[-1] if len(traj.tau) else 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_terminal_state_rejects_non_finite_or_negative_time(t):
    # halving absorbs at 0, so a horizon the loop never reaches used to
    # return 0 instead of failing
    model, _ = example_halving(1.0)
    with pytest.raises(ValueError, match="finite nonnegative"):
        _terminal(model, 1.0, t, StreamFactory(0).stream(0, 0))


def test_map_failure_names_the_map():
    def bad(x):
        return x - 1.0

    model = IfsModel(name="bad", maps=(bad,), prob_field=lambda x: np.array([1.0]), rate=1.0)
    with pytest.raises(RuntimeError, match="w1"):
        _terminal(model, 0.5, 10.0, StreamFactory(0).stream(0, 0))


def test_overflowing_pre_jump_point_names_the_flow():
    model = IfsModel(name="blowup", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1.0, flow=ExponentialFlow(100.0))
    # the first waiting time, -log(1 - 0.5), lands well before t = 50
    with pytest.raises(RuntimeError, match=r"flow ExponentialFlow.*'blowup'.*from x=1e\+300"):
        _terminal(model, 1e300, 50.0, _StubStream([0.5, 0.5]))
    with pytest.raises(RuntimeError, match=r"flow ExponentialFlow.*'blowup'"):
        _chain(model, 1e300, 50.0, _StubStream([0.5, 0.5]))


def test_flow_semigroup_property():
    flow = ExponentialFlow(0.37)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s, t = rng.uniform(0, 3, size=2)
        x = rng.uniform(0, 5)
        assert flow(0.0, x) == x
        assert flow(s + t, x) == pytest.approx(flow(s, flow(t, x)), rel=1e-12)
    ident = IdentityFlow()
    assert ident(2.0, 0.9) == 0.9


# ---------------------------------------------------------------------------
# contraction products over composition orbits


def _brute_force_j(maps, r, x, n):
    best = 0.0
    for word in itertools.product(range(len(maps)), repeat=n):
        prod = r(x)
        for j in range(1, n):
            pt = x
            for idx in reversed(word[:j]):
                pt = maps[idx](pt)
            prod *= r(pt)
        best = max(best, prod)
    return best


def test_j_zero_is_one():
    model, assume = example_halving(1.0)
    assert j_n(model, assume, 3.3, 0) == 1.0


@pytest.mark.parametrize("x", [0.125, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_j_halving_closed_form(x, n):
    model, assume = example_halving(1.0)
    assert j_n(model, assume, x, n) == pytest.approx(
        (1.0 - math.exp(-x) / 2.0) ** n, abs=1e-12)


def test_j_single_step():
    model, assume = example_halving(1.0)
    assert j_n(model, assume, 0.125, 1) == pytest.approx(
        1.0 - math.exp(-0.125) / 2.0, abs=1e-15)


def test_j_matches_brute_force_on_noncommuting_maps():
    # maps that do not commute, with a decreasing coefficient, so that the
    # composition order genuinely matters
    def w1(x):
        return x + 1.0

    def w2(x):
        return x / 3.0

    def r(x):
        return 1.0 / (1.0 + x)

    model = IfsModel(name="affine", maps=(w1, w2),
                     prob_field=lambda x: np.array([0.5, 0.5]), rate=1.0)
    assume = AssumptionSet(anchor=0.0, r=r, omega=linear_modulus, m_start=0,
                           eta=1.0, gamma=0.5, alpha=0.0)
    for n in range(1, 7):
        for x in (0.0, 0.4, 2.0):
            assert j_n(model, assume, x, n) == pytest.approx(
                _brute_force_j(model.maps, r, x, n), abs=1e-13)


def test_j_enumeration_budget_guard():
    model = IfsModel(name="wide", maps=(lambda x: x,) * 3,
                     prob_field=lambda x: np.array([1 / 3] * 3), rate=1.0)
    assume = AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus,
                           m_start=0, eta=1.0, gamma=0.5, alpha=0.0)
    with pytest.raises(ValueError, match="budget"):
        j_n(model, assume, 1.0, 20)
    assert j_n(model, assume, 1.0, 20, max_words=3 ** 20 + 1) == 1.0


def test_j_rejects_coefficient_above_one():
    model = IfsModel(name="loose", maps=(lambda x: x,),
                     prob_field=lambda x: np.array([1.0]), rate=1.0)
    assume = AssumptionSet(anchor=0.0, r=lambda x: 1.5, omega=linear_modulus,
                           m_start=0, eta=1.0, gamma=0.5, alpha=0.0)
    with pytest.raises(ValueError, match="outside"):
        j_n(model, assume, 1.0, 2)


# ---------------------------------------------------------------------------
# model validation


def test_model_requires_positive_rate():
    with pytest.raises(ValueError):
        IfsModel(name="x", maps=(lambda x: x,), prob_field=lambda x: np.array([1.0]), rate=0.0)


def test_model_needs_a_map():
    with pytest.raises(ValueError, match="^a jump system needs at least one map$"):
        IfsModel(name="x", maps=(), prob_field=lambda x: (), rate=1.0)


@pytest.mark.parametrize("horizon", [-1.0, math.inf])
def test_sample_jump_chain_rejects_a_bad_horizon(horizon):
    model, _ = example_halving(1.0)
    with pytest.raises(ValueError, match=f"^horizon must be a finite nonnegative real, "
                                         f"got {horizon!r}$"):
        _chain(model, 1.0, horizon, StreamFactory(0).stream(0, 0))


@pytest.mark.parametrize("field, value, message", [
    ("m_start", -1, "m_start must be a nonnegative integer"),
    ("eta", 0.0, "eta must be positive"),
    ("alpha", -0.5, "alpha must be nonnegative"),
])
def test_assumption_set_rejects_bad_series_data(field, value, message):
    kwargs = dict(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus, m_start=0, eta=1.0,
                  gamma=0.5, alpha=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        AssumptionSet(**kwargs)


def test_j_n_rejects_a_negative_length_and_an_orbit_off_the_half_line():
    model = IfsModel(name="down", maps=(lambda x: x - 2.0,), prob_field=lambda x: (1.0,),
                     rate=1.0)
    _, assume = example_halving(1.0)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        j_n(model, assume, 1.0, -1)
    with pytest.raises(RuntimeError, match=r"^map w1 of model 'down' produced invalid state "
                                           r"-1\.0 from x=1\.0$"):
        j_n(model, assume, 1.0, 2)
    # the message names the map that left the half-line, not the newest
    # letter of the word: w2 takes 2 to 0.5, then w1 takes 0.5 to -1
    model = IfsModel(name="m", maps=(lambda x: x - 1.5, lambda x: x / 4.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0)
    with pytest.raises(RuntimeError, match=r"^map w1 of model 'm' produced invalid state "
                                           r"-1\.0 from x=0\.5$"):
        j_n(model, assume, 2.0, 3)


def test_assumption_set_validation():
    with pytest.raises(ValueError):
        AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=lambda s: s + 1.0,
                      m_start=0, eta=1.0, gamma=0.5, alpha=0.0)
    with pytest.raises(ValueError):
        AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus,
                      m_start=0, eta=1.0, gamma=1.5, alpha=0.0)


# ---------------------------------------------------------------------------
# equivalence with the per-draw reference loop
#
# The library loop reads each trajectory's stream in blocks. The functions
# below are the earlier loop that called ``stream.random()`` once per
# uniform; they are the reference the block loop must match bit for bit.


def _ref_draw_index(model, x, rnd):
    w = model.prob_field(x)
    if isinstance(w, np.ndarray):
        w = w.tolist()
    if len(w) != len(model.maps):
        raise ValueError("weight count")
    u = rnd()
    acc = 0.0
    chosen = 0
    k = 0
    for p in w:
        k += 1
        if p < 0.0:
            raise ValueError("negative weight")
        acc += p
        if chosen == 0 and u < acc:
            chosen = k
    if not (1.0 - 1e-9 <= acc <= 1.0 + 1e-9):
        raise ValueError("weight sum")
    if chosen:
        return chosen
    for k in range(len(model.maps), 0, -1):
        if w[k - 1] > 0.0:
            return k
    raise RuntimeError("degenerate")


def _ref_terminal_state(model, x0, t, stream):
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    x = float(x0)
    if t == 0.0:
        return x
    rnd = stream.random
    now = 0.0
    while True:
        if x in model.absorbing:
            return x
        gap = -math.log1p(-rnd()) / model.rate
        if gap <= 0.0:
            continue
        if now + gap > t:
            return model.flow(t - now, x)
        now += gap
        pre = model.flow(gap, x)
        x = model.apply_map(_ref_draw_index(model, pre, rnd), pre)


def _ref_jump_chain(model, x, horizon, stream):
    taus, xis, idxs, phis = [], [], [], []
    rnd = stream.random
    now = 0.0
    cur = float(x)
    while True:
        gap = -math.log1p(-rnd()) / model.rate
        if gap <= 0.0:
            continue
        if now + gap > horizon:
            break
        now += gap
        pre = model.flow(gap, cur)
        k = _ref_draw_index(model, pre, rnd)
        cur = model.apply_map(k, pre)
        taus.append(now)
        xis.append(pre)
        idxs.append(k)
        phis.append(cur)
    return (np.array(taus, dtype=float), np.array(xis, dtype=float),
            np.array(idxs, dtype=int), np.array(phis, dtype=float))


def _expflow_model():
    return IfsModel(name="expflow", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                    prob_field=lambda x: (0.5, 0.5), rate=1.5, flow=ExponentialFlow(0.1))


_REF_MODELS = {
    "flip": lambda: example_flip(1.3),
    "halving": lambda: example_halving(1.0)[0],
    "expflow": _expflow_model,
}


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(_REF_MODELS))
@pytest.mark.parametrize("x0", [0.0, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 7.0, 150.0])
def test_terminal_state_matches_reference_bit_for_bit(name, x0, t):
    # t = 150 takes ~300 uniforms at rate 1: several block refills
    model = _REF_MODELS[name]()
    got, want = [], []
    for seed in (0, 1, 77):
        factory = StreamFactory(seed)
        for k in range(20):
            got.append(_terminal(model, x0, t, factory.stream(3, k)))
            want.append(_ref_terminal_state(model, x0, t, factory.stream(3, k)))
    assert _same_bits(got, want)


@pytest.mark.parametrize("name", sorted(_REF_MODELS))
@pytest.mark.parametrize("x0", [0.0, 0.3, 4.0])
@pytest.mark.parametrize("horizon", [0.0, 0.5, 7.0, 150.0])
def test_jump_chain_matches_reference_bit_for_bit(name, x0, horizon):
    # x0 = 0 is absorbing for flip and halving: jumps keep being recorded
    model = _REF_MODELS[name]()
    for seed in (0, 1, 77):
        factory = StreamFactory(seed)
        for k in range(10):
            traj = _chain(model, x0, horizon, factory.stream(1, k))
            tau, xi, index, phi = _ref_jump_chain(model, x0, horizon, factory.stream(1, k))
            assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
            assert _same_bits(traj.phi, phi)
            assert traj.index.dtype == index.dtype and np.array_equal(traj.index, index)
            if x0 == 0.0 and name != "expflow" and horizon >= 7.0:
                assert len(traj.tau) > 0


class _Float32Flow:
    """A flow that the jump loop calls: x * exp(t / 50), as a float32."""

    def __call__(self, t, x):
        return np.float32(x * math.exp(t / 50.0))


def _recorder_model(name):
    # a fresh model, so each recorder starts with an empty memo
    from test_cli import _drift_model, _edge_model, _orbit_model

    if name == "float32-flow":
        return IfsModel(name=name, maps=(lambda x: x / 2.0, lambda x: x),
                        prob_field=lambda x: (0.5, 0.5), rate=1.0, flow=_Float32Flow())
    builders = {"halving": example_halving, "flip": lambda lam: (example_flip(lam), None),
                "orbit": _orbit_model, "drift": _drift_model, "edge": _edge_model}
    return builders[name](1.0)[0]


@pytest.mark.parametrize("name, x0", [("halving", 5.0), ("halving", 0.0), ("flip", 0.7),
                                      ("flip", -0.0), ("orbit", 0.3), ("drift", 2.0),
                                      ("edge", 2.0), ("edge", -0.0), ("float32-flow", 1.0)])
@pytest.mark.parametrize("horizon", [0.0, 0.2, 60.0])
def test_cell_records_equal_one_stream_chains_bit_for_bit(name, x0, horizon):
    # one jump loop over a cell's streams, with one memo and one set of kept
    # sums, records what a loop per stream records, and the reference too:
    # at horizon 0 no trajectory jumps, at 0.2 most do not
    cell, single = _recorder_model(name), _recorder_model(name)
    factory = StreamFactory(5)
    records = list(sample_jump_chains(cell, x0, horizon, factory.streams(2, 40)))
    assert len(records) == 40
    for k, (tau, xi, index, phi) in enumerate(records):
        traj = _chain(single, x0, horizon, factory.stream(2, k))
        ref = _ref_jump_chain(_recorder_model(name), x0, horizon, factory.stream(2, k))
        assert type(tau) is np.ndarray and tau.dtype == np.float64
        assert {type(v) for v in xi + phi} <= {float} and {type(j) for j in index} <= {int}
        # no spare room: the lists of a whole table stay as small as arrays
        exact = sys.getsizeof([None] * len(tau))
        assert [sys.getsizeof(lst) for lst in (xi, index, phi)] == [exact] * 3
        for got, one, want in zip((tau, xi, index, phi),
                                  (traj.tau, traj.xi, traj.index, traj.phi), ref):
            assert _same_bits(got, one) and _same_bits(got, want)
    jumps = [len(tau) for tau, _, _, _ in records]
    if horizon == 0.0:
        assert not any(jumps)
    else:
        assert 0 < sum(jumps) and (horizon > 1.0 or 0 in jumps)
    if name == "edge" and horizon > 1.0:
        assert {"-0.0", "5e-324", "1e+308"} <= {repr(x) for _, _, _, phi in records for x in phi}


def test_cell_recorder_checks_its_arguments_before_it_samples():
    # the horizon, then the start
    model = example_halving(1.0)[0]
    with pytest.raises(ValueError, match="horizon must be"):
        sample_jump_chains(model, -1.0, -1.0, iter(()))
    with pytest.raises(ValueError, match="state point must be"):
        sample_jump_chains(model, -1.0, 1.0, iter(()))


class _StubStream:
    """Stream stand-in that replays fixed uniforms, in blocks or one by one."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def random(self, size=None):
        if size is None:
            self.pos += 1
            return self.values[self.pos - 1]
        out = self.values[self.pos:self.pos + size]
        self.pos += size
        return np.array(out + [0.5] * (size - len(out)))


def test_zero_uniform_is_skipped_like_the_reference():
    # a 0.0 waiting-time uniform gives gap 0 and is skipped; the next
    # uniform is the waiting time, and the one after it picks the map
    model, _ = example_halving(1.0)
    values = [0.0, 0.5, 0.2, 0.0, 0.0, 0.3, 0.9, 0.999]
    got = _terminal(model, 1.0, 3.0, _StubStream(values))
    assert got == _ref_terminal_state(model, 1.0, 3.0, _StubStream(values))
    traj = _chain(model, 1.0, 3.0, _StubStream(values))
    tau, xi, index, phi = _ref_jump_chain(model, 1.0, 3.0, _StubStream(values))
    assert _same_bits(traj.tau, tau) and _same_bits(traj.phi, phi)
    assert traj.index.tolist() == index.tolist() == [1, 2]
    assert traj.tau[0] == -math.log1p(-0.5)


_REFILL_MODELS = {
    "halving-memo": lambda: example_halving(1.0)[0],
    "expflow-held": lambda: _cell_model(lambda x: _LOW, ExponentialFlow(0.1)),
    "expflow-inline": lambda: _cell_model(lambda x: tuple(list(_LOW)), ExponentialFlow(0.1)),
}


@pytest.mark.parametrize("name", sorted(_REFILL_MODELS))
def test_map_choice_after_a_skipped_zero_opens_a_new_block(name):
    # the skipped 0.0 shifts every later jump by one uniform, so the 32nd
    # jump's gap is the last uniform of the first block of 64 and its map
    # choice the first of the second; 0.999 then ends the trajectory
    def values(shift):
        choices = [(0.37 * k + shift) % 1.0 for k in range(40)]
        return [0.0] + [u for c in choices for u in (0.01, c)] + [0.999]

    model = _REFILL_MODELS[name]()
    for shift in (0.0, 0.5):
        got = _terminal(model, 1.0, 3.0, _StubStream(values(shift)))
        assert _same_bits([got], [_ref_terminal_state(model, 1.0, 3.0,
                                                      _StubStream(values(shift)))])
        traj = _chain(model, 1.0, 3.0, _StubStream(values(shift)))
        tau, xi, index, phi = _ref_jump_chain(model, 1.0, 3.0, _StubStream(values(shift)))
        assert len(traj.tau) == 40
        assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
        assert _same_bits(traj.phi, phi) and np.array_equal(traj.index, index)
    streams = [_StubStream(values(0.0)), _StubStream(values(0.5))]
    want = [_ref_terminal_state(model, 1.0, 3.0, _StubStream(values(shift)))
            for shift in (0.0, 0.5)]
    assert _same_bits(list(model.terminal_states_from(1.0, 3.0, streams)), want)


def test_float_slack_falls_back_to_last_positive_weight():
    # weights sum to 1 - 1e-12, within tolerance; a uniform above that sum
    # picks the last map with positive weight, here w2
    model = IfsModel(name="slack", maps=(lambda x: 1.0, lambda x: 2.0, lambda x: 3.0),
                     prob_field=lambda x: (0.5, 0.5 - 1e-12, 0.0), rate=1.0)
    values = [0.5, 1.0 - 1e-13, 0.999]
    assert _terminal(model, 0.7, 1.0, _StubStream(values)) == 2.0
    assert _ref_terminal_state(model, 0.7, 1.0, _StubStream(values)) == 2.0


@pytest.mark.parametrize("field, match", [
    (lambda x: (1.0,), "returned 1 weights for 2 maps"),
    (lambda x: np.array([1.5, -0.5]), "negative selection probability -0.5"),
    (lambda x: (0.5, 0.4), "selection probabilities sum to 0.9"),
])
def test_jump_loop_rejects_bad_selection_probabilities(field, match):
    # the identity flow checks the weights as it builds the point's memo
    # node, a moving flow inline
    for flow in (IdentityFlow(), ExponentialFlow(0.1)):
        model = IfsModel(name="bad", maps=(lambda x: x, lambda x: x), prob_field=field,
                         rate=1.0, flow=flow)
        with pytest.raises(ValueError, match=match):
            _terminal(model, 0.5, 50.0, StreamFactory(0).stream(0, 0))
        with pytest.raises(ValueError, match=match):
            _chain(model, 0.5, 50.0, StreamFactory(0).stream(0, 0))


# ---------------------------------------------------------------------------
# the per-point memo of identity-flow models


def _readme_model():
    # the custom model of the README: maps third and stay, weights (3/4, 1/4)
    return IfsModel(name="mine", maps=(lambda x: x / 3, lambda x: x),
                    prob_field=lambda x: (0.75, 0.25), rate=1.0, absorbing=(0.0,))


_MEMO_MODELS = {
    "flip": lambda: example_flip(1.3),
    "halving": lambda: example_halving(1.0)[0],
    "readme": _readme_model,
}


@pytest.mark.parametrize("name", sorted(_MEMO_MODELS))
def test_warm_model_matches_reference_bit_for_bit(name):
    # one model object for all 200 trajectories: from the first visit to a
    # point on, its jumps run on the point's memo node
    model = _MEMO_MODELS[name]()
    factory = StreamFactory(11)
    got, want = [], []
    for k in range(200):
        x0 = (0.3, 1.0, 4.0, 9.0)[k % 4]
        got.append(_terminal(model, x0, 40.0, factory.stream(0, k)))
        want.append(_ref_terminal_state(model, x0, 40.0, factory.stream(0, k)))
        traj = _chain(model, x0, 40.0, factory.stream(1, k))
        tau, xi, index, phi = _ref_jump_chain(model, x0, 40.0, factory.stream(1, k))
        assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
        assert _same_bits(traj.phi, phi) and np.array_equal(traj.index, index)
    assert _same_bits(got, want)
    assert 0 < len(model._memo) < MEMO_NODES


def test_negative_zero_keeps_its_sign_on_a_warm_model():
    # 0.0 == -0.0 as dict keys: a memo entry for +0.0 would hand -0.0 the
    # successors of +0.0 and turn phi into [0, 0, ...]
    model, _ = example_halving(1.0)
    factory = StreamFactory(5)
    plus = _chain(model, 0.0, 7.0, factory.stream(0, 0))
    minus = _chain(model, -0.0, 7.0, factory.stream(0, 1))
    tau, xi, index, phi = _ref_jump_chain(model, -0.0, 7.0, factory.stream(0, 1))
    assert len(plus.tau) > 0 and len(minus.tau) > 0
    assert not np.signbit(plus.phi).any() and np.signbit(minus.phi).all()
    assert _same_bits(minus.xi, xi) and _same_bits(minus.phi, phi)
    assert _terminal(model, -0.0, 7.0, factory.stream(0, 2)) == 0.0
    assert math.copysign(1.0, _terminal(model, -0.0, 7.0, factory.stream(0, 2))) == -1.0


@pytest.mark.parametrize("memo_nodes", [MEMO_NODES, 0], ids=["memo", "inline"])
def test_float_slack_fallback_holds_on_every_visit(monkeypatch, memo_nodes):
    # weights sum to 1 - 1e-12 with two zero weights last: a uniform above
    # the sum picks w2, the last map with positive weight, on the first
    # visit to 0.7 (which makes the memo node) and on every later one, or
    # inline on every visit when the memo has no room
    monkeypatch.setattr(ifs_jump, "MEMO_NODES", memo_nodes)
    model = IfsModel(name="slack",
                     maps=(lambda x: 1.0, lambda x: 2.0, lambda x: 3.0, lambda x: 4.0),
                     prob_field=lambda x: (0.5, 0.5 - 1e-12, 0.0, 0.0), rate=1.0)
    for u, want in [(1.0 - 1e-13, 2.0), (1.0 - 1e-13, 2.0), (0.25, 1.0), (0.75, 2.0),
                    (1.0 - 1e-13, 2.0)]:
        values = [0.5, u, 0.999]
        assert _terminal(model, 0.7, 1.0, _StubStream(values)) == want
        assert _ref_terminal_state(model, 0.7, 1.0, _StubStream(values)) == want
    assert len(model._memo) == (1 if memo_nodes else 0)


@pytest.mark.parametrize("memo_nodes", [MEMO_NODES, 0], ids=["memo", "inline"])
@pytest.mark.parametrize("bad, match", [
    ((1.0,), "prob_field returned 1 weights for 2 maps at x=0.25"),
    (np.array([1.5, -0.5]), "negative selection probability -0.5 at x=0.25 in model 'bad'"),
    ((0.5, 0.4), "selection probabilities sum to 0.9 at x=0.25 in model 'bad'"),
])
def test_bad_selection_probabilities_fail_on_every_visit(monkeypatch, memo_nodes, bad, match):
    # halving from 1 meets the bad field at 0.25 on its third jump; later
    # runs reach it through memo hits at 1 and 0.5, and still fail there
    monkeypatch.setattr(ifs_jump, "MEMO_NODES", memo_nodes)
    model = IfsModel(name="bad", maps=(lambda x: x / 2.0, lambda x: x),
                     prob_field=lambda x: bad if x == 0.25 else (1.0, 0.0), rate=1.0)
    for k in range(3):
        with pytest.raises(ValueError, match=match):
            _terminal(model, 1.0, 50.0, StreamFactory(0).stream(0, k))
        with pytest.raises(ValueError, match=match):
            _chain(model, 1.0, 50.0, StreamFactory(0).stream(1, k))
    assert sorted(model._memo) == ([0.5, 1.0] if memo_nodes else [])


@pytest.mark.parametrize("kind", ["ndarray", "float32", "reused-list"])
def test_field_return_types_select_as_the_reference(kind):
    # a tuple of float32 weights sums in float32, and u is compared with a
    # float32 sum in float32: u = 0.1000000001 is not below float32(0.1)
    # = 0.10000000149..., so w2 is chosen, as the inline loop chooses it;
    # a memo holding the sums as Python floats would choose w1. A field
    # that refills one list on every call must not change what the memo
    # recorded for an earlier point.
    low, high = (0.1, 0.2, 0.7), (0.7, 0.2, 0.1)
    shared = [0.0, 0.0, 0.0]

    def field(x):
        weights = low if x < 1.0 else high
        if kind == "ndarray":
            return np.array(weights)
        if kind == "float32":
            return tuple(np.float32(w) for w in weights)
        shared[:] = weights
        return shared

    model = IfsModel(name=kind, maps=(lambda x: x / 2.0, lambda x: x, lambda x: 2.0 * x),
                     prob_field=field, rate=1.0)
    factory = StreamFactory(4)
    for k in range(200):
        traj = _chain(model, 0.5, 30.0, factory.stream(0, k))
        tau, xi, index, phi = _ref_jump_chain(model, 0.5, 30.0, factory.stream(0, k))
        assert _same_bits(traj.xi, xi) and _same_bits(traj.phi, phi)
        assert np.array_equal(traj.index, index)
    for _ in range(2):
        values = [0.5, 0.1000000001, 0.5]
        traj = _chain(model, 0.5, 1.0, _StubStream(values))
        ref = _ref_jump_chain(model, 0.5, 1.0, _StubStream(values))
        assert traj.index.tolist() == ref[2].tolist() == [2]
    assert 0.5 in model._memo and 1.0 in model._memo


def test_memo_stops_growing_at_its_cap():
    # maps x/2 and (x+1)/2: past the first few jumps almost every point is
    # new, so the first ~10 000 jumps fill the memo (mostly with points
    # visited once) and 30 000 more add no entries
    model = IfsModel(name="orbit", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0)
    tracemalloc.start()
    try:
        sample_terminals(model, 0.3, 100.0, 100, 7)
        full, _ = tracemalloc.get_traced_memory()
        for seed in (8, 9, 10):
            sample_terminals(model, 0.3, 100.0, 100, seed)
        later, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model._memo) == MEMO_NODES
    assert full < 4 * 2 ** 20
    assert later - full < full / 10


def test_memo_takes_no_part_in_pickling_equality_or_repr():
    warm, _ = example_halving(1.0)
    fresh, _ = example_halving(1.0)
    first = sample_terminals(warm, 5.0, 100.0, 20, 1)
    assert warm._memo and not fresh._memo
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    clone = pickle.loads(pickle.dumps(warm))
    assert clone == warm and not clone._memo
    assert _same_bits(sample_terminals(clone, 5.0, 100.0, 20, 1), first)


def _assert_nodes_match_their_weights(model):
    # a node is [0.0, running sums ...] with +inf from the last map of
    # positive weight on, and caches each map's output at its point
    assert model._memo
    for x, (cum, succ) in model._memo.items():
        w = model._weights(x)
        want = [0.0] + list(itertools.accumulate(w))
        last = max(k for k, p in enumerate(w, start=1) if p > 0.0)
        want[last:] = [math.inf] * (len(want) - last)
        assert _same_bits(cum, want) and [type(c) for c in cum] == [type(c) for c in want]
        assert succ[0] is None and len(succ) == len(cum)
        for k, y in enumerate(succ[1:], start=1):
            assert y is None or _same_bits([y], [model.apply_map(k, x)])


@pytest.mark.parametrize("name", ["flip", "halving"])
def test_memo_nodes_are_built_from_the_weights(name):
    model = _MEMO_MODELS[name]()
    for x0 in (0.3, 1.0, 4.0, 9.0):
        sample_terminals(model, x0, 40.0, 50, 3)
        _chain(model, x0, 40.0, StreamFactory(3).stream(1, 0))
    _assert_nodes_match_their_weights(model)
    for x0 in (0.2, 2.5, 9.0):
        model.exact_laws(x0, [10.0, 40.0])
    _assert_nodes_match_their_weights(model)


def test_prob_field_runs_at_most_once_per_point():
    # a point's first visit builds its node; the sweep then reads the nodes
    # the sampler built
    calls = {}

    def field(x):
        calls[x] = calls.get(x, 0) + 1
        return ifs_jump._halving_probs(x)

    model = IfsModel(name="counted", maps=(ifs_jump._halve, ifs_jump._stay),
                     prob_field=field, rate=1.0)
    factory = StreamFactory(6)
    for k in range(200):
        _terminal(model, (0.3, 1.0, 4.0, 9.0)[k % 4], 40.0, factory.stream(0, k))
    model.exact_laws(4.0, [40.0])
    assert len(model._memo) < MEMO_NODES
    assert max(n for x, n in calls.items() if x) == 1


# ---------------------------------------------------------------------------
# exact laws by uniformization


def _law_dict(law):
    return dict(zip(law.support.tolist(), law.weights.tolist()))


@pytest.mark.parametrize("x, t", [(0.2, 3.0), (0.5, 20.0), (4.0, 7.5)])
def test_flip_exact_laws_match_the_poisson_mixture_oracle(x, t):
    model = example_flip(1.3)
    (law, bound), = model.exact_laws(x, [t])
    want = poisson_mixture_law(flip_jump_matrix(x), 0, 1.3, t)
    got = _law_dict(law)
    assert set(got) <= {x, 1.0 / x, 0.0}
    for point, p in zip((x, 1.0 / x, 0.0), want):
        # the oracle cuts its series once 1 - 1e-12 of the mass is in
        assert abs(got.get(point, 0.0) - p) <= bound + 1e-12
    assert 0.0 < bound < 1e-13


def test_halving_exact_laws_match_the_generator_exponential():
    # the generator of the jump process on the orbit x 2^-k, k <= 80, with
    # the last point made absorbing: by t = 6 more than 80 jumps have
    # probability below 1e-40
    from scipy.linalg import expm

    x, t, depth = 3.0, 6.0, 80
    model, _ = example_halving(1.0)
    (law, bound), = model.exact_laws(x, [t])
    points = [x * 2.0 ** -k for k in range(depth + 1)]
    q = np.zeros((depth + 1, depth + 1))
    for k, y in enumerate(points[:-1]):
        q[k, k] = -math.exp(-y)
        q[k, k + 1] = math.exp(-y)
    want = expm(q * t)[0]
    got = _law_dict(law)
    assert set(got) <= set(points)
    for y, p in zip(points, want):
        assert abs(got.get(y, 0.0) - p) <= bound + 1e-13


def test_exact_laws_share_one_sweep_across_times():
    model, _ = example_halving(1.0)
    together = model.exact_laws(5.0, [200.0, 0.0, 40.0])
    for t, (law, bound) in zip([200.0, 0.0, 40.0], together):
        (alone, alone_bound), = model.exact_laws(5.0, [t])
        assert _same_bits(law.support, alone.support)
        assert np.allclose(law.weights, alone.weights, rtol=0.0, atol=bound + alone_bound)
    law, bound = together[1]
    assert _law_dict(law) == {5.0: 1.0}
    assert 0.0 < bound < 1e-15


def test_poisson_window_bounds_the_dropped_tail_at_large_rate():
    # at rate * t = 5e4 the tail taken as 1 minus a sum of weights cancels
    # to 0; the window's Chernoff bound stays positive and above the tail
    from scipy.stats import poisson

    lam = 5e4
    left, weights, dropped, spread = ifs_jump._poisson_window(lam)
    right = left + len(weights) - 1
    tail = poisson.cdf(left - 1, lam) + poisson.sf(right, lam)
    assert 0.0 < tail <= dropped <= 2.0 * ifs_jump.TAIL_MASS
    assert spread == max(right - int(lam), int(lam) - left)
    pmf = poisson.pmf(np.arange(left, right + 1), lam)
    assert np.max(np.abs(np.array(weights) / pmf - 1.0)) < 1e-9


def test_exact_law_at_a_large_rate_keeps_a_positive_bound():
    model = example_flip(1.0)
    (law, bound), = model.exact_laws(0.5, [5e4])
    assert law.support.tolist() == [0.0]
    assert 2.0 * ifs_jump.TAIL_MASS < bound < 1e-10


def test_exact_laws_are_none_under_a_moving_flow_or_over_budget(monkeypatch):
    assert _expflow_model().exact_laws(0.5, [1.0]) is None
    model, _ = example_halving(1.0)
    assert model.exact_laws(2.0, [20.0]) is not None
    monkeypatch.setattr(ifs_jump, "BREAK_EVEN_SAMPLES", 0)
    monkeypatch.setattr(ifs_jump, "ORBIT_BUDGET", 1000)
    assert model.exact_laws(2.0, [20.0]) is None
    assert model.exact_laws(2.0, [0.0]) is not None


def test_orbit_build_stops_at_its_budget():
    # maps x/2 and (x+1)/2 never repeat a point: the build gives up at the
    # first point past those the budget pays for, not at the end of a BFS
    # level; each node it built found two new points
    model = IfsModel(name="orbit", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0)
    steps = 40
    limit = 100
    budget = ifs_jump.SWEEP_STEP_POINTS * steps + limit * (steps + ifs_jump.NODE_POINTS)
    assert model._orbit(0.3, steps, budget) is None
    assert len(model._memo) == limit // 2
    assert model._orbit(0.3, 5, budget) is not None
    assert model._orbit(0.3, steps, budget - 1 - limit * (steps + ifs_jump.NODE_POINTS)) is None


def test_exact_laws_budget_follows_the_sampling_cost():
    # the budget is what BREAK_EVEN_SAMPLES trajectories to the latest time
    # cost: a longer window pays for more orbit points
    model = IfsModel(name="orbit", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0)
    assert model.exact_laws(0.3, [20.0]) is None
    assert model.exact_laws(0.3, [0.0]) is not None
    halving, _ = example_halving(1.0)
    assert halving.exact_laws(10.0, [5e3]) is not None


def test_exact_laws_reject_bad_times():
    model, _ = example_halving(1.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be a finite nonnegative real"):
            model.exact_laws(1.0, [2.0, t])


def test_exact_law_masses_are_the_samplers():
    # running sums (1 + 5e-10, inf): the sampler always takes w1, whose
    # mass is clipped at 1, so every row sums to 1
    model = IfsModel(name="slack", maps=(lambda x: x / 2.0, lambda x: x),
                     prob_field=lambda x: (1.0 + 5e-10, 1e-10), rate=1.0)
    points, dst, mass = model._orbit(1.0, 3, ifs_jump.ORBIT_BUDGET)
    assert points == [1.0, 0.5, 0.25, 0.125]
    assert mass.sum(axis=0).tolist() == [1.0, 1.0, 1.0, 0.0]
    assert mass[1].tolist() == [0.0] * 4


def _float32_model():
    # the field of test_field_return_types_select_as_the_reference: its
    # running sums, and so the sampler's choices, are float32
    def field(x):
        return tuple(np.float32(w) for w in ((0.1, 0.2, 0.7) if x < 1.0 else (0.7, 0.2, 0.1)))

    return IfsModel(name="float32", maps=(lambda x: x / 2.0, lambda x: x, lambda x: 2.0 * x),
                    prob_field=field, rate=1.0)


@pytest.mark.parametrize("name", sorted(_MEMO_MODELS) + ["float32"])
def test_model_warmed_by_exact_laws_matches_reference_bit_for_bit(name):
    # the sweep builds a memo node on a point's first visit, as the sampler
    # does; the sampler then jumps from those nodes
    model = _MEMO_MODELS[name]() if name in _MEMO_MODELS else _float32_model()
    for x0 in (0.3, 1.0, 4.0, 9.0):
        model.exact_laws(x0, [40.0])
    assert model._memo
    factory = StreamFactory(11)
    got, want = [], []
    for k in range(100):
        x0 = (0.3, 1.0, 4.0, 9.0)[k % 4]
        got.append(_terminal(model, x0, 40.0, factory.stream(0, k)))
        want.append(_ref_terminal_state(model, x0, 40.0, factory.stream(0, k)))
    assert _same_bits(got, want)
    if name == "float32":  # the first jump from 0.5 at u = 0.1000000001 takes w2
        values = [0.5, 0.1000000001, 0.5]
        traj = _chain(model, 0.5, 1.0, _StubStream(values))
        assert 0.5 in model._memo and traj.index.tolist() == [2]


def test_float32_field_has_no_exact_laws():
    # the sampler compares u with the float32 running sum in float32, so at
    # u = 0.1 it takes w2, while a float64 sweep would give w1 the mass
    # 0.1000000015 > 0.1: the law it samples is left to sampling
    model = _float32_model()
    traj = _chain(model, 0.5, 1.0, _StubStream([0.5, 0.1, 0.5]))
    assert traj.index.tolist() == [2]
    assert model.exact_laws(0.5, [1e-3]) is None
    float64 = IfsModel(name="float64", maps=model.maps, rate=1.0,
                       prob_field=lambda x: (0.1, 0.2, 0.7) if x < 1.0 else (0.7, 0.2, 0.1))
    assert float64.exact_laws(0.5, [1e-3]) is not None


def test_exact_laws_and_means_of_an_empty_grid_are_empty():
    model, _ = example_halving(1.0)
    assert model.exact_laws(1.0, []) == []
    assert model.exact_means([1.0, 2.0], [], [xmin1()]) == [[], []]
    assert model.exact_means([], [1.0], [xmin1()]) == []


@pytest.mark.parametrize("name, starts, times", [
    ("halving", [0.1, 0.5, 2.0, 5.0, 10.0, 0.0], [0.0, 3.0, 40.0]),
    ("flip", [0.2, 0.7, 4.0, 0.0], [0.0, 5.0, 20.0]),
])
def test_exact_means_match_the_forward_laws(name, starts, times):
    # the backward sweep against sums over the forward laws, within the sum
    # of the two bounds
    model = _MEMO_MODELS[name]()
    functionals = [xmin1(), Ball(0.0, 0.1), Ball(2.0, 1.5)]
    means = model.exact_means(starts, times, functionals)
    for x, at_x in zip(starts, means):
        for (law, law_bound), cell in zip(model.exact_laws(x, times), at_x):
            for f, (mean, bound) in zip(functionals, cell):
                inside = [f.contains(y) if isinstance(f, Ball) else f(y)
                          for y in law.support.tolist()]
                forward = float(np.dot(law.weights, inside))
                assert 0.0 < bound < 1e-12
                assert abs(mean - forward) <= bound + law_bound * (1.0 + 1e-12)


def test_exact_means_of_a_start_do_not_depend_on_the_others():
    # every point's step runs the same products in the same order whatever
    # the graph holds, and a start reads only the points within its reach
    model, _ = example_halving(1.0)
    starts, times, f = [10.0, 5.0, 0.3, 2.0, 0.0], [2.0, 50.0, 200.0], [xmin1(), Ball(0.0, 0.1)]
    together = model.exact_means(starts, times, f)
    fresh, _ = example_halving(1.0)
    assert together == [fresh.exact_means([x], times, f)[0] for x in starts]


def test_an_absorbing_start_has_its_constant_mean_exactly():
    model = example_flip(1.0)
    ((_, (hit, bound)),) = model.exact_means([0.0], [3.0], [xmin1(), Ball(0.0, 0.1)])[0]
    assert hit == 1.0 and 0.0 < bound < 1e-13


@pytest.mark.parametrize("limit", [1, 20, 100, 400])
def test_exact_means_decide_each_start_as_exact_laws_does(monkeypatch, limit):
    # a budget of ``limit`` points per start: from 0 the orbit has 1 point,
    # from 1e-320 13, from 2 and from 3 70 each, and 153 together, so at
    # 100 the union is too large but each start fits; every start is exact
    # exactly when exact_laws answers it, and its means are those it gets
    # alone
    left, weights, _, _ = ifs_jump._poisson_window(20.0)
    steps = left + len(weights) - 1
    monkeypatch.setattr(ifs_jump, "BREAK_EVEN_SAMPLES", 0)
    budget = ifs_jump.SWEEP_STEP_POINTS * steps + limit * (steps + ifs_jump.NODE_POINTS)
    monkeypatch.setattr(ifs_jump, "ORBIT_BUDGET", budget)
    model, _ = example_halving(1.0)
    starts, f = [0.0, 2.0, 1e-320, 3.0], [xmin1()]
    means = model.exact_means(starts, [20.0, 5.0], f)
    assert [m is None for m in means] == [model.exact_laws(x, [20.0, 5.0]) is None
                                          for x in starts]
    assert means == [model.exact_means([x], [20.0, 5.0], f)[0] for x in starts]
    assert any(m is None for m in means) == (limit < 70)


def test_exact_means_reject_bad_times_and_sample_a_moving_flow():
    model, _ = example_halving(1.0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be a finite nonnegative real"):
            model.exact_means([1.0], [2.0, t], [xmin1()])
    assert _expflow_model().exact_means([0.5, 1.0], [1.0], [xmin1()]) == [None, None]


@pytest.mark.parametrize("seed", range(20))
def test_random_finite_orbit_means_lie_within_their_bounds(seed):
    # 0 and up to 7 dyadic points in [1/16, 4], 2 to 4 lookup-table maps,
    # and weights in 64ths: their running sums are exact, so the masses the
    # sweep reads are the weights the oracle reads
    rng = np.random.default_rng(seed)
    grid = np.arange(1, 65) / 16.0
    points = [0.0] + sorted(rng.choice(grid, int(rng.integers(1, 8)), replace=False).tolist())
    where = {x: i for i, x in enumerate(points)}
    n_maps = int(rng.integers(2, 5))
    table = rng.integers(0, len(points), (n_maps, len(points))).tolist()
    weights = [tuple((np.diff([0, *np.sort(rng.integers(0, 65, n_maps - 1)), 64]) / 64.0)
                     .tolist()) for _ in points]
    rate = float(rng.choice([0.3, 1.0, 2.5, 7.0]))
    model = IfsModel(name="random", rate=rate, prob_field=lambda x: weights[where[x]],
                     maps=tuple((lambda x, row=row: points[row[where[x]]]) for row in table))
    ball = Ball(float(rng.choice(points)), 0.3)
    values = [xmin1(), lambda y: float(ball.contains(y))]
    times = [0.01, 0.7, 3.0, 20.0]
    rows = model.exact_means(points, times, [values[0], ball])
    for x, by_time in zip(points, rows):
        for t, by_functional in zip(times, by_time):
            for f, (value, half_width) in zip(values, by_functional):
                truth = uniformized_mean(points, table, weights, rate, x, t, f)
                assert 0.0 < half_width and abs(Decimal(value) - truth) <= half_width, (x, t)


# ---------------------------------------------------------------------------
# moving flows: the jump loop's flow and map checks and messages


def _custom_flow(value):
    def flow(t, x):
        return value

    return flow


class _DriftFlow(ExponentialFlow):
    """An ExponentialFlow subclass whose own flow is a drift x + alpha t."""

    def __call__(self, t, x):
        return x + self.alpha * t


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_invalid_custom_flow_names_the_flow(bad):
    # the first waiting time, -log(1 - 0.5), lands well before t = 50
    flow = _custom_flow(bad)
    model = IfsModel(name="custom", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1.0, flow=flow)
    msg = re.escape(f"flow {flow.__qualname__} of model 'custom' produced invalid state "
                    f"{bad!r} from x=1.0 after time {-math.log1p(-0.5)!r}")
    with pytest.raises(RuntimeError, match=msg):
        _terminal(model, 1.0, 50.0, _StubStream([0.5, 0.5]))
    with pytest.raises(RuntimeError, match=msg):
        _chain(model, 1.0, 50.0, _StubStream([0.5, 0.5]))


@pytest.mark.parametrize("flow", [ExponentialFlow(0.1), _DriftFlow(0.1)], ids=["exp", "drift"])
@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_invalid_map_output_names_the_map_under_a_moving_flow(flow, bad):
    # u = 0.9 takes w2 at the first jump
    model = IfsModel(name="moving", maps=(lambda x: x / 2.0, lambda x: bad),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0, flow=flow)
    pre = flow(-math.log1p(-0.5), 1.0)
    msg = re.escape(f"map w2 of model 'moving' produced invalid state {bad!r} from x={pre!r}")
    with pytest.raises(RuntimeError, match=msg):
        _terminal(model, 1.0, 50.0, _StubStream([0.5, 0.9]))
    with pytest.raises(RuntimeError, match=msg):
        _chain(model, 1.0, 50.0, _StubStream([0.5, 0.9]))


def _typed_maps_model(flow):
    # maps returning an np.float64, an int and -0.0, which the sampler
    # turns into Python floats
    return IfsModel(name="typed", maps=(lambda x: np.float64(x / 2.0),
                                        lambda x: int(3.0 * x) % 7, lambda x: -0.0),
                    prob_field=lambda x: (0.4, 0.4, 0.2), rate=1.5, flow=flow)


@pytest.mark.parametrize("flow", [ExponentialFlow(0.1), _DriftFlow(0.3)], ids=["exp", "drift"])
@pytest.mark.parametrize("x0", [-0.0, 0.3, 4.0])
def test_map_return_types_under_a_moving_flow_match_the_reference(flow, x0):
    model = _typed_maps_model(flow)
    factory = StreamFactory(9)
    got, want, landed = [], [], []
    for k in range(40):
        got.append(_terminal(model, x0, 12.0, factory.stream(2, k)))
        want.append(_ref_terminal_state(model, x0, 12.0, factory.stream(2, k)))
        traj = _chain(model, x0, 12.0, factory.stream(2, k))
        tau, xi, index, phi = _ref_jump_chain(model, x0, 12.0, factory.stream(2, k))
        assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
        assert _same_bits(traj.phi, phi) and np.array_equal(traj.index, index)
        landed += traj.phi.tolist()
    assert _same_bits(got, want)
    assert [type(v) for v in got] == [type(v) for v in want] == [float] * len(got)
    assert any(math.copysign(1.0, v) < 0.0 for v in landed)  # w3 was taken


# the expflow shape: maps x/2 and (x + 1)/2, weights 1/2, rate 1, x e^(0.1 s)
_AFFINE = ((0.5, 0.0), (0.5, 0.5))


def test_affine_moments_match_the_closed_forms():
    # E_x X_t' = 0.1 m1 - (m1 - E w(X)) = 0.25 - 0.4 m1, and from 0
    # E_0 X_t^2 = 45/88 - (25/24) e^(-0.4 t) + (35/66) e^(-0.55 t)
    one, m1, m2 = affine_moments(_AFFINE, (0.5, 0.5), 1.0, 0.1, 0.0, 20.0)
    assert one == 1
    assert float(m1) == pytest.approx(0.625 * (1.0 - math.exp(-8.0)), rel=1e-14)
    assert float(m2) == pytest.approx(45 / 88 - 25 / 24 * math.exp(-8.0)
                                      + 35 / 66 * math.exp(-11.0), rel=1e-14)
    m1 = affine_moments(_AFFINE, (0.5, 0.5), 1.0, 0.1, 2.0, 10.0, degree=1)[1]
    assert float(m1) == pytest.approx(0.625 + 1.375 * math.exp(-4.0), rel=1e-14)


def test_moving_flow_sampler_matches_the_affine_moments():
    # an independent check of the moving-flow sampler's law: the first two
    # sample moments within 5 standard errors of the generator's
    model = IfsModel(name="expflow", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.0, flow=ExponentialFlow(0.1))
    n = 20000
    for cell, (x, t) in enumerate(itertools.product((0.0, 2.0), (10.0, 20.0))):
        want = affine_moments(_AFFINE, (0.5, 0.5), 1.0, 0.1, x, t)
        values = sample_terminals(model, x, t, n, 2027, cell=cell)
        for k in (1, 2):
            v = values ** k
            assert abs(v.mean() - float(want[k])) < 5.0 * v.std(ddof=1) / math.sqrt(n), (x, t, k)


def test_exponential_flow_subclass_keeps_its_own_flow():
    plain = _typed_maps_model(ExponentialFlow(0.3))
    drift = _typed_maps_model(_DriftFlow(0.3))
    factory = StreamFactory(5)
    got, want, expo = [], [], []
    for k in range(40):
        got.append(_terminal(drift, 4.0, 12.0, factory.stream(0, k)))
        want.append(_ref_terminal_state(drift, 4.0, 12.0, factory.stream(0, k)))
        expo.append(_terminal(plain, 4.0, 12.0, factory.stream(0, k)))
    assert _same_bits(got, want)
    assert got != expo
    # a single waiting time past t: the state drifts, it does not grow
    assert _terminal(drift, 1.0, 0.5, _StubStream([0.9])) == 1.0 + 0.3 * 0.5


# ---------------------------------------------------------------------------
# the cell loop: one jump loop over all the trajectories of a cell, and the
# running sums of a constant weight tuple kept across its jumps


_LOW, _HIGH, _FAIR = (0.1, 0.2, 0.7), (0.7, 0.2, 0.1), (0.5, 0.5)


class _Weights(tuple):
    pass


_CONSTANT_FIELDS = {
    "constant-tuple": lambda x: _LOW,
    "alternating-tuples": lambda x: _LOW if x < 1.0 else _HIGH,
    "fresh-tuple": lambda x: tuple(list(_LOW)),
    "list": lambda x: list(_LOW),
    "ndarray": lambda x: np.array(_LOW),
    # float32 items of _LOW sum to 1 - 7e-9 in float64, which fails the check
    "float32-ndarray": lambda x: np.array((0.25, 0.25, 0.5), dtype=np.float32),
    "float32-tuple": (lambda c: lambda x: c)(tuple(np.float32(p) for p in _LOW)),
    "int-tuple": lambda x: (0, 1, 0) if x < 1.0 else (1, 0, 0),
    "float64-tuple": (lambda c: lambda x: c)(tuple(np.array(_LOW))),
    "tuple-subclass": (lambda c: lambda x: c)(_Weights(_LOW)),
}


def _cell_model(field, flow):
    return IfsModel(name="cell", maps=(lambda x: x / 2.0, lambda x: x, lambda x: 2.0 * x),
                    prob_field=field, rate=1.5, flow=flow)


@pytest.mark.parametrize("flow", ["moving", "full-memo"])
@pytest.mark.parametrize("kind", sorted(_CONSTANT_FIELDS))
def test_cell_loop_matches_the_reference_for_each_field_return(monkeypatch, kind, flow):
    # the inline path runs under a moving flow and, under the identity
    # flow, once the memo is full; only an exact tuple of exact floats that
    # the field returns on consecutive jumps keeps its running sums: a
    # constant builds them once per cell, two alternating tuples whenever
    # the field switches to the other and keeps it
    if flow == "full-memo":
        monkeypatch.setattr(ifs_jump, "MEMO_NODES", 0)
    builds = []
    running_sums = IfsModel._running_sums
    monkeypatch.setattr(IfsModel, "_running_sums",
                        lambda self, w, x: builds.append(w) or running_sums(self, w, x))
    model = _cell_model(_CONSTANT_FIELDS[kind],
                        ExponentialFlow(0.1) if flow == "moving" else IdentityFlow())
    for cell, (x0, t) in enumerate([(0.3, 12.0), (4.0, 30.0)]):
        got = sample_terminals(model, x0, t, 60, 21, cell=cell)
        factory = StreamFactory(21)
        want = [_ref_terminal_state(model, x0, t, factory.stream(cell, k)) for k in range(60)]
        assert _same_bits(got, want)
    if kind == "constant-tuple":
        assert builds == [_LOW, _LOW]
    elif kind == "alternating-tuples":
        assert builds and all(w is _LOW or w is _HIGH for w in builds)
    else:
        assert builds == []


@pytest.mark.parametrize("bad, match", [
    ((1.0,), "prob_field returned 1 weights for 2 maps at x="),
    ((1.5, -0.5), "negative selection probability -0.5 at x="),
    ((0.5, 0.4), "selection probabilities sum to 0.9 at x="),
])
def test_invalid_constant_tuple_fails_on_its_first_use(bad, match):
    # (0.5, 0.5) below 4 is kept once it passed the checks; the invalid
    # constant above 4 never is, and fails at the first pre-jump point
    # that reaches it, which the valid field's trajectory shows
    def field(x):
        return bad if x >= 4.0 else _FAIR

    model = IfsModel(name="bad", maps=(lambda x: x / 2.0, lambda x: 2.0 * x),
                     prob_field=field, rate=1.0, flow=ExponentialFlow(0.1))
    fair = IfsModel(name="fair", maps=model.maps, prob_field=lambda x: _FAIR, rate=1.0,
                    flow=model.flow)
    for k in range(4):
        traj = _chain(fair, 1.0, 200.0, StreamFactory(2).stream(0, k))
        if (traj.xi >= 4.0).any():
            break
    first = float(traj.xi[traj.xi >= 4.0][0])
    assert (traj.xi < 4.0).sum() > 2  # the constant was held before it
    with pytest.raises(RuntimeError,
                       match=re.escape(f"trajectory {k} of cell 0: {match}{first!r}")):
        sample_terminals(model, 1.0, 200.0, 4, 2)


def test_map_failure_names_its_trajectory_and_cell():
    # a moving-flow map fails only at the first pre-jump point of
    # trajectory 3 of cell 2; the trajectories before it in the cell and
    # the other cells run through
    def chain(model, cell, k):
        return _chain(model, 1.0, 10.0, StreamFactory(8).stream(cell, k))

    fair = IfsModel(name="fair", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                    prob_field=lambda x: _FAIR, rate=1.0, flow=ExponentialFlow(0.1))
    first = chain(fair, 2, 3)
    fatal, chosen = float(first.xi[0]), first.index[0]

    def guarded(map_):
        return lambda x: math.nan if x == fatal else map_(x)

    model = IfsModel(name="fatal", maps=tuple(guarded(m) for m in fair.maps),
                     prob_field=fair.prob_field, rate=1.0, flow=fair.flow)
    msg = (f"trajectory 3 of cell 2: map w{chosen} of model 'fatal' produced invalid "
           f"state nan from x={fatal!r}")
    with pytest.raises(RuntimeError, match=re.escape(msg)):
        sample_terminals(model, 1.0, 10.0, 6, 8, cell=2)
    cells = [(1.0, 10.0)] * 3
    samples = sample_cells(model, cells, 6, 8)
    assert samples[2] == msg
    for i in (0, 1):
        assert _same_bits(samples[i], sample_terminals(fair, 1.0, 10.0, 6, 8, cell=i))


def test_cell_loop_reads_no_stream_at_time_zero():
    class _Untouched:
        def random(self, size=None):
            raise AssertionError("read")

    model = _cell_model(lambda x: _LOW, ExponentialFlow(0.1))
    assert list(model.terminal_states_from(2.5, 0.0, [_Untouched()] * 3)) == [2.5] * 3
    assert _terminal(model, -0.0, 0.0, _Untouched()) == 0.0


# ---------------------------------------------------------------------------
# the jump loop's node visits and growing blocks, against the reference


class _BlockLog:
    """Stream wrapper that logs the size of each block read from it."""

    def __init__(self, stream):
        self.stream = stream
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.stream.random(size)


def _assert_both_paths_match(model, x0, t, factory, cell, count):
    """Terminal states and recorded chains of ``count`` streams of ``cell``
    equal the reference loop's bit for bit; returns the trajectories and
    the block sizes each recorded one read."""
    got, want, trajs, sizes = [], [], [], []
    for k in range(count):
        got.append(_terminal(model, x0, t, factory.stream(cell, k)))
        want.append(_ref_terminal_state(model, x0, t, factory.stream(cell, k)))
        log = _BlockLog(factory.stream(cell, k))
        traj = _chain(model, x0, t, log)
        tau, xi, index, phi = _ref_jump_chain(model, x0, t, factory.stream(cell, k))
        assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
        assert _same_bits(traj.phi, phi)
        assert traj.index.dtype == index.dtype and np.array_equal(traj.index, index)
        trajs.append(traj)
        sizes.append(log.sizes)
    assert _same_bits(got, want)
    return trajs, sizes


def test_halving_matches_the_reference_across_the_first_refills():
    # ~300 jumps from 5 to t = 300 read ~600 uniforms: the blocks of 64,
    # 128 and 256 run out at 64, 192 and 448 uniforms
    model, _ = example_halving(1.0)
    trajs, sizes = _assert_both_paths_match(model, 5.0, 300.0, StreamFactory(21), 0, 20)
    assert all(2 * len(traj.tau) > 448 for traj in trajs)
    assert all(s == [64, 128, 256, 512] for s in sizes)


def test_blocks_stop_growing_at_their_cap():
    # ~3000 jumps under a moving flow read ~6000 uniforms: five growing
    # blocks take 1984 of them, and the rest come 1024 at a time
    model = _expflow_model()
    _, sizes = _assert_both_paths_match(model, 0.3, 2000.0, StreamFactory(4), 1, 3)
    assert all(s[:8] == [64, 128, 256, 512] + [1024] * 4 for s in sizes)
    assert max(map(max, sizes)) == ifs_jump.MAX_BLOCK


@pytest.mark.parametrize("x0", [0.3, 1.0, 4.0])
def test_flip_stays_and_absorption_match_the_reference(x0):
    model = example_flip(1.3)
    trajs, _ = _assert_both_paths_match(model, x0, 40.0, StreamFactory(8), 2, 40)
    index = np.concatenate([traj.index for traj in trajs])
    assert (index == 2).sum() > 100  # stays
    assert sum(len(traj.tau) and traj.phi[-1] == 0.0 for traj in trajs) > 5  # absorbed


class _CountingMemo(dict):
    """Memo stand-in that counts the jump loop's lookups."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.mark.parametrize("stay, new_object", [(lambda x: x, False), (lambda x: x * 1.0, True)],
                         ids=["same-object", "equal-new-float"])
def test_a_stay_keeps_its_node_only_for_the_same_point_object(stay, new_object):
    # a jump looks its point up after a move, and x * 1.0, equal to x but
    # a new float, moves to that float: the jump after a point's first
    # stay looks it up again, and the later stays return the cached float
    model = IfsModel(name="stay", maps=(lambda x: x / 2.0, stay),
                     prob_field=lambda x: (math.exp(-x), 1.0 - math.exp(-x)), rate=1.0,
                     absorbing=(0.0,))
    _assert_both_paths_match(model, 5.0, 60.0, StreamFactory(3), 0, 10)
    for k in range(10):
        memo = _CountingMemo()
        object.__setattr__(model, "_memo", memo)
        traj = _chain(model, 5.0, 60.0, StreamFactory(3).stream(0, k))
        index, xi = traj.index[:-1].tolist(), traj.xi[:-1].tolist()
        moves = index.count(1)
        first_stays = len({x for x, i in zip(xi, index) if i == 2})
        assert len(index) - moves > first_stays > 0  # points stay more than once
        assert memo.gets == 1 + moves + (first_stays if new_object else 0)


def test_a_full_memo_matches_the_reference(monkeypatch):
    # three nodes: every later point takes the inline path, stays included
    monkeypatch.setattr(ifs_jump, "MEMO_NODES", 3)
    model, _ = example_halving(1.0)
    _assert_both_paths_match(model, 5.0, 200.0, StreamFactory(6), 0, 20)
    assert len(model._memo) == 3


@pytest.mark.parametrize("name", ["flip", "halving"])
@pytest.mark.parametrize("x0", [0.0, -0.0])
def test_a_zero_start_keeps_its_sign(name, x0):
    # zero has no node: every jump from it is recorded inline, with the
    # sign of the start
    model = _REF_MODELS[name]()
    trajs, _ = _assert_both_paths_match(model, x0, 20.0, StreamFactory(2), 0, 5)
    assert all(len(traj.tau) > 0 for traj in trajs)
    phi = np.concatenate([traj.phi for traj in trajs])
    assert (np.signbit(phi) == (math.copysign(1.0, x0) < 0.0)).all()
    assert math.copysign(1.0, _terminal(model, x0, 20.0, StreamFactory(2).stream(0, 0))) \
        == math.copysign(1.0, x0)


@pytest.mark.parametrize("flow", [ExponentialFlow(0.1), _DriftFlow(0.3), lambda t, x: x + 0.2 * t],
                         ids=["exp", "drift", "function"])
def test_the_terminal_flow_matches_the_reference(flow):
    model = IfsModel(name="moving", maps=(lambda x: x / 2.0, lambda x: (x + 1.0) / 2.0),
                     prob_field=lambda x: (0.5, 0.5), rate=1.5, flow=flow)
    _assert_both_paths_match(model, 0.7, 9.0, StreamFactory(12), 0, 30)


@pytest.mark.parametrize("flow, x0, name, bad", [
    (ExponentialFlow(100.0), 1e300, "ExponentialFlow(alpha=100.0)", math.inf),
    (_custom_flow(math.nan), 1.0, None, math.nan),
    (_custom_flow(-1.0), 1.0, None, -1.0),
], ids=["exp-overflow", "custom-nan", "custom-negative"])
def test_a_bad_terminal_point_names_the_flow(flow, x0, name, bad):
    # the first waiting time, -log(1 - 0.999) ~ 6.9, passes t = 1, so the
    # flow runs only to the terminal point, for time 1
    model = IfsModel(name="terminal", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1.0, flow=flow)
    msg = re.escape(f"flow {name or flow.__qualname__} of model 'terminal' produced invalid "
                    f"state {bad!r} from x={x0!r} after time 1.0")
    with pytest.raises(RuntimeError, match=msg):
        _terminal(model, x0, 1.0, _StubStream([0.999]))
    with pytest.raises(RuntimeError, match=msg):
        _chain(model, x0, 1.0, _StubStream([0.999]))
