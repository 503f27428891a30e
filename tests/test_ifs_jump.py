import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ergokit import ifs_jump
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
    sample_jump_chain,
)
from ergokit.montecarlo import StreamFactory, sample_terminals


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
    assert assume.rate == 2.5
    assert assume.gamma == pytest.approx(1.0 - math.exp(0.125) / 4.0, abs=1e-15)
    assert assume.gamma == pytest.approx(0.716713, abs=1e-6)
    assert assume.r(1.0) == pytest.approx(1.0 - math.exp(-1.0) / 2.0, abs=1e-15)


def test_moduli():
    assert linear_modulus(0.0) == 0.0
    assert halving_tv_modulus(0.0) == 0.0
    assert halving_tv_modulus(0.3) == pytest.approx(2.0 * (1.0 - math.exp(-0.3)), abs=1e-15)


# ---------------------------------------------------------------------------
# trajectory sampling


def test_zero_horizon_has_no_jumps():
    traj = sample_jump_chain(example_flip(1.0), 0.7, 0.0, StreamFactory(0).stream(0, 0))
    assert len(traj) == 0
    assert traj.x0 == 0.7


def test_flip_from_zero_stays_at_zero():
    model = example_flip(1.0)
    traj = sample_jump_chain(model, 0.0, 20.0, StreamFactory(1).stream(0, 0))
    assert len(traj) > 0
    assert np.all(traj.phi == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_trajectory_invariants(seed):
    model = example_flip(1.3)
    traj = sample_jump_chain(model, 0.8, 15.0, StreamFactory(seed).stream(0, 0))
    assert np.all(np.diff(np.concatenate([[0.0], traj.tau])) > 0.0)
    assert traj.tau.size == 0 or traj.tau[-1] <= traj.horizon
    prev = traj.x0
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
        traj = sample_jump_chain(model, x, 30.0, StreamFactory(seed).stream(1, seed))
        for phi in traj.phi:
            assert np.min(np.abs(orbit - phi)) <= 4e-16 * max(phi, 1.0)


def test_jump_counts_are_poisson():
    lam, horizon, n = 1.3, 7.0, 10_000
    factory = StreamFactory(99)
    model = example_flip(lam)
    total = 0
    for k in range(n):
        total += len(sample_jump_chain(model, 1.0, horizon, factory.stream(0, k)))
    mean = total / n
    sigma = math.sqrt(lam * horizon / n)
    assert abs(mean - lam * horizon) <= 3.0 * sigma


def test_halving_long_run_absorption():
    # terminal states over 10^3 trajectories at horizon 10^4: nearly all tiny
    model, _ = example_halving(1.0)
    factory = StreamFactory(123)
    small = 0
    for k in range(1000):
        small += model.terminal_state(1.0, 1e4, factory.stream(0, k)) < 1e-3
    assert small / 1000 >= 0.99


def test_terminal_state_matches_recorded_trajectory():
    model, _ = example_halving(0.7)
    for seed in range(20):
        a = model.terminal_state(1.0, 12.0, StreamFactory(seed).stream(2, 0))
        traj = sample_jump_chain(model, 1.0, 12.0, StreamFactory(seed).stream(2, 0))
        # identity flow: the state at the horizon is the last post-jump point
        assert a == (traj.phi[-1] if len(traj) else traj.x0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_terminal_state_rejects_non_finite_or_negative_time(t):
    # halving absorbs at 0, so a horizon the loop never reaches used to
    # return 0 instead of failing
    model, _ = example_halving(1.0)
    with pytest.raises(ValueError, match="finite nonnegative"):
        model.terminal_state(1.0, t, StreamFactory(0).stream(0, 0))


def test_map_failure_names_the_map():
    def bad(x):
        return x - 1.0

    model = IfsModel(name="bad", maps=(bad,), prob_field=lambda x: np.array([1.0]), rate=1.0)
    with pytest.raises(RuntimeError, match="w1"):
        model.terminal_state(0.5, 10.0, StreamFactory(0).stream(0, 0))


def test_overflowing_pre_jump_point_names_the_flow():
    model = IfsModel(name="blowup", maps=(lambda x: x,), prob_field=lambda x: (1.0,),
                     rate=1.0, flow=ExponentialFlow(100.0))
    # the first waiting time, -log(1 - 0.5), lands well before t = 50
    with pytest.raises(RuntimeError, match=r"flow ExponentialFlow.*'blowup'.*from x=1e\+300"):
        model.terminal_state(1e300, 50.0, _StubStream([0.5, 0.5]))
    with pytest.raises(RuntimeError, match=r"flow ExponentialFlow.*'blowup'"):
        sample_jump_chain(model, 1e300, 50.0, _StubStream([0.5, 0.5]))


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
                           eta=1.0, gamma=0.5, alpha=0.0, rate=1.0)
    for n in range(1, 7):
        for x in (0.0, 0.4, 2.0):
            assert j_n(model, assume, x, n) == pytest.approx(
                _brute_force_j(model.maps, r, x, n), abs=1e-13)


def test_j_enumeration_budget_guard():
    model = IfsModel(name="wide", maps=(lambda x: x,) * 3,
                     prob_field=lambda x: np.array([1 / 3] * 3), rate=1.0)
    assume = AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus,
                           m_start=0, eta=1.0, gamma=0.5, alpha=0.0, rate=1.0)
    with pytest.raises(ValueError, match="budget"):
        j_n(model, assume, 1.0, 20)
    assert j_n(model, assume, 1.0, 20, max_words=3 ** 20 + 1) == 1.0


def test_j_rejects_coefficient_above_one():
    model = IfsModel(name="loose", maps=(lambda x: x,),
                     prob_field=lambda x: np.array([1.0]), rate=1.0)
    assume = AssumptionSet(anchor=0.0, r=lambda x: 1.5, omega=linear_modulus,
                           m_start=0, eta=1.0, gamma=0.5, alpha=0.0, rate=1.0)
    with pytest.raises(ValueError, match="outside"):
        j_n(model, assume, 1.0, 2)


# ---------------------------------------------------------------------------
# model validation


def test_model_requires_positive_rate():
    with pytest.raises(ValueError):
        IfsModel(name="x", maps=(lambda x: x,), prob_field=lambda x: np.array([1.0]), rate=0.0)


def test_assumption_set_validation():
    with pytest.raises(ValueError):
        AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=lambda s: s + 1.0,
                      m_start=0, eta=1.0, gamma=0.5, alpha=0.0, rate=1.0)
    with pytest.raises(ValueError):
        AssumptionSet(anchor=0.0, r=lambda x: 1.0, omega=linear_modulus,
                      m_start=0, eta=1.0, gamma=1.5, alpha=0.0, rate=1.0)


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
            got.append(model.terminal_state(x0, t, factory.stream(3, k)))
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
            traj = sample_jump_chain(model, x0, horizon, factory.stream(1, k))
            tau, xi, index, phi = _ref_jump_chain(model, x0, horizon, factory.stream(1, k))
            assert _same_bits(traj.tau, tau) and _same_bits(traj.xi, xi)
            assert _same_bits(traj.phi, phi)
            assert traj.index.dtype == index.dtype and np.array_equal(traj.index, index)
            if x0 == 0.0 and name != "expflow" and horizon >= 7.0:
                assert len(traj) > 0


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
    got = model.terminal_state(1.0, 3.0, _StubStream(values))
    assert got == _ref_terminal_state(model, 1.0, 3.0, _StubStream(values))
    traj = sample_jump_chain(model, 1.0, 3.0, _StubStream(values))
    tau, xi, index, phi = _ref_jump_chain(model, 1.0, 3.0, _StubStream(values))
    assert _same_bits(traj.tau, tau) and _same_bits(traj.phi, phi)
    assert traj.index.tolist() == index.tolist() == [1, 2]
    assert traj.tau[0] == -math.log1p(-0.5)


def test_float_slack_falls_back_to_last_positive_weight():
    # weights sum to 1 - 1e-12, within tolerance; a uniform above that sum
    # picks the last map with positive weight, here w2
    model = IfsModel(name="slack", maps=(lambda x: 1.0, lambda x: 2.0, lambda x: 3.0),
                     prob_field=lambda x: (0.5, 0.5 - 1e-12, 0.0), rate=1.0)
    values = [0.5, 1.0 - 1e-13, 0.999]
    assert model.terminal_state(0.7, 1.0, _StubStream(values)) == 2.0
    assert _ref_terminal_state(model, 0.7, 1.0, _StubStream(values)) == 2.0


@pytest.mark.parametrize("field, match", [
    (lambda x: (1.0,), "returned 1 weights for 2 maps"),
    (lambda x: np.array([1.5, -0.5]), "negative selection probability -0.5"),
    (lambda x: (0.5, 0.4), "selection probabilities sum to 0.9"),
])
def test_jump_loop_rejects_bad_selection_probabilities(field, match):
    model = IfsModel(name="bad", maps=(lambda x: x, lambda x: x), prob_field=field, rate=1.0)
    with pytest.raises(ValueError, match=match):
        model.terminal_state(0.5, 50.0, StreamFactory(0).stream(0, 0))
    with pytest.raises(ValueError, match=match):
        sample_jump_chain(model, 0.5, 50.0, StreamFactory(0).stream(0, 0))


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
    # one model object for all 200 trajectories: from the second visit to a
    # point on, its jumps are memo hits
    model = _MEMO_MODELS[name]()
    factory = StreamFactory(11)
    got, want = [], []
    for k in range(200):
        x0 = (0.3, 1.0, 4.0, 9.0)[k % 4]
        got.append(model.terminal_state(x0, 40.0, factory.stream(0, k)))
        want.append(_ref_terminal_state(model, x0, 40.0, factory.stream(0, k)))
        traj = sample_jump_chain(model, x0, 40.0, factory.stream(1, k))
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
    plus = sample_jump_chain(model, 0.0, 7.0, factory.stream(0, 0))
    minus = sample_jump_chain(model, -0.0, 7.0, factory.stream(0, 1))
    tau, xi, index, phi = _ref_jump_chain(model, -0.0, 7.0, factory.stream(0, 1))
    assert len(plus) > 0 and len(minus) > 0
    assert not np.signbit(plus.phi).any() and np.signbit(minus.phi).all()
    assert _same_bits(minus.xi, xi) and _same_bits(minus.phi, phi)
    assert model.terminal_state(-0.0, 7.0, factory.stream(0, 2)) == 0.0
    assert math.copysign(1.0, model.terminal_state(-0.0, 7.0, factory.stream(0, 2))) == -1.0


@pytest.mark.parametrize("memo_nodes", [MEMO_NODES, 0], ids=["memo", "inline"])
def test_float_slack_fallback_holds_on_every_visit(monkeypatch, memo_nodes):
    # weights sum to 1 - 1e-12 with two zero weights last: a uniform above
    # the sum picks w2, the last map with positive weight, on the first
    # visit to 0.7 (inline), on the second (which makes the memo node) and
    # on every later one
    monkeypatch.setattr(ifs_jump, "MEMO_NODES", memo_nodes)
    model = IfsModel(name="slack",
                     maps=(lambda x: 1.0, lambda x: 2.0, lambda x: 3.0, lambda x: 4.0),
                     prob_field=lambda x: (0.5, 0.5 - 1e-12, 0.0, 0.0), rate=1.0)
    for u, want in [(1.0 - 1e-13, 2.0), (1.0 - 1e-13, 2.0), (0.25, 1.0), (0.75, 2.0),
                    (1.0 - 1e-13, 2.0)]:
        values = [0.5, u, 0.999]
        assert model.terminal_state(0.7, 1.0, _StubStream(values)) == want
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
            model.terminal_state(1.0, 50.0, StreamFactory(0).stream(0, k))
        with pytest.raises(ValueError, match=match):
            sample_jump_chain(model, 1.0, 50.0, StreamFactory(0).stream(1, k))
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
        traj = sample_jump_chain(model, 0.5, 30.0, factory.stream(0, k))
        tau, xi, index, phi = _ref_jump_chain(model, 0.5, 30.0, factory.stream(0, k))
        assert _same_bits(traj.xi, xi) and _same_bits(traj.phi, phi)
        assert np.array_equal(traj.index, index)
    for _ in range(2):
        values = [0.5, 0.1000000001, 0.5]
        traj = sample_jump_chain(model, 0.5, 1.0, _StubStream(values))
        ref = _ref_jump_chain(model, 0.5, 1.0, _StubStream(values))
        assert traj.index.tolist() == ref[2].tolist() == [2]
    assert 0.5 in model._memo and 1.0 in model._memo


def test_memo_stops_growing_at_its_cap():
    # maps x/2 and (x+1)/2: past the first few jumps almost every point is
    # new, so ~10 000 jumps fill the memo (mostly with points visited once)
    # and 30 000 more add no entries
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
    assert len(model._memo) + len(model._seen) == MEMO_NODES
    assert full < 4 * 2 ** 20
    assert later - full < full / 10


def test_memo_takes_no_part_in_pickling_equality_or_repr():
    warm, _ = example_halving(1.0)
    fresh, _ = example_halving(1.0)
    first = sample_terminals(warm, 5.0, 100.0, 20, 1)
    assert warm._memo and not fresh._memo and not fresh._seen
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    clone = pickle.loads(pickle.dumps(warm))
    assert clone == warm and not clone._memo and not clone._seen
    assert _same_bits(sample_terminals(clone, 5.0, 100.0, 20, 1), first)
