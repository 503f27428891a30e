"""Iterated function systems driven by an exponential jump clock.

Between jumps the state follows a deterministic flow; at each jump time a
transformation is chosen from a finite family with probabilities that depend
on the pre-jump point, and applied. One trajectory is therefore a sequence
of records (jump time, pre-jump point, chosen index, post-jump point)
together with the flow interpolation in between.

Two models ship built in:

* ``flip``: maps (kill to 0, stay, invert), identity flow. The selection
  probabilities are continuous in the state and give the same kill and
  invert chance at x and 1/x, so a trajectory from x lives on {0, x, 1/x}
  until it is absorbed at 0.
* ``halving``: maps (halve, stay), identity flow, halving chosen with
  probability exp(-x). Near 0 the system halves almost surely, far away it
  barely moves; contraction strength varies from place to place. This model
  carries a full :class:`AssumptionSet` (anchor, contraction coefficient,
  modulus, series budget) that the diagnostics layer can audit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .core import as_state

__all__ = [
    "IdentityFlow",
    "ExponentialFlow",
    "IfsModel",
    "Trajectory",
    "AssumptionSet",
    "example_flip",
    "example_halving",
    "sample_jump_chain",
    "j_n",
    "linear_modulus",
    "halving_tv_modulus",
]

PROB_SUM_TOL = 1e-9

# Uniforms taken from a trajectory's stream per refill. numpy fills a block
# with the doubles that as many scalar ``random()`` calls would return; a
# block of 64 costs about as much as three scalar calls, and a trajectory
# discards at most 63 unused words.
BLOCK = 64

# Most points an identity-flow model remembers, counting points visited
# once and memo nodes (see ``IfsModel._jump_loop``); 4096 nodes of a
# two-map model take about 2 MB. A full memo stops growing, and the points
# it lacks take the inline path.
MEMO_NODES = 4096


@dataclass(frozen=True)
class IdentityFlow:
    def __call__(self, t: float, x: float) -> float:
        return x


@dataclass(frozen=True)
class ExponentialFlow:
    """Flow x -> x * exp(alpha t); expansion rate alpha >= 0."""

    alpha: float

    def __call__(self, t: float, x: float) -> float:
        return x * math.exp(self.alpha * t)


@dataclass(frozen=True)
class IfsModel:
    """Immutable description of one jump system.

    ``maps`` are the transformations, ``prob_field`` returns the selection
    probabilities at a point, ``flow`` moves the state between jumps and
    ``rate`` is the jump intensity. ``absorbing`` lists exact fixed points
    at which every map and the flow stall, so samplers may stop early.

    ``maps`` and ``prob_field`` must be pure functions of the point. Under
    the identity flow a trajectory moves only through the points its maps
    produce, so the sampler keeps a memo per model object of the validated
    weights at each nonzero point and of each map's output there: an
    identity-flow model evaluates each of them once per distinct point
    (for up to ``MEMO_NODES`` points). The memo is private and takes no
    part in equality, hashing, ``repr`` or pickling; a copy or an
    unpickled model starts with an empty one.
    """

    name: str
    maps: tuple
    prob_field: Callable[[float], np.ndarray]
    rate: float
    flow: Callable[[float, float], float] = IdentityFlow()
    absorbing: tuple = ()

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("jump rate must be a positive real")
        if len(self.maps) == 0:
            raise ValueError("a jump system needs at least one map")
        self._reset_memo()

    def _reset_memo(self) -> None:
        # the jump loop's memo: point -> node (see ``_node``), and point ->
        # (weights, chosen map, post-jump point) of a point visited once.
        # Every entry is a function of its point alone, so threads sharing
        # a model can only repeat work and overshoot ``MEMO_NODES``.
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_seen", {})

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"], state["_seen"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_memo()

    def apply_map(self, index: int, x: float) -> float:
        """Apply map ``index`` (1-based) and validate the landing point."""
        y = float(self.maps[index - 1](x))
        if not math.isfinite(y) or y < 0.0:
            raise RuntimeError(
                f"map w{index} of model {self.name!r} produced invalid state {y!r} from x={x!r}"
            )
        return y

    def terminal_state(self, x0: float, t: float, stream: np.random.Generator) -> float:
        """State at time t of one trajectory from x0; trajectory not recorded.

        Stops drawing once the state hits an exact absorbing point; the
        result is identical to interpolating a fully recorded trajectory.
        The stream belongs to this one trajectory and is read ``BLOCK``
        uniforms at a time, so its position after the call is unspecified.
        """
        if not (t >= 0.0 and math.isfinite(t)):
            raise ValueError("time must be a finite nonnegative real")
        x = as_state(x0)
        if t == 0.0:
            return x
        return self._jump_loop(x, t, stream, self.absorbing, None)

    def _jump_loop(self, x: float, t: float, stream: np.random.Generator, stop: tuple,
                   record) -> float:
        """One trajectory from the valid state x up to time t.

        Returns the state at time t, or the first state reached in ``stop``.
        A jump takes two uniforms, one for the exponential waiting time and
        one for the inverse-CDF map choice at the pre-jump point, in the
        order repeated ``stream.random()`` calls would return them. Flowed
        points (pre-jump and terminal) and map outputs must be finite and
        nonnegative. ``record``, if not None, is four lists that receive
        each jump's time, pre-jump point, map index (1-based) and post-jump
        point.

        Under the identity flow the model remembers the nonzero points it
        visits, while its memo has room. A first visit records the point's
        weights, choice and post-jump point; the second turns the record
        into a node (see ``_node``), from which it and every later visit
        take the choice by one bisection and the post-jump point from a
        cache. Any other jump (moving flow, zero, a first visit, or a point
        missing from a full memo) validates its probability vector inline
        with plain float arithmetic, with the checks and messages of
        ``_weights``, because this is the hot path.
        """
        rate = self.rate
        flow = self.flow
        moving = not isinstance(flow, IdentityFlow)
        memo = self._memo
        seen = self._seen
        lookup = memo.get
        room = 0 if moving else MEMO_NODES - len(memo) - len(seen)
        field = self.prob_field
        apply = self.apply_map
        n_maps = len(self.maps)
        log1p = math.log1p
        ndarray = np.ndarray
        if record is not None:
            taus, xis, idxs, phis = (lst.append for lst in record)
        buf = ()
        i = BLOCK
        now = 0.0
        while x not in stop:
            if i == BLOCK:
                buf = stream.random(BLOCK).tolist()
                i = 0
            gap = -log1p(-buf[i]) / rate
            i += 1
            if gap <= 0.0:  # u == 0 draw, probability ~2^-53
                continue
            if now + gap > t:
                return self._flowed(t - now, x) if moving else x
            now += gap
            if moving:
                pre = self._flowed(gap, x)
                node = None
            else:
                pre = x
                node = lookup(pre)
                if node is None and room:
                    first = seen.pop(pre, None)
                    if first is not None:  # second visit
                        node = memo[pre] = _node(pre, *first)
            if i == BLOCK:
                buf = stream.random(BLOCK).tolist()
                i = 0
            u = buf[i]
            i += 1
            if node is not None:
                cum, succ = node
                chosen = bisect_right(cum, u)
                x = succ[chosen]
                if x is None:
                    x = succ[chosen] = apply(chosen, pre)
            else:
                w = field(pre)
                if isinstance(w, ndarray):
                    w = w.tolist()
                if len(w) != n_maps:
                    raise ValueError(f"prob_field returned {len(w)} weights for "
                                     f"{n_maps} maps at x={pre!r}")
                acc = 0.0
                chosen = 0
                k = 0
                for p in w:
                    k += 1
                    if p < 0.0:
                        raise ValueError(f"negative selection probability {p!r} at "
                                         f"x={pre!r} in model {self.name!r}")
                    acc += p
                    if chosen == 0 and u < acc:
                        chosen = k
                if not (1.0 - PROB_SUM_TOL <= acc <= 1.0 + PROB_SUM_TOL):
                    raise ValueError(f"selection probabilities sum to {acc!r} at "
                                     f"x={pre!r} in model {self.name!r}")
                if not chosen:
                    chosen = _fallback(w, pre)
                x = apply(chosen, pre)
                # 0.0 and -0.0 are one key but keep their sign through the
                # maps, so zero never enters the memo
                if room and pre:
                    seen[pre] = (tuple(w), chosen, x)  # a field may reuse a list
                    room -= 1
            if record is not None:
                taus(now)
                xis(pre)
                idxs(chosen)
                phis(x)
        return x

    def _weights(self, x: float) -> np.ndarray:
        """Selection probabilities at x for the audits, with the checks and
        messages of the jump loop's inline validation."""
        w = self.prob_field(x)
        if isinstance(w, np.ndarray):
            w = w.tolist()
        if len(w) != len(self.maps):
            raise ValueError(f"prob_field returned {len(w)} weights for "
                             f"{len(self.maps)} maps at x={x!r}")
        acc = 0.0
        for p in w:
            if p < 0.0:
                raise ValueError(
                    f"negative selection probability {p!r} at x={x!r} in model {self.name!r}")
            acc += p
        if not (1.0 - PROB_SUM_TOL <= acc <= 1.0 + PROB_SUM_TOL):
            raise ValueError(
                f"selection probabilities sum to {acc!r} at x={x!r} in model {self.name!r}")
        return np.asarray(w, dtype=float)

    def _flowed(self, s: float, x: float) -> float:
        """Flow x for time s and validate the point reached."""
        y = self.flow(s, x)
        if not 0.0 <= y < math.inf:
            name = getattr(self.flow, "__qualname__", None) or repr(self.flow)
            raise RuntimeError(f"flow {name} of model {self.name!r} produced invalid "
                               f"state {y!r} from x={x!r} after time {s!r}")
        return y

    @staticmethod
    def state_label(x0: float) -> str:
        return f"{x0:g}"


@dataclass(frozen=True)
class Trajectory:
    """Jump-chain record: arrays over jumps k = 1..K with tau_0 = 0 implicit.

    ``tau`` holds jump times (strictly increasing), ``xi`` pre-jump points,
    ``index`` the chosen map (1-based), ``phi`` post-jump points.
    """

    x0: float
    horizon: float
    tau: np.ndarray
    xi: np.ndarray
    index: np.ndarray
    phi: np.ndarray

    def __len__(self) -> int:
        return self.tau.size


def sample_jump_chain(model: IfsModel, x: float, horizon: float,
                      stream: np.random.Generator) -> Trajectory:
    """Sample one trajectory and record every jump up to the horizon.

    Waiting times are i.i.d. exponential with the model rate, drawn by
    inverse CDF; the map index at each jump is drawn from the selection
    probabilities evaluated at the pre-jump point. Jumps keep being recorded
    at absorbing points. The stream belongs to this one trajectory and is
    read ``BLOCK`` uniforms at a time, so its position after the call is
    unspecified.
    """
    if not (horizon >= 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be a finite nonnegative real")
    x = as_state(x)
    taus, xis, idxs, phis = record = ([], [], [], [])
    model._jump_loop(x, horizon, stream, (), record)
    return Trajectory(
        x0=x,
        horizon=float(horizon),
        tau=np.array(taus, dtype=float),
        xi=np.array(xis, dtype=float),
        index=np.array(idxs, dtype=int),
        phi=np.array(phis, dtype=float),
    )


def _node(x: float, w, chosen: int, y: float) -> tuple:
    """Memo entry ``(cum, succ)`` of the point x, from its validated
    weights w and its first jump, by map ``chosen`` to y.

    ``cum`` is [0.0] followed by the running sums ``acc += p`` of w, with
    +inf from the last map of positive weight on. The weights are
    nonnegative and a uniform u lies in [0, 1), so ``bisect_right(cum, u)``
    is the inline choice: the first map whose running sum exceeds u, or
    that last map when float slack leaves u above the sum. ``succ[k]``
    caches map k's output at the point, filled the first time map k is
    taken.
    """
    cum = list(accumulate(w, initial=0.0))
    last = _fallback(w, x)
    cum[last:] = [math.inf] * (len(cum) - last)
    succ = [None] * len(cum)
    succ[chosen] = y
    return cum, succ


def _fallback(w, x: float) -> int:
    """The last map (1-based) with positive weight at x, taken when float
    slack leaves the uniform above the sum of the validated weights."""
    for k in range(len(w), 0, -1):
        if w[k - 1] > 0.0:
            return k
    raise RuntimeError(f"degenerate probability vector at x={x!r}")


# ---------------------------------------------------------------------------
# built-in models


def _flip_kill(x: float) -> float:
    return 0.0


def _flip_stay(x: float) -> float:
    return x


def _flip_invert(x: float) -> float:
    return 1.0 / x if x != 0.0 else 0.0


def _flip_probs(x: float):
    if x < 2.0 / 3.0:
        return (x / 2.0, 1.0 - x, x / 2.0)
    if x <= 1.5:
        return (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    inv = 1.0 / x
    return (inv / 2.0, 1.0 - inv, inv / 2.0)


def _halve(x: float) -> float:
    return x / 2.0


def _stay(x: float) -> float:
    return x


def _halving_probs(x: float):
    p = math.exp(-x)
    return (p, 1.0 - p)


def _halving_r(x: float) -> float:
    return 1.0 - math.exp(-x) / 2.0


def linear_modulus(s: float) -> float:
    """Modulus omega(s) = s; the one matching the halving series budget."""
    return s


def halving_tv_modulus(s: float) -> float:
    """Modulus omega(s) = 2 (1 - exp(-s)).

    Equals the exact total selection-probability gap of the halving model
    between x = s and the anchor 0, so it is the tightest concave modulus
    for that field.
    """
    return 2.0 * (1.0 - math.exp(-s))


@dataclass(frozen=True)
class AssumptionSet:
    """Hypothesis data for contraction-based stability audits.

    ``anchor`` is the reference point z, ``r`` the place-dependent
    contraction coefficient with values in (0, 1], ``omega`` a concave
    nondecreasing modulus with omega(0) = 0 bounding the selection
    probability gap, ``alpha`` the flow expansion rate, and ``rate`` the
    jump intensity. ``m_start``, ``eta`` and ``gamma`` parametrize the
    series budget: the tail sum of modulated contraction products from
    index ``m_start``, over starting points within ``eta`` of the anchor,
    must stay at or below ``1 - gamma``.
    """

    anchor: float
    r: Callable[[float], float]
    omega: Callable[[float], float]
    m_start: int
    eta: float
    gamma: float
    alpha: float
    rate: float

    def __post_init__(self) -> None:
        as_state(self.anchor)
        if self.m_start < 0:
            raise ValueError("m_start must be a nonnegative integer")
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if not (self.rate > 0.0):
            raise ValueError("rate must be positive")
        if self.omega(0.0) != 0.0:
            raise ValueError("omega(0) must equal 0")


def example_flip(lam: float) -> IfsModel:
    """Three-map flip system: kill to 0, stay, or invert, identity flow.

    Selection probabilities are (x/2, 1-x, x/2) below 2/3, uniform between
    2/3 and 3/2, and (1/(2x), 1-1/x, 1/(2x)) above 3/2; the three branches
    agree at the seams, so the field is continuous.
    """
    return IfsModel(
        name="flip",
        maps=(_flip_kill, _flip_stay, _flip_invert),
        prob_field=_flip_probs,
        rate=float(lam),
        flow=IdentityFlow(),
        absorbing=(0.0,),
    )


def example_halving(lam: float) -> tuple[IfsModel, AssumptionSet]:
    """Two-map halving system plus the hypothesis data it satisfies.

    The assumption data uses anchor 0, contraction coefficient
    r(x) = 1 - exp(-x)/2, tail start 0, window eta = 1/8 and budget
    1 - gamma = exp(1/8)/4. Two moduli are natural here and they are not
    interchangeable: ``linear_modulus`` makes the series budget an exact
    identity at the window edge, while ``halving_tv_modulus`` is the exact
    probability-gap bound (the linear one undershoots it near 0). The
    default is the linear modulus; the audit functions accept an override.
    """
    model = IfsModel(
        name="halving",
        maps=(_halve, _stay),
        prob_field=_halving_probs,
        rate=float(lam),
        flow=IdentityFlow(),
        absorbing=(0.0,),
    )
    assume = AssumptionSet(
        anchor=0.0,
        r=_halving_r,
        omega=linear_modulus,
        m_start=0,
        eta=0.125,
        gamma=1.0 - math.exp(0.125) / 4.0,
        alpha=0.0,
        rate=float(lam),
    )
    return model, assume


# ---------------------------------------------------------------------------
# composition-orbit contraction products


def j_n(model: IfsModel, assume: AssumptionSet, x: float, n: int,
        max_words: int = 10 ** 6) -> float:
    """Largest product of contraction coefficients over length-n map words.

    For a word (i_1, ..., i_n) the j-th factor is r evaluated at the point
    w_{i_1} o ... o w_{i_j} applied to x (composition applies the newest
    letter innermost), with the empty prefix contributing r(x). The maximum
    runs over all words; enumeration is depth first and prunes a branch as
    soon as its running product cannot beat the incumbent, which is sound
    because r never exceeds 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0
    x = as_state(x)
    N = len(model.maps)
    if n * math.log(N) > math.log(max_words) + 1e-9:
        raise ValueError(
            f"{N}^{n} words exceed the enumeration budget of {max_words}; "
            "raise max_words explicitly if this is intended"
        )
    maps = model.maps
    r = assume.r

    def coeff(pt: float) -> float:
        v = float(r(pt))
        if not (0.0 < v <= 1.0):
            raise ValueError(f"contraction coefficient r({pt!r}) = {v!r} outside (0, 1]")
        return v

    base = coeff(x)
    if n == 1:
        return base
    best = 0.0
    # stack entries: (prefix letters, running product over prefixes 0..len-1)
    stack = [((), base)]
    while stack:
        prefix, running = stack.pop()
        if running <= best and best > 0.0:
            continue
        depth = len(prefix) + 1  # prefixes consumed so far
        for letter in range(N - 1, -1, -1):
            # point of the extended prefix: newest letter applied first
            pt = float(maps[letter](x))
            for idx in reversed(prefix):
                pt = float(maps[idx](pt))
            if not math.isfinite(pt) or pt < 0.0:
                raise RuntimeError(
                    f"map w{letter + 1} orbit left the state space at {pt!r}"
                )
            prod = running * coeff(pt)
            if depth == n - 1:
                if prod > best:
                    best = prod
            elif prod > best:
                stack.append((prefix + (letter,), prod))
    return best
