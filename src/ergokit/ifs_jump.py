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
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import Ball, EmpiricalMeasure, as_state, as_time

__all__ = [
    "IdentityFlow",
    "ExponentialFlow",
    "IfsModel",
    "AssumptionSet",
    "example_flip",
    "example_halving",
    "sample_jump_chains",
    "j_n",
    "linear_modulus",
    "halving_tv_modulus",
]

PROB_SUM_TOL = 1e-9

# Uniforms taken from a trajectory's stream by its first refill. numpy fills
# a block with the doubles that as many scalar ``random()`` calls would
# return, and a block of 64 costs about as much as three scalar calls. Each
# later refill of the same trajectory reads twice as many, up to MAX_BLOCK:
# one that uses n uniforms makes ceil(log2(n / 64 + 1)) refills while the
# blocks grow, reads fewer than 2n + 64, and discards at most MAX_BLOCK - 1.
BLOCK = 64
MAX_BLOCK = 1024

# Most memo nodes an identity-flow model keeps (see ``IfsModel._jump_loop``);
# 4096 nodes of a two-map model take about 2 MB. A full memo stops growing,
# and the points it lacks take the inline path.
MEMO_NODES = 4096

# Exact-law work is counted in point-steps, the cost of carrying one orbit
# point through one sweep step. tools/orbit_costs.py measures the ratios;
# on a shared 2-vCPU x86-64 machine under numpy 2.4 a point-step took
# 11-17 ns, a sweep step 160-420 point-steps on top of its points, building
# an orbit point 185-285 and a sampled jump 55-145, over four runs.
SWEEP_STEP_POINTS = 210
NODE_POINTS = 230
JUMP_POINTS = 100

# A start's exact laws are given up, and the start sampled, as soon as
# their work would pass what BREAK_EVEN_SAMPLES trajectories to the latest
# time cost by sampling (or ORBIT_BUDGET, about 1 ms, if that is more): a
# start that falls back wastes at most that.
BREAK_EVEN_SAMPLES = 100
ORBIT_BUDGET = 2 ** 16

# Poisson mass an exact law may drop past each end of its jump-count window
TAIL_MASS = 1e-16


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

    ``maps`` and ``prob_field`` must be pure functions of the point. One
    rule, ``_running_sums``, validates a probability vector and sums it.
    Under the identity flow a trajectory moves only through the points its
    maps produce, so the sampler keeps a memo per model object of the
    running sums at each nonzero point and of each map's output there,
    built on the point's first visit (see ``_node_at``): an identity-flow
    model evaluates ``prob_field`` at most once per distinct nonzero point,
    and each map at most once there, while the memo has room (``MEMO_NODES``
    points). The memo is private and takes no part in equality, hashing,
    ``repr`` or pickling; a copy or an unpickled model starts with an
    empty one.

    A Monte Carlo cell runs all its trajectories through one jump loop
    (``terminal_states_from``), which does its set-up once. Under a moving
    flow, and wherever the memo has no node, a field that returns one
    constant tuple of floats is checked on its first jumps in that loop and
    summed by ``_running_sums``, and each later jump takes its choice from
    the kept sums by one bisection (see ``_jump_loop``).
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
        # the memo: point -> node (see ``_node_at``). Every node is a
        # function of its point alone, so threads sharing a model can only
        # repeat work and overshoot ``MEMO_NODES``.
        object.__setattr__(self, "_memo", {})

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_memo()

    def apply_map(self, index: int, x: float) -> float:
        """Apply map ``index`` (1-based) and validate the landing point."""
        y = float(self.maps[index - 1](x))
        if not 0.0 <= y < math.inf:
            raise self._invalid_map(index, x, y)
        return y

    def _invalid_map(self, index: int, x: float, y: float) -> RuntimeError:
        return RuntimeError(
            f"map w{index} of model {self.name!r} produced invalid state {y!r} from x={x!r}")

    def terminal_states_from(self, x0: float, t: float, streams):
        """State at time t of one trajectory from x0 per stream, in stream
        order, as an iterator: one jump loop and one set of checks serve
        them all, so a Monte Carlo cell pays its set-up once.

        A trajectory stops drawing at an exact absorbing point; the result
        is that of its fully recorded trajectory. A stream belongs to one
        trajectory and is read in blocks, ``BLOCK`` uniforms first and twice
        as many on each refill up to ``MAX_BLOCK``, so its position after is
        unspecified. It is read before the next one is taken, so
        ``StreamFactory.streams``, which restarts one generator in place for
        each trajectory, may supply them.
        """
        t = as_time(t)
        x = as_state(x0)
        if t == 0.0:
            return (x for _ in streams)
        return self._jump_loop(x, t, streams, self.absorbing, False)

    def _jump_loop(self, x0: float, t: float, streams, stop: tuple, record: bool):
        """Trajectories from the valid state x0 up to time t, one per stream
        in ``streams``: yields, in stream order, each one's state at time t
        or the first state it reaches in ``stop``; with ``record``, its
        records instead, four new lists of each jump's time, pre-jump point,
        map index (1-based) and post-jump point.

        The set-up below runs once for all of them. A jump takes two
        uniforms, one for the exponential waiting time and one for the
        inverse-CDF map choice at the pre-jump point, in the order repeated
        ``stream.random()`` calls would return them; a trajectory reads
        them in blocks that double from ``BLOCK`` to ``MAX_BLOCK``. Flowed
        points (pre-jump and terminal) and map outputs must be finite and
        nonnegative.

        Under the identity flow the model remembers the nonzero points it
        visits, while its memo has room: a point's first visit builds its
        node (see ``_node_at``), from which every visit takes the choice by
        one bisection and the post-jump point from a cache. The loop looks
        a point's node up once per visit, not once per jump: a stay, a jump
        whose cached post-jump point is the pre-jump point object itself,
        keeps the node for the next jump. A new object, even an equal one,
        is looked up again. Any other jump (moving flow, zero, or a point
        missing from a full memo) validates its probability vector inline
        with plain float arithmetic, because this is the hot path. It hands
        a vector that fails a check, or whose sum float slack leaves below
        the uniform, to ``_running_sums``, which raises or gives the choice
        by bisection. For the same reason such a jump applies its map
        inline, with the check and message of ``apply_map``, and a moving
        flow's pre-jump and terminal points are flowed and checked inline,
        with the message of ``_invalid_flow``: an ``ExponentialFlow`` (not
        a subclass) as ``x * exp(alpha * s)``, the expression of its
        ``__call__``, any other flow by calling it.

        A field that returns one constant vector skips the inline checks:
        when ``prob_field`` returns the very object that passed them on the
        latest inline jump, and that object is exactly a ``tuple`` of
        exactly ``float``s (immutable, and summed as Python floats), its
        ``_running_sums`` are kept, and every later jump of any trajectory
        in ``streams`` that gets the same object back takes its choice
        from them by one bisection. Any other vector, and
        every vector that has not passed the checks, takes the inline path,
        so an invalid vector fails with the message it always had.
        """
        rate = self.rate
        flow = self.flow
        moving = not isinstance(flow, IdentityFlow)
        alpha = flow.alpha if type(flow) is ExponentialFlow else None
        memo = self._memo
        lookup = memo.get
        room = 0 if moving else MEMO_NODES - len(memo)
        field = self.prob_field
        apply = self.apply_map
        maps = self.maps
        n_maps = len(maps)
        log1p = math.log1p
        exp = math.exp
        inf = math.inf
        ndarray = np.ndarray
        # last: the vector that passed the inline checks on the latest
        # inline jump; held: the constant tuple whose running sums are sums
        last = held = sums = None
        for stream in streams:
            if record:
                rec = [], [], [], []
                taus, xis, idxs, phis = (lst.append for lst in rec)
            random = stream.random
            x = x0
            # buf[i] is the next uniform while i < full; the next refill
            # reads ``size`` of them
            i = full = 0
            size = BLOCK
            now = 0.0
            # the running sums and successors of x's memo node, or None
            # while x has none or has not been looked up
            cum = None
            while x not in stop:
                if i == full:
                    buf = random(size).tolist()
                    i, full = 0, size
                    if size < MAX_BLOCK:
                        size += size
                gap = -log1p(-buf[i]) / rate
                i += 1
                if gap <= 0.0:  # u == 0 draw, probability ~2^-53
                    continue
                end = now + gap
                if end > t:
                    if moving:
                        s = t - now
                        y = x * exp(alpha * s) if alpha is not None else flow(s, x)
                        if not 0.0 <= y < inf:
                            raise self._invalid_flow(s, x, y)
                        x = y
                    break
                now = end
                if cum is None:
                    if moving:
                        pre = x * exp(alpha * gap) if alpha is not None else flow(gap, x)
                        if not 0.0 <= pre < inf:
                            raise self._invalid_flow(gap, x, pre)
                    else:
                        pre = x
                        node = lookup(pre)
                        # 0.0 and -0.0 are one key but keep their sign
                        # through the maps, so zero never enters the memo
                        if node is None and room and pre:
                            node = self._node_at(pre)
                            room -= 1
                        if node is not None:
                            cum, succ = node
                if i == full:
                    buf = random(size).tolist()
                    i, full = 0, size
                    if size < MAX_BLOCK:
                        size += size
                u = buf[i]
                i += 1
                if cum is not None:
                    chosen = bisect_right(cum, u)
                    x = succ[chosen]
                    if x is None:
                        x = succ[chosen] = apply(chosen, pre)
                    if x is not pre:  # moved: the next jump looks x up
                        cum = None
                else:
                    w = field(pre)
                    if w is last and w is not held and type(w) is tuple \
                            and all(type(p) is float for p in w):
                        held, sums = w, self._running_sums(w, pre)
                    if w is held:
                        chosen = bisect_right(sums, u)
                    else:
                        if isinstance(w, ndarray):
                            w = w.tolist()
                        acc = 0.0
                        chosen = 0
                        k = 0
                        for p in w:
                            k += 1
                            if p < 0.0:
                                self._running_sums(w, pre)  # raises
                            acc += p
                            if chosen == 0 and u < acc:
                                chosen = k
                        if len(w) != n_maps or \
                                not (1.0 - PROB_SUM_TOL <= acc <= 1.0 + PROB_SUM_TOL):
                            self._running_sums(w, pre)  # raises
                        if not chosen:  # float slack left u above the sum
                            chosen = bisect_right(self._running_sums(w, pre), u)
                        last = w
                    x = float(maps[chosen - 1](pre))
                    if not 0.0 <= x < inf:
                        raise self._invalid_map(chosen, pre, x)
                if record:
                    taus(now)
                    xis(pre)
                    idxs(chosen)
                    phis(x)
            yield rec if record else x

    def exact_laws(self, x0: float, times) -> Optional[list]:
        """Time-t laws from x0, one ``(law, bound)`` pair per t in times;
        None under a moving flow, for a field whose running sums are not
        floats (float32 weights select in float32), or when the work would
        pass its budget (see ``BREAK_EVEN_SAMPLES``).

        Under the identity flow the system is already uniformized (a map
        that stays put is a self-loop), so the law at t is the Poisson(rate
        t) mixture of the laws after k jumps (Jensen 1953). Each map's mass
        is the sampler's: the difference of its memo node's running sums,
        clipped at 1. One sweep over the orbit serves every t, step k
        weighted by ``_poisson_window``. For f with values in [lo, hi], the
        sum of f over ``law`` is within ``bound * max(hi - lo, |lo|, |hi|)``
        of its mean at t: ``bound`` adds the dropped Poisson mass to the
        rounding (Higham's gamma_n) of the weights, the sweep and that sum.
        """
        if len(times) == 0:
            return []
        if not isinstance(self.flow, IdentityFlow):
            return None
        x = as_state(x0)
        windows, steps, budget = self._plan(times)
        orbit = self._orbit(x, steps, budget)
        if orbit is None:
            return None
        points, dst, mass = orbit
        n = len(points)
        weights = np.zeros((len(windows), steps + 1))
        for row, (left, w, _, _) in zip(weights, windows):
            row[left:left + len(w)] = w
        # steps join the laws a block of at most 2^16 products at a time
        block = max(1, min(64, 2 ** 16 // (len(windows) * n)))
        dst = dst.ravel()
        acc = np.zeros((len(windows), n))
        v = np.zeros(n)
        v[0] = 1.0
        swept = []
        for k in range(steps + 1):
            swept.append(v)
            if len(swept) == block or k == steps:
                lo = k + 1 - len(swept)
                acc += (weights[:, lo:k + 1, None] * np.array(swept)).sum(axis=1)
                swept.clear()
            if k < steps:
                v = np.bincount(dst, (mass * v).ravel(), n)
        # a step's entry sums (in-degree) rounded products; zero masses add 0
        g = _gamma(int(np.bincount(dst[mass.ravel() > 0.0]).max()) + 2) if steps else 0.0
        order = np.argsort(points)
        points = np.asarray(points)[order]
        laws = []
        for law, (left, w, dropped, spread) in zip(acc[:, order], windows):
            right = left + len(w) - 1
            grow = (1.0 + g) ** right  # bounds the mass of every swept step
            weighting = _gamma(4 * spread + 2)
            rounding = (weighting + (1.0 + weighting) * grow
                        * (right * g + _gamma(right + 2)))
            charged = law > 0.0
            bound = dropped + rounding + _gamma(int(charged.sum()) + 1) * (1.0 + rounding)
            laws.append((EmpiricalMeasure(points[charged], law[charged]), bound))
        return laws

    def exact_means(self, starts, times, functionals) -> list:
        """Per start, None where ``exact_laws`` would give None, else per t
        in times the ``(mean, bound)`` of each functional at t, a ball's
        mean being its hit probability and ``bound`` a bound on its error.

        One orbit graph serves every start: the points within reach of any
        of them. Kolmogorov's backward recursion u_0 = f, u_(k+1) = P u_k
        runs once over it, every functional a column, and the mean at t
        from x is the sum over k of w_k u_k(x), w the ``_poisson_window`` of
        rate * t. A start is exact when its own orbit fits the budget of
        ``exact_laws``; if the union fits it, so does every start's.

        The bound. Let f take values in [lo, hi], B = max(hi - lo, |lo|, |hi|),
        N = len(maps), g(n) Higham's gamma_n, and P the masses of ``_orbit``:
        its rows sum to 1, but at the points ``steps`` jumps away, which no
        u_k(x) with k <= steps reads and whose rows are 0. So u_k lies in [lo,
        hi] where it is read. A step sums N products of a rounded mass and a
        value, so it computes P u'_k + e with |e| <= g(N + 1) P |u'_k|; hence
        ||u'_k - u_k|| + ||f|| <= (1 + g(N + 1))^k ||f||, and the sweep is off
        by at most s B, s = g(right (N + 1)) for a window [left, right] of L
        steps. The Poisson mass S of the window is at least 1 - ``dropped``, so
        normalizing the mixture to the window moves the mean by at most dropped
        B. The mean is summed as a + sum of w_k (u'_k - a), a = u'_mode: with
        w_k = p_k / S that is the normalized mixture of the u'_k, and a
        constant sequence gives its constant exactly. Each w_k is within c =
        g(4 spread + 2) of p_k / S (see ``_poisson_window``) and |u'_k - a| <=
        (1 + 2s) B, so the weights add c (1 + 2s) B, the L rounded differences
        and products and their sum g(L + 1) (1 + c) (1 + 2s) B, and the last
        addition g(1) of the result: ``bound`` is B (e + g(1) (1 + e)), e =
        dropped + s + (c + g(L + 1) (1 + c)) (1 + 2s).
        """
        xs = [as_state(x) for x in starts]
        if len(times) == 0:
            return [[] for _ in xs]
        if not isinstance(self.flow, IdentityFlow):
            return [None] * len(xs)
        windows, steps, budget = self._plan(times)
        fits = xs
        orbit = self._orbit(xs, steps, budget)
        if orbit is None:  # each start on its own, as exact_laws decides
            fits = [x for x in xs if self._orbit(x, steps, budget) is not None]
            if not fits:
                return [None] * len(xs)
            # a start's orbit fits its budget, so the union fits their sum
            orbit = self._orbit(fits, steps, budget * len(fits))
        points, dst, mass = orbit
        rows = dict(zip(dict.fromkeys(fits), range(len(points))))
        support = np.array(points)
        scale = [1.0 if isinstance(f, Ball) else max(f.value_bound, abs(f.lower), abs(f.upper))
                 for f in functionals]
        # one vector: functional j at point i is entry i * width + j
        width = len(scale)
        u = np.array([f.contains(support) if isinstance(f, Ball) else [f(y) for y in points]
                      for f in functionals], dtype=float).T.ravel()
        dst = (dst[:, :, None] * width + np.arange(width)).reshape(len(dst), -1)
        mass = np.repeat(mass, width, axis=1)
        head = len(rows) * width
        swept = np.empty((steps + 1, head))
        for k in range(steps):
            swept[k] = u[:head]
            u = (mass * u[dst]).sum(0)
        swept[steps] = u[:head]
        at_t = []
        for t, (left, w, dropped, spread) in zip(times, windows):
            right = left + len(w) - 1
            s = _gamma(right * (len(self.maps) + 1))
            c = _gamma(4 * spread + 2)
            e = dropped + s + (c + _gamma(len(w) + 1) * (1.0 + c)) * (1.0 + 2.0 * s)
            bound = e + _gamma(1) * (1.0 + e)
            a = swept[int(self.rate * t)]  # the mode of _poisson_window
            means = a + (np.array(w)[:, None] * (swept[left:right + 1] - a)).sum(0)
            means = means.reshape(len(rows), width).tolist()
            at_t.append([[(v, bound * b) for v, b in zip(row, scale)] for row in means])
        return [[by_start[rows[x]] for by_start in at_t] if x in rows else None for x in xs]

    def _plan(self, times) -> tuple:
        """``(windows, steps, budget)`` of a nonempty time grid: the
        ``_poisson_window`` of each time, the jumps the latest window
        reaches and a start's budget in point-steps."""
        windows = [_poisson_window(self.rate * as_time(t)) for t in times]
        steps = max(left + len(w) - 1 for left, w, _, _ in windows)
        return windows, steps, max(ORBIT_BUDGET,
                                   BREAK_EVEN_SAMPLES * JUMP_POINTS * self.rate * max(times))

    def _orbit(self, x, steps: int, budget: float):
        """``(points, dst, mass)``: the points within ``steps`` jumps of x,
        a start or a list of starts, the starts first, where map k takes
        point i to ``dst[k - 1, i]`` with mass ``mass[k - 1, i]``; None at a
        node whose running sums are not floats, or as soon as building and
        sweeping the points found would cost more than ``budget``
        point-steps. A first visit builds the point's memo node (see
        ``_node_at``).
        Absorbing points are self-loops; zero-mass maps and the points
        ``steps`` jumps away have self-loops of mass 0.
        """
        points = list(dict.fromkeys(x if isinstance(x, list) else [x]))
        room = (budget - SWEEP_STEP_POINTS * steps) // (steps + NODE_POINTS) - len(points)
        if room < 0:
            return None
        memo, absorbing = self._memo, self.absorbing
        n_maps = len(self.maps)
        index = {p: i for i, p in enumerate(points)}
        dst, mass = [], []
        frontier = list(points)
        for _ in range(steps):
            reached = []
            for p in frontier:
                i = index[p]
                if p in absorbing:
                    dst += [i] * n_maps
                    mass += [1.0] + [0.0] * (n_maps - 1)
                    continue
                cum, succ = memo.get(p) or self._node_at(p)
                below = 0.0
                for k in range(1, n_maps + 1):
                    top = cum[k]
                    if not isinstance(top, float):
                        return None
                    if top > 1.0:
                        top = 1.0
                    if top > below:
                        y = succ[k]
                        if y is None:
                            y = succ[k] = self.apply_map(k, p)
                        j = index.get(y)
                        if j is None:
                            if not room:
                                return None
                            room -= 1
                            j = index[y] = len(points)
                            points.append(y)
                            reached.append(y)
                        dst.append(j)
                        mass.append(top - below)
                        below = top
                    else:
                        dst.append(i)
                        mass.append(0.0)
            frontier = reached
            if not frontier:
                break
        for i in range(len(dst) // n_maps, len(points)):
            dst += [i] * n_maps
            mass += [0.0] * n_maps
        shape = (len(points), n_maps)
        return (points, np.array(dst, dtype=np.intp).reshape(shape).T.copy(),
                np.array(mass).reshape(shape).T.copy())

    def _node_at(self, x: float) -> tuple:
        """Memo node ``(cum, succ)`` of the point x; the memo keeps it when
        x != 0 and the memo has room.

        ``cum`` is ``_running_sums`` of ``prob_field(x)``, so
        ``bisect_right(cum, u)`` is the inline choice. ``succ[k]`` caches
        map k's output at the point, filled the first time map k is taken.
        """
        cum = self._running_sums(self.prob_field(x), x)
        node = cum, [None] * len(cum)
        memo = self._memo
        if x and len(memo) < MEMO_NODES:
            memo[x] = node
        return node

    def _running_sums(self, w, x: float) -> list:
        """The one rule for a probability vector w at the point x, in one
        pass over its items (an ndarray's are its ``tolist()``): raises
        ``ValueError`` on a vector of the wrong length, then on a negative
        weight, then on a sum off 1, and else returns [0.0] followed by the
        running sums ``acc += p``, with +inf from the last map of positive
        weight on. The sums are the jump loop's inline ones, so a uniform u
        in [0, 1) gives the inline choice as ``bisect_right(cum, u)``: the
        first map whose running sum exceeds u, or that last map when float
        slack leaves u above the sum.
        """
        if isinstance(w, np.ndarray):
            w = w.tolist()
        if len(w) != len(self.maps):
            raise ValueError(f"prob_field returned {len(w)} weights for "
                             f"{len(self.maps)} maps at x={x!r}")
        cum = [0.0]
        acc = 0.0
        last = 0
        for k, p in enumerate(w, 1):
            if p < 0.0:
                raise ValueError(
                    f"negative selection probability {p!r} at x={x!r} in model {self.name!r}")
            acc += p
            cum.append(acc)
            if p > 0.0:
                last = k
        if not (1.0 - PROB_SUM_TOL <= acc <= 1.0 + PROB_SUM_TOL):
            raise ValueError(
                f"selection probabilities sum to {acc!r} at x={x!r} in model {self.name!r}")
        cum[last:] = [math.inf] * (len(cum) - last)
        return cum

    def _weights(self, x: float) -> list:
        """Selection probabilities ``prob_field(x)`` for the audits, checked
        by ``_running_sums``; an ndarray's items become Python floats."""
        w = self.prob_field(x)
        if isinstance(w, np.ndarray):
            w = w.tolist()
        self._running_sums(w, x)
        return list(w)

    def _invalid_flow(self, s: float, x: float, y: float) -> RuntimeError:
        name = getattr(self.flow, "__qualname__", None) or repr(self.flow)
        return RuntimeError(f"flow {name} of model {self.name!r} produced invalid "
                            f"state {y!r} from x={x!r} after time {s!r}")

    @staticmethod
    def state_label(x0: float) -> str:
        return f"{x0:g}"


def sample_jump_chains(model: IfsModel, x: float, horizon: float, streams):
    """Sample one trajectory from x per stream, recording every jump up to
    the horizon, and yield each one's records in stream order: one jump
    loop serves them all, as ``IfsModel.terminal_states_from`` serves a
    Monte Carlo cell, and reads the streams as it does.

    Waiting times are i.i.d. exponential with the model rate, drawn by
    inverse CDF; the map index at each jump is drawn from the selection
    probabilities at the pre-jump point. Jumps keep being recorded at
    absorbing points.

    A trajectory's records are ``(tau, xi, index, phi)``: its jump times as
    a float64 array, and lists of its pre-jump points (Python floats), map
    indices (1-based ints) and post-jump points (Python floats). Where the
    memo serves a jump, its points are the memo's float objects, so on a
    model that revisits its points (halving) a list of them takes no more
    memory than an array.
    """
    horizon = as_time(horizon, "horizon")
    return _handed_over(model._jump_loop(as_state(x), horizon, streams, (), True), model.flow)


def _handed_over(records, flow):
    """The jump loop's ``records`` as ``sample_jump_chains`` gives them.

    Each list is copied at its exact size: grown by appends, it has up to an
    eighth spare, which a whole table's lists would hold. The loop's own
    lists are let go before the loop grows the next trajectory's, so those
    reuse their memory; held longer, they leave holes that later tables do
    not fill. Either way about 0.2 MB of resident memory over 80 000 jumps.
    """
    # a flow other than these two is called by the loop, and the pre-jump
    # points are what it returned: floats of another type become Python floats
    called = not isinstance(flow, IdentityFlow) and type(flow) is not ExponentialFlow
    for tau, xi, index, phi in records:
        copy = (np.fromiter(tau, float, len(tau)),
                np.fromiter(xi, float, len(xi)).tolist() if called else xi[:], index[:], phi[:])
        del tau, xi, index, phi
        yield copy


def _gamma(n: int) -> float:
    """Higham's gamma_n: the relative error bound of n rounded operations."""
    return n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)


def _poisson_tail(lam: float, a: int) -> float:
    """Chernoff bound on P(N >= a), a > lam, or P(N <= a), a < lam, for
    N ~ Poisson(lam), its exponent raised past its rounding."""
    expo = -lam if a == 0 else a - lam - a * math.log(a / lam)
    return math.exp(expo + 1e-12 * (lam + a))


@lru_cache(maxsize=256)
def _poisson_window(lam: float) -> tuple:
    """``(left, weights, dropped, spread)``: weights[i] of ``left + i``
    jumps on the window where Chernoff's bound on each tail reaches
    ``TAIL_MASS``, a bound on the Poisson mass outside it, and the most
    recurrence steps from the mode. As in Fox and Glynn (CACM 1988) the
    pmf's ratio recurrence runs outward from the mode (2 roundings a step)
    and the weights are divided by their sum: no tail is taken as 1 minus
    a sum, which cancels to 0 for large lam.
    """
    if lam == 0.0:
        return 0, (1.0,), 0.0, 0
    mode = right = left = int(lam)
    while _poisson_tail(lam, right + 1) > TAIL_MASS:
        right += 1
    while left and _poisson_tail(lam, left - 1) > TAIL_MASS:
        left -= 1
    dropped = _poisson_tail(lam, right + 1) + (_poisson_tail(lam, left - 1) if left else 0.0)
    w = [0.0] * (right - left + 1)
    w[mode - left] = 1.0
    for k in range(mode + 1, right + 1):
        w[k - left] = w[k - left - 1] * lam / k
    for k in range(mode - 1, left - 1, -1):
        w[k - left] = w[k - left + 1] * (k + 1) / lam
    total = math.fsum(w)
    return left, tuple(v / total for v in w), dropped, max(right - mode, mode - left)


# ---------------------------------------------------------------------------
# built-in models


def _flip_kill(x: float) -> float:
    return 0.0


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
    probability gap and ``alpha`` the flow expansion rate; the jump rate is
    the model's own. ``m_start``, ``eta`` and ``gamma`` parametrize the
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
        maps=(_flip_kill, _stay, _flip_invert),
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
    # stack entries: (1-based prefix letters, running product over prefixes 0..len-1)
    stack = [((), base)]
    while stack:
        prefix, running = stack.pop()
        if running <= best and best > 0.0:
            continue
        depth = len(prefix) + 1  # prefixes consumed so far
        for letter in range(N, 0, -1):
            # point of the extended prefix: newest letter applied first
            pt = model.apply_map(letter, x)
            for idx in reversed(prefix):
                pt = model.apply_map(idx, pt)
            prod = running * coeff(pt)
            if depth == n - 1:
                if prod > best:
                    best = prod
            elif prod > best:
                stack.append((prefix + (letter,), prod))
    return best
