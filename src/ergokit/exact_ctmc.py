"""Closed-form continuous-time chain on {0} + {1/n : n >= 2} + {n : n >= 2}.

For each n >= 2 the states 1/n and n form a two-step cascade into the
absorbing state 0, with mean-n exponential holding times at both live
states. The transition probabilities are available in closed form:

    p(0 -> 0)     = 1
    p(1/n -> 1/n) = exp(-t/n)          p(1/n -> n) = (t/n) exp(-t/n)
    p(n -> n)     = exp(-t/n)          p(n -> 0)   = 1 - exp(-t/n)
    p(1/n -> 0)   = the complement of the two entries above

and every other pair has probability 0. The closed form is the chain's
reference, evaluated without cancellation (1 - e^{-s} as ``-expm1(-s)``,
and for s < 1 the complement as a positive series), each computed entry
with a bound on its rounding (``transition_bound``, ``semigroup_bound``).
The exact rows of the diagnostics come from the jump-system sweep, which
counts its truncation and rounding (``CtmcProcess.exact_laws``).

The chain converges to the point mass at 0 from every start, yet the gap
``P_t f(1/n) - P_t f(0)`` evaluated at t = n equals ``exp(-1) (1 + 1/n)``
for f = min(x, 1), which stays above ``exp(-1)`` however large n is. Plain
equicontinuity of the family therefore fails at 0, while for each fixed
starting point the gap still dies out as t grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .core import TestFunction, _gamma, as_time

__all__ = [
    "CtmcState",
    "CtmcProcess",
    "transition_prob",
    "transition_bound",
    "semigroup_apply",
    "semigroup_bound",
    "sample_path",
    "chapman_kolmogorov_residual",
    "parse_ctmc_state",
]

_ZERO, _LOW, _HIGH = "zero", "low", "high"
_U, _ETA = 2.0 ** -53, 2.0 ** -1074  # unit roundoff, smallest subnormal


@dataclass(frozen=True)
class CtmcState:
    """Tagged chain state; tags keep 1/n exact instead of a rounded float."""

    kind: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (_ZERO, _LOW, _HIGH):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.kind == _ZERO:
            if self.n != 0:
                raise ValueError("the absorbing state carries no level index")
        elif self.n < 2:
            raise ValueError("level index n must be an integer >= 2")

    @staticmethod
    def zero() -> "CtmcState":
        return CtmcState(_ZERO)

    @staticmethod
    def low(n: int) -> "CtmcState":
        return CtmcState(_LOW, int(n))

    @staticmethod
    def high(n: int) -> "CtmcState":
        return CtmcState(_HIGH, int(n))

    @property
    def value(self) -> float:
        """Embedding into the half-line: 0, 1/n, or n."""
        if self.kind == _ZERO:
            return 0.0
        if self.kind == _LOW:
            return 1.0 / self.n
        return float(self.n)

    def __str__(self) -> str:
        if self.kind == _ZERO:
            return "zero"
        return f"{self.kind}:{self.n}"


def parse_ctmc_state(token: str) -> CtmcState:
    """Parse 'zero', 'low:N' or 'high:N'."""
    t = token.strip().lower()
    if t in ("zero", "0"):
        return CtmcState.zero()
    if ":" in t:
        kind, _, num = t.partition(":")
        if kind in (_LOW, _HIGH):
            return CtmcState(kind, int(num))
    raise ValueError(f"cannot parse chain state {token!r} (expected zero, low:N or high:N)")


def _law(i: CtmcState, t: float) -> tuple:
    """The time-t law from i: its reachable ``(state, probability,
    half_width)`` triples in cascade order, so the state after k jumps is
    entry k; the widths are derived in ``transition_bound``."""
    t = as_time(t)
    zero = CtmcState.zero()
    if i.kind == _ZERO:
        return ((zero, 1.0, 0.0),)
    s = t / i.n
    decay = math.exp(-s)
    gone = -math.expm1(-s)
    # past s ~ 746 decay is 0, and a relative width of it does not matter
    widths = [math.expm1(min(_gamma(4) * (1.0 + s), 1.0)) * decay + 2.0 * _ETA,
              _gamma(5) * gone + 3.0 * _ETA]
    if i.kind == _HIGH:
        law = ((i, decay), (zero, gone))
    else:
        hop = s * decay
        widths.insert(1, math.expm1(min(_gamma(8) * (1.0 + s), 1.0)) * hop
                      + (2.0 + 2.0 * s) * _ETA)
        if s < 1.0:
            term, tail, k = s * s / 2.0, 0.0, 2
            while term > _U * tail:
                tail += term
                k += 1
                term = term * s / k
            dead = decay * tail
            widths[2] = _gamma(3 * k + 8) * dead + (k + 3) * _ETA
        else:
            dead = gone - hop
            widths[2] += widths[1] + _gamma(2) * dead
        law = ((i, decay), (CtmcState.high(i.n), hop), (zero, dead))
    return tuple((j, p, w if t else 0.0) for (j, p), w in zip(law, widths))


def transition_prob(i: CtmcState, j: CtmcState, t: float) -> float:
    return transition_bound(i, j, t)[0]


def transition_bound(i: CtmcState, j: CtmcState, t: float) -> tuple:
    """``(P_t(i -> j), half_width)``: the closed form as computed and a bound
    on its distance to the true probability, 0 only where the entry is
    exact (t = 0, a start at zero, an unreachable j).

    With u = 2**-53, eta = 2**-1074 and g(k) Higham's gamma_k, each
    operation rounds by a relative u, and where its result is subnormal by
    at most eta/2 instead; ``exp`` and ``expm1`` are taken to be within one
    ulp (glibc's documented bound): a relative 2u, or eta. Then s = t/n is
    s(1 + a) + b, |a| <= g(2), |b| <= eta/2, and every entry below moves by
    at most |s' - s| times its derivative in s, which is at most 1 (at
    most 2 times the entry, relatively, for the complement q).

    * e^{-s}: the relative error is at most (2u + e^{g(2) s} - 1)/(1 - 2u)
      <= expm1(g(4)(1 + s)), plus 2 eta for b and underflow.
    * 1 - e^{-s} = ``-expm1(-s)``, concave with value 0 at 0, so a relative
      error a of s moves it by at most a relatively: g(4) in all, g(5)
      relative to the computed value, plus 3 eta.
    * s e^{-s}, one product: the two errors above and one rounding make
      expm1(g(8)(1 + s)), plus (2 + 2s) eta, as s scales e^{-s}'s eta.
    * q = 1 - e^{-s}(1 + s). For s < 1, q = e^{-s} times the sum over
      j >= 2 of s^j/j!, summed while the next term exceeds u times the
      sum (the rest is then below twice that, as s/j < 1/2). Term j takes
      2j - 3 roundings and the sum of the k - 2 terms k - 3 more; with the
      rest, the factor e^{-s}, the last product and the error of s (q's
      relative condition s^2 e^{-s}/q is at most 2) that is under
      g(3k + 8), plus (k + 3) eta for the terms that underflow. For s >= 1,
      q = (1 - e^{-s}) - s e^{-s}, at least 1 - 2/e, and the error is at
      most the two widths above plus one rounding of q.

    Each width is itself computed with a few roundings, which the spare
    terms of each gamma cover.
    """
    for state, p, width in _law(i, t):
        if state == j:
            return p, width
    return 0.0, 0.0


def _reachable(i: CtmcState) -> tuple[CtmcState, ...]:
    return tuple(j for j, _, _ in _law(i, 0.0))


def semigroup_apply(f: Union[TestFunction, Callable[[float], float]], i: CtmcState, t: float) -> float:
    """Exact expectation of f at time t from state i (at most three terms)."""
    return sum(p * f(j.value) for j, p, _ in _law(i, t))


def semigroup_bound(f: Union[TestFunction, Callable[[float], float]], i: CtmcState,
                    t: float) -> tuple:
    """``(semigroup_apply(f, i, t), half_width)``: the half-width bounds the
    distance to the mean, under the true law, of f's values as computed at
    the states' floats (the sweep's rows mean the same). With m terms y_j =
    f(x_j) and probabilities p_j within w_j, it is the sum of w_j |y_j|,
    plus g(m + 1) times the sum of |p_j y_j| for the m products and their
    sum (Python's ``sum`` of floats adds left to right, or since 3.12 with
    compensation, which is no worse), plus m eta for products that
    underflow; 0 where every w_j is (t = 0 or a start at zero)."""
    law = [(p, width, f(j.value)) for j, p, width in _law(i, t)]
    value = sum(p * y for p, _, y in law)
    if not any(width for _, width, _ in law):
        return value, 0.0
    return value, (sum(width * abs(y) for _, width, y in law)
                   + _gamma(len(law) + 1) * sum(abs(p * y) for p, _, y in law)
                   + len(law) * _ETA)


def _invert(x: float) -> float:
    # from 1/n, onto n itself: 1.0 / (1.0 / n) misses it for some n, 49 the first
    return float(round(1.0 / x))


def _jump_field(x: float) -> tuple:
    return (0.0, 1.0 - 2.0 * x, 2.0 * x) if x < 1.0 else (2.0 / x, 1.0 - 2.0 / x, 0.0)


@lru_cache(maxsize=None)
def _jump_system():
    """The chain as kill, stay or invert at rate 1/2: from 1/n invert with
    chance 2/n, from n kill with chance 2/n. Built on first use, so that
    sampling the chain does not import ``ifs_jump``."""
    from .ifs_jump import IfsModel, _flip_kill, _stay

    return IfsModel(name="ctmc", maps=(_flip_kill, _stay, _invert), prob_field=_jump_field,
                    rate=0.5, absorbing=(0.0,))


def _jumps(i: CtmcState, t: float, draw: Callable[[], float]) -> int:
    """Jumps made by time t > 0 along the cascade from the live state i.

    Holding times at the live states 1/n and n are exponential with mean n,
    drawn by inverse CDF from ``draw()``, one uniform per holding time and
    only when it is needed. The state reached is ``_reachable(i)[jumps]``.
    """
    n = i.n
    hold1 = -n * math.log1p(-draw())
    if hold1 > t:
        return 0
    if i.kind == _HIGH:
        return 1
    hold2 = -n * math.log1p(-draw())
    return 1 if hold1 + hold2 > t else 2


def sample_path(i: CtmcState, t: float, stream: np.random.Generator) -> CtmcState:
    """State occupied at time t along one sampled trajectory from i.

    Each holding time takes one ``stream.random()`` call, so the draw count
    and values are reproducible for a given stream.
    """
    t = as_time(t)
    if i.kind == _ZERO or t == 0.0:
        return i
    return _reachable(i)[_jumps(i, t, stream.random)]


def _matrix(n: int, t: float) -> np.ndarray:
    """Transition matrix of the n-cascade on states (1/n, n, 0)."""
    states = (CtmcState.low(n), CtmcState.high(n), CtmcState.zero())
    return np.array([[transition_prob(a, b, t) for b in states] for a in states])


def chapman_kolmogorov_residual(n: int, s: float, t: float) -> float:
    """Max absolute entry of P(s+t) - P(s) P(t) on one n-cascade."""
    if n < 2:
        raise ValueError("level index n must be >= 2")
    s = as_time(s)
    t = as_time(t)
    return float(np.max(np.abs(_matrix(n, s + t) - _matrix(n, s) @ _matrix(n, t))))


@dataclass(frozen=True)
class CtmcProcess:
    """Process handle used by the Monte Carlo and diagnostics layers: its
    trajectories, the closed-form ``exact_expectation``, and ``exact_laws``
    and ``exact_means`` from the sweep, for estimation or exact evaluation."""

    name: str = "ctmc"
    # uniforms per trajectory that terminal_states reads (at most two holding times)
    batch_draws = 2

    def terminal_states(self, x0: CtmcState, t: float, uniforms: np.ndarray) -> np.ndarray:
        """State at time t of one trajectory from x0 per row of uniforms.

        Row k holds the first ``batch_draws`` uniforms of trajectory k's
        stream; the cascade reads them in order, exactly as ``sample_path``
        draws them, so each value equals ``sample_path(x0, t, stream).value``
        on that stream.
        The holding times of all rows are computed as arrays, with numpy's
        ``log1p``, which can differ from ``math.log1p`` by an ulp; a row
        whose first holding time, or sum of both, lies within a relative
        2**-40 of t (thousands of ulps) is therefore run through the scalar
        cascade again, so no row can fall on the other side of t. Errors
        come only from (x0, t), which every trajectory shares.
        """
        t = as_time(t)
        if x0.kind == _ZERO or t == 0.0:
            return np.full(len(uniforms), x0.value)
        scale = float(-x0.n)  # the conversion that -n * math.log1p(u) makes
        band = t * 2.0 ** -40
        hold = scale * np.log1p(-uniforms[:, 0])
        jumps = (hold <= t).astype(np.intp)
        near = np.abs(hold - t) <= band
        if x0.kind == _LOW:
            hold += scale * np.log1p(-uniforms[:, 1])
            jumps += hold <= t  # hold2 >= 0, so this needs hold1 <= t
            near |= np.abs(hold - t) <= band
        values = np.array([j.value for j in _reachable(x0)])
        out = values[jumps]
        for k in np.flatnonzero(near).tolist():
            out[k] = values[_jumps(x0, t, iter(uniforms[k].tolist()).__next__)]
        return out

    def exact_expectation(self, f, x0: CtmcState, t: float) -> float:
        return semigroup_apply(f, x0, t)

    def exact_laws(self, x0: CtmcState, times) -> Optional[list]:
        """``IfsModel.exact_laws`` of the chain's jump system from x0."""
        return _jump_system().exact_laws(x0.value, times)

    def exact_means(self, starts, times, functionals) -> list:
        """``IfsModel.exact_means`` of the chain's jump system."""
        return _jump_system().exact_means([x.value for x in starts], times, functionals)

    @staticmethod
    def state_label(x0: CtmcState) -> str:
        return str(x0)
