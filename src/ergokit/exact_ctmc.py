"""Closed-form continuous-time chain on {0} + {1/n : n >= 2} + {n : n >= 2}.

For each n >= 2 the states 1/n and n form a two-step cascade into the
absorbing state 0, with mean-n exponential holding times at both live
states. The transition probabilities are available in closed form:

    p(0 -> 0)     = 1
    p(1/n -> 1/n) = exp(-t/n)          p(1/n -> n) = (t/n) exp(-t/n)
    p(n -> n)     = exp(-t/n)          p(n -> 0)   = 1 - exp(-t/n)
    p(1/n -> 0)   = the complement of the two entries above

and every other pair has probability 0. The closed form makes this chain
the exact oracle for the Monte Carlo machinery: the same quantities can be
computed to machine precision and estimated by simulation.

The chain converges to the point mass at 0 from every start, yet the gap
``P_t f(1/n) - P_t f(0)`` evaluated at t = n equals ``exp(-1) (1 + 1/n)``
for f = min(x, 1), which stays above ``exp(-1)`` however large n is. Plain
equicontinuity of the family therefore fails at 0, while for each fixed
starting point the gap still dies out as t grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import EmpiricalMeasure, TestFunction

__all__ = [
    "CtmcState",
    "CtmcProcess",
    "transition_prob",
    "semigroup_apply",
    "sample_path",
    "chapman_kolmogorov_residual",
    "parse_ctmc_state",
]

_ZERO, _LOW, _HIGH = "zero", "low", "high"


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


def _check_time(t: float) -> float:
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be a finite nonnegative real, got {t!r}")
    return t


def transition_prob(i: CtmcState, j: CtmcState, t: float) -> float:
    t = _check_time(t)
    if i.kind == _ZERO:
        return 1.0 if j.kind == _ZERO else 0.0
    n = i.n
    decay = math.exp(-t / n)
    if i.kind == _LOW:
        if j == CtmcState.low(n):
            return decay
        if j == CtmcState.high(n):
            return (t / n) * decay
        if j.kind == _ZERO:
            return 1.0 - decay - (t / n) * decay
        return 0.0
    # i.kind == _HIGH
    if j == CtmcState.high(n):
        return decay
    if j.kind == _ZERO:
        return 1.0 - decay
    return 0.0


def _reachable(i: CtmcState) -> tuple[CtmcState, ...]:
    if i.kind == _ZERO:
        return (CtmcState.zero(),)
    if i.kind == _LOW:
        return (CtmcState.low(i.n), CtmcState.high(i.n), CtmcState.zero())
    return (CtmcState.high(i.n), CtmcState.zero())


def semigroup_apply(f: Union[TestFunction, Callable[[float], float]], i: CtmcState, t: float) -> float:
    """Exact expectation of f at time t from state i (at most three terms)."""
    t = _check_time(t)
    return sum(transition_prob(i, j, t) * f(j.value) for j in _reachable(i))


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
    t = _check_time(t)
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
    s = _check_time(s)
    t = _check_time(t)
    return float(np.max(np.abs(_matrix(n, s + t) - _matrix(n, s) @ _matrix(n, t))))


@dataclass(frozen=True)
class CtmcProcess:
    """Process handle used by the Monte Carlo and diagnostics layers.

    Exposes trajectory sampling plus the exact closed-form quantities, so
    callers can choose estimation or exact evaluation.
    """

    name: str = "ctmc"
    # uniforms per trajectory that terminal_states reads (at most two holding times)
    batch_draws = 2

    def terminal_state(self, x0: CtmcState, t: float, stream: np.random.Generator) -> float:
        return sample_path(x0, t, stream).value

    def terminal_states(self, x0: CtmcState, t: float, uniforms: np.ndarray) -> list:
        """Batch form of ``terminal_state``, one trajectory per row of uniforms.

        Row k holds the first ``batch_draws`` uniforms of trajectory k's
        stream; the cascade reads them in order, exactly as ``sample_path``
        draws them, so each value equals ``terminal_state`` on that stream.
        Errors come only from (x0, t), which every trajectory shares.
        """
        t = _check_time(t)
        if x0.kind == _ZERO or t == 0.0:
            return [x0.value] * len(uniforms)
        values = [j.value for j in _reachable(x0)]
        return [values[_jumps(x0, t, iter(row).__next__)] for row in uniforms.tolist()]

    def exact_expectation(self, f, x0: CtmcState, t: float) -> float:
        return semigroup_apply(f, x0, t)

    def exact_law(self, x0: CtmcState, t: float) -> EmpiricalMeasure:
        """The time-t distribution from x0 as a discrete measure."""
        t = _check_time(t)
        pts = {j.value: transition_prob(x0, j, t) for j in _reachable(x0)}
        support = np.array(sorted(pts))
        return EmpiricalMeasure(support, np.array([pts[s] for s in support]))

    @staticmethod
    def state_label(x0: CtmcState) -> str:
        return str(x0)
