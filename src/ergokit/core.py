"""State space primitives: test functions, discrete measures, and the
bounded-Lipschitz (Fortet-Mourier) distance.

The state space is a subset of the nonnegative reals with the absolute-value
metric, which keeps every quantity in this package exactly computable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Union

import numpy as np

WEIGHT_TOL = 1e-12


def as_state(x: float) -> float:
    """Validate a candidate state point (finite, nonnegative)."""
    v = float(x)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"state point must be a finite nonnegative real, got {x!r}")
    return v


def as_time(t: float, name: str = "time") -> float:
    """Validate a time as ``float(t)`` (finite, nonnegative); the error names ``name``."""
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"{name} must be a finite nonnegative real, got {t!r}")
    return t


@dataclass(frozen=True)
class TestFunction:
    """A bounded Lipschitz observable with declared metadata.

    ``sup_bound`` and ``lip_const`` are declared by the constructor and
    trusted, not checked against the evaluator. ``lower``/``upper`` give the
    tightest known value range; they default to ``[-sup_bound, sup_bound]``
    and are what Monte Carlo confidence widths are based on.
    """

    evaluator: Callable[[float], float]
    sup_bound: float
    lip_const: float
    lower: float = field(default=None)  # type: ignore[assignment]
    upper: float = field(default=None)  # type: ignore[assignment]
    name: str = "f"

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self) -> None:
        if not (self.sup_bound > 0.0 and math.isfinite(self.sup_bound)):
            raise ValueError("sup_bound must be a positive real")
        if self.lip_const < 0.0 or not math.isfinite(self.lip_const):
            raise ValueError("lip_const must be a nonnegative real")
        if self.lower is None:
            object.__setattr__(self, "lower", -self.sup_bound)
        if self.upper is None:
            object.__setattr__(self, "upper", self.sup_bound)
        if not (-self.sup_bound <= self.lower <= self.upper <= self.sup_bound):
            raise ValueError("value range must sit inside [-sup_bound, sup_bound]")

    def __call__(self, x: float) -> float:
        return self.evaluator(x)

    @property
    def value_bound(self) -> float:
        """Width of the declared value range (Hoeffding range parameter)."""
        return self.upper - self.lower


def _with_array(f: TestFunction, array: Callable) -> TestFunction:
    """f carrying ``array``: its evaluator applied to a float64 array of
    states at once with the same IEEE operations, returning None where the
    evaluator raises or warns. Only for Python float parameters, whose
    operations with a state are the array's. Not a field: equality and
    the public surface stay those of f."""
    object.__setattr__(f, "_array", array)
    return f


def _eval_xmin1(x: float) -> float:
    return x if x < 1.0 else 1.0


def _array_xmin1(x: np.ndarray) -> np.ndarray:
    return np.where(x < 1.0, x, 1.0)


def _eval_const(x: float, c: float) -> float:
    return c


def _array_const(x: np.ndarray, c: float) -> np.ndarray:
    return np.full(len(x), c)


def xmin1() -> TestFunction:
    """The observable min(x, 1), the canonical sensitivity probe."""
    return _with_array(TestFunction(_eval_xmin1, sup_bound=1.0, lip_const=1.0, lower=0.0,
                                    upper=1.0, name="xmin1"), _array_xmin1)


def constant(c: float = 1.0) -> TestFunction:
    b = max(abs(c), 1e-300)
    f = TestFunction(partial(_eval_const, c=c), sup_bound=b, lip_const=0.0,
                     lower=c, upper=c, name=f"const({c:g})")
    return _with_array(f, partial(_array_const, c=c)) if type(c) is float else f


@dataclass(frozen=True)
class Ball:
    """Open ball ``{x : |x - center| < radius}`` in the half-line metric."""

    center: float
    radius: float

    def __post_init__(self) -> None:
        as_state(self.center)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    def contains(self, x):
        """The one hit rule: a float, or a float array elementwise, by the same IEEE operations."""
        return abs(x - self.center) < self.radius

    @property
    def label(self) -> str:
        return f"ball({self.center:g},{self.radius:g})"


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Probability measure with finite support, stored in ascending order."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        if support.ndim != 1 or support.shape != weights.shape or support.size == 0:
            raise ValueError("support and weights must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(support)) or np.any(support < 0.0):
            raise ValueError("support must consist of finite nonnegative reals")
        if support.size > 1 and not np.all(np.diff(support) > 0.0):
            raise ValueError("support must be strictly ascending")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(weights)) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}")
        support.setflags(write=False)
        weights.setflags(write=False)

    @staticmethod
    def point_mass(x: float) -> "EmpiricalMeasure":
        return EmpiricalMeasure(np.array([as_state(x)]), np.array([1.0]))

    @staticmethod
    def from_samples(values: Iterable[float]) -> "EmpiricalMeasure":
        """Empirical distribution of a sample; duplicates are merged."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot build a measure from an empty sample")
        support, counts = np.unique(arr, return_counts=True)
        return EmpiricalMeasure(support, counts / arr.size)


def _merged_signed_weights(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    support = np.concatenate([mu.support, nu.support])
    signed = np.concatenate([mu.weights, -nu.weights])
    merged, inverse = np.unique(support, return_inverse=True)
    d = np.zeros(merged.size)
    np.add.at(d, inverse, signed)
    return merged, d


def _max_signed_pairing(support: np.ndarray, d: np.ndarray) -> float:
    # Maximize sum_i d_i f_i subject to |f_i| <= 1 and
    # |f_{i+1} - f_i| <= support_{i+1} - support_i. On a line the adjacent
    # slope constraints imply all pairwise ones, so this value is the exact
    # supremum over 1-bounded 1-Lipschitz functions.
    #
    # Dynamic programme over the support: V(phi) is the best partial sum
    # with f_i = phi, a concave piecewise-linear function on [-1, 1]. It is
    # held as its peak plateau [pa, pb] with value `peak`, plus two deques of
    # (length, slope) segments, `left` and `right`, each ordered from the
    # peak outward. Every stored slope is read as slope + `offset`, so
    # adding d_i * phi to V adds d_i to `offset` instead of touching each
    # segment; left slopes read >= 0 and right slopes <= 0. One step is:
    #   * sliding max over |phi' - phi| <= delta: the plateau widens by
    #     delta on each side, the segments shift outward unchanged;
    #   * clipping back to [-1, 1]: delta of length is trimmed from the
    #     outer end of each deque (all of it once the plateau reaches +-1);
    #   * adding d_i * phi: the plateau becomes a segment of slope d_i on
    #     the side the peak moves away from, and the segments whose slope
    #     changes sign move across, until the peak sits where slope is zero.
    # Each step adds at most one segment, clipping drops whole segments,
    # and a move costs O(1). The inputs are read through memoryviews, one
    # Python float at a time, so the deques are the only per-call buffers.
    left: deque = deque()
    right: deque = deque()
    pa, pb, peak, offset = -1.0, 1.0, 0.0, 0.0
    prev = float(support[0])
    for x, di in zip(memoryview(support), memoryview(d)):
        delta = x - prev
        prev = x
        pa -= delta
        if pa <= -1.0:
            pa = -1.0
            left.clear()
        else:
            trim = delta
            while left:
                length, slope = left[-1]
                if length > trim:
                    left[-1] = (length - trim, slope)
                    break
                trim -= length
                left.pop()
        pb += delta
        if pb >= 1.0:
            pb = 1.0
            right.clear()
        else:
            trim = delta
            while right:
                length, slope = right[-1]
                if length > trim:
                    right[-1] = (length - trim, slope)
                    break
                trim -= length
                right.pop()
        if di > 0.0:
            if pb > pa:
                left.appendleft((pb - pa, -offset))
            offset += di
            peak += di * pb
            pa = pb
            while right:
                length, slope = right[0]
                rise = slope + offset
                if rise < 0.0:
                    break
                right.popleft()
                pb += length
                if rise > 0.0:
                    left.appendleft((length, slope))
                    peak += length * rise
                    pa = pb
        elif di < 0.0:
            if pb > pa:
                right.appendleft((pb - pa, -offset))
            offset += di
            peak += di * pa
            pb = pa
            while left:
                length, slope = left[0]
                rise = slope + offset
                if rise > 0.0:
                    break
                left.popleft()
                pa -= length
                if rise < 0.0:
                    right.appendleft((length, slope))
                    peak -= length * rise
                    pb = pa
    return peak


def bl_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Bounded-Lipschitz distance between two discrete measures.

    Supremum of ``|<f, mu> - <f, nu>|`` over functions with sup-norm at most 1
    and Lipschitz constant at most 1. Computed exactly on the merged support;
    always in ``[0, 2]``, and equal to ``min(2, |x - y|)`` for point masses.

    The value comes from a dynamic programme over the merged support that
    keeps the concave value function as a peak plateau plus two deques of
    (length, slope) segments under one shared slope offset. A support point
    costs O(1) pure-Python work plus one step per segment that crosses the
    peak. A segment crosses only when the running sum of the signed weights
    passes the level at which the segment was made, which is rare for the
    laws of sampled measures: there n support points cost amortized O(n).
    """
    support, d = _merged_signed_weights(mu, nu)
    if not np.any(d):
        return 0.0
    if support.size == 1:
        return 0.0
    value = _max_signed_pairing(support, d)
    return min(max(value, 0.0), 2.0)


def _eval_bump(y: float, lo: float, hi: float, quarter: float) -> float:
    # distance from y to the closed core [lo, hi]
    d_core = max(0.0, lo - y, y - hi)
    # distance from y to the complement (within the half-line) of the open
    # enlargement (lo - quarter, hi + quarter)
    a = lo - quarter
    b = hi + quarter
    d_right = max(0.0, b - y)
    if a >= 0.0:
        d_comp = min(max(0.0, y - a), d_right)
    else:
        d_comp = d_right
    return d_comp / (d_comp + d_core)


def _first_max(a, b):
    return np.where(b > a, b, a)


def _array_bump(y: np.ndarray, lo: float, hi: float, quarter: float):
    """``_eval_bump`` on an array, or None if a denominator is 0 (where
    the scalar form raises) or overflows (where it warns). Python's
    max and min return the first of equal arguments and a later one only
    if it compares strictly larger (smaller), which ``_first_max`` and the
    ``where`` for the min repeat; np.maximum may differ on -0.0 and nan."""
    d_core = _first_max(_first_max(0.0, lo - y), y - hi)
    a = lo - quarter
    b = hi + quarter
    d_right = _first_max(0.0, b - y)
    if a >= 0.0:
        d_left = _first_max(0.0, y - a)
        d_comp = np.where(d_right < d_left, d_right, d_left)
    else:
        d_comp = d_right
    den = d_comp + d_core
    return d_comp / den if np.all((den > 0.0) & (den < math.inf)) else None


def bump_function(region: Union[Ball, tuple], eps: float) -> TestFunction:
    """Continuous indicator surrogate: 1 on the region, 0 off its eps/4 collar.

    The value at ``y`` is ``d(y, C) / (d(y, C) + d(y, K))`` where ``K`` is the
    region and ``C`` the complement of its ``eps/4`` enlargement, so the output
    is 1 on ``K``, vanishes outside the enlargement, and has Lipschitz constant
    at most ``4 / eps``.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if isinstance(region, Ball):
        lo, hi = max(0.0, region.center - region.radius), region.center + region.radius
    else:
        lo, hi = float(region[0]), float(region[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"empty or invalid interval {region!r}")
        lo = as_state(lo)
    quarter = eps / 4.0
    f = TestFunction(
        partial(_eval_bump, lo=lo, hi=hi, quarter=quarter),
        sup_bound=1.0,
        lip_const=4.0 / eps,
        lower=0.0,
        upper=1.0,
        name=f"bump([{lo:g},{hi:g}],{eps:g})",
    )
    if type(lo) is type(hi) is type(quarter) is float:
        f = _with_array(f, partial(_array_bump, lo=lo, hi=hi, quarter=quarter))
    return f
