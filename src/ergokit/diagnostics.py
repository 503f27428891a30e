"""Computable surrogates for the ergodicity notions the built-in models probe.

Long-run quantities such as ``limsup`` or ``liminf`` over all times are not
computable; every diagnostic here replaces them by a max or min over an
explicit, user-declared large-time grid, and labels the window in its
output so the surrogate's scope is always visible. Monte Carlo rows carry
Hoeffding or bounded-difference half-widths; whenever a reported statistic
aggregates several estimated cells, the cell confidences are combined with
a union bound so the row's guarantee holds at the declared confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Ball, EmpiricalMeasure, TestFunction, bl_distance
from .exact_ctmc import CtmcProcess
from .ifs_jump import AssumptionSet, IfsModel, j_n
from .montecarlo import McSettings, _time_grid, hoeffding_half_width, run_batch, sample_cells

__all__ = [
    "McSettings",
    "ReportRow",
    "DiagnosticReport",
    "ec_profile",
    "eproperty_witness",
    "lower_bound_scan",
    "stability_report",
    "check_b2",
    "check_b3",
    "check_b5",
    "check_c2",
]


@dataclass(frozen=True)
class ReportRow:
    label: str
    x: str
    t: str
    value: float
    half_width: float
    error: Optional[str] = None


@dataclass
class DiagnosticReport:
    """Rows of one diagnostic; ``name`` is the diagnostic that made them."""

    name: str
    rows: list = field(default_factory=list)

    def add(self, label: str, x, t, value: float, half_width: float,
            error: Optional[str] = None) -> None:
        if half_width < 0.0:
            raise ValueError("half widths are nonnegative")
        self.rows.append(ReportRow(label, str(x), str(t), float(value),
                                   float(half_width), error))

    def values(self, label: Optional[str] = None) -> list:
        return [r.value for r in self.rows if label is None or r.label == label]

    def failed_rows(self) -> list:
        return [r for r in self.rows if r.error is not None]


def _is_exact(process) -> bool:
    return isinstance(process, CtmcProcess)


def _split_confidence(confidence: float, n_cells: int) -> float:
    """Per-cell confidence whose union bound meets the target confidence."""
    return 1.0 - (1.0 - confidence) / n_cells


def _difference_half_width(value_bound: float, n: int, confidence: float) -> float:
    """Hoeffding half-width for the difference of two independent n-means."""
    delta = 1.0 - confidence
    return value_bound * math.sqrt(math.log(2.0 / delta) / n)


def _mcdiarmid_half_width(n: int, confidence: float, n_empirical: int) -> float:
    """Bounded-difference half-width for a distance of 1 or 2 empirical laws
    around its own expectation (one sample swap moves the value by <= 2/n)."""
    delta = 1.0 - confidence
    return math.sqrt(2.0 * n_empirical * math.log(2.0 / delta) / n)


def _raise_failed(cells: list) -> list:
    """Per-cell results, unchanged; the first failed cell's message raises."""
    for result in cells:
        if isinstance(result, str):
            raise RuntimeError(result)
    return cells


def _means(process, f: Union[TestFunction, Ball], cells: list, mc: McSettings,
           confidence: float) -> list:
    """``(mean, half_width)`` of f at every ``(x, t)`` cell, in cell order.

    The mean of a ball is its hit probability. A test function's mean on a
    process with a closed form is exact, with width 0; every other mean is
    the ``run_batch`` estimate of its cell, with its Hoeffding half-width at
    ``confidence``. A failed cell yields its error message in place of the
    pair.
    """
    if _is_exact(process) and isinstance(f, TestFunction):
        return [(process.exact_expectation(f, x, t), 0.0) for x, t in cells]
    return [cell if isinstance(cell, str) else (cell[0].mean, cell[0].half_width)
            for cell in run_batch(process, cells, (f,), mc, confidence)]


def _anchor(z) -> float:
    """Position of an anchor given as a chain state or a point."""
    return z.value if hasattr(z, "value") else float(z)


def _window_label(lo: float, hi: float) -> str:
    return f"[{lo:g},{hi:g}]"


# ---------------------------------------------------------------------------
# eventual-continuity profile


def ec_profile(process, f: TestFunction, z, xs: Sequence, T: float, t_max: float,
               grid: Sequence[float], mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Largest time-t expectation gap between each x and the anchor z over a
    late-time window.

    For each x the reported value is ``max over grid of |P_t f(x) - P_t f(z)|``
    with the grid inside ``[T, t_max]``. Values that shrink as x approaches z
    are evidence of insensitivity to the initial condition at z; the window
    makes the late-time surrogate explicit. Exact closed forms are used for
    the built-in chain, Monte Carlo otherwise.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("grid empty")
    if not (0.0 <= T <= t_max):
        raise ValueError("window must satisfy 0 <= T <= t_max")
    if grid[0] < T or grid[-1] > t_max:
        raise ValueError("grid must lie inside the window [T, t_max]")
    _time_grid(grid)  # a nan time passes the window comparisons
    mc = mc or McSettings()
    # cells are read by grid position: distinct starts may share a label
    cells = list(product(tuple(xs) + (z,), grid))
    means = _raise_failed(_means(process, f, cells, mc,
                                 _split_confidence(mc.confidence, len(cells))))
    n_t = len(grid)
    z_row = means[len(xs) * n_t:]
    window = _window_label(T, t_max)
    report = DiagnosticReport("ec_profile")
    for i, x in enumerate(xs):
        gap, hw = 0.0, 0.0
        for (mx, hx), (mz, hz) in zip(means[i * n_t:(i + 1) * n_t], z_row):
            gap = max(gap, abs(mx - mz))
            hw = max(hw, hx + hz)
        report.add("ec_gap_max", process.state_label(x), window, gap, hw)
    return report


# ---------------------------------------------------------------------------
# equicontinuity-failure witness


def eproperty_witness(process, f: TestFunction, z, pairs: Sequence,
                      mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Expectation gaps ``P_t f(x) - P_t f(z)`` along a list of (x, t) pairs.

    A sequence of pairs with x -> z whose gap stays above a positive floor
    witnesses that the expectation family is not equicontinuous at z, no
    matter how it behaves for each fixed time.
    """
    if not pairs:
        raise ValueError("need at least one (x, t) pair")
    _time_grid([t for _, t in pairs])
    mc = mc or McSettings()
    # cells 2k and 2k+1 hold the k-th pair's start and the anchor
    cells = [c for x, t in pairs for c in ((x, t), (z, t))]
    means = _raise_failed(_means(process, f, cells, mc, mc.confidence))
    # exact pairs have width 0; a sampled pair has the two-sample bound
    hw = _difference_half_width(f.value_bound, mc.n_samples, mc.confidence)
    report = DiagnosticReport("eproperty_witness")
    for k, (x, t) in enumerate(pairs):
        (mx, hx), (mz, _) = means[2 * k], means[2 * k + 1]
        report.add("witness", process.state_label(x), f"{t:g}", mx - mz, hw if hx else 0.0)
    return report


# ---------------------------------------------------------------------------
# long-run neighborhood hit floor


def lower_bound_scan(process, z, eps: float, x_grid: Sequence, t_grid: Sequence[float],
                     mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Worst late-time probability of sitting near the anchor, over a start grid.

    Reports ``m(x) = min over t_grid of P_t(x, B(z, eps))`` for each start x
    and the scan minimum over x. A scan minimum whose lower confidence
    endpoint stays positive supports the hit-probability floor needed for
    stability; the floor claim is only as strong as the declared grids.
    """
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    t_grid = sorted(_time_grid(t_grid))
    if not x_grid:
        raise ValueError("x grid empty")
    mc = mc or McSettings()
    cells = list(product(x_grid, t_grid))
    means = _means(process, Ball(_anchor(z), eps), cells, mc,
                   _split_confidence(mc.confidence, len(cells)))

    report = DiagnosticReport("lower_bound_scan")
    # keyed by position in x_grid: distinct starts may share a label
    by_initial: dict = {}
    failures = []
    for c, ((x, t), cell) in enumerate(zip(cells, means)):
        if isinstance(cell, str):
            failures.append((x, t, cell))
            continue
        m, hw = cell
        i = c // len(t_grid)
        if i not in by_initial or m < by_initial[i][0]:
            by_initial[i] = (m, t, hw)
    for i, x in enumerate(x_grid):
        if i in by_initial:
            m, t_at, hw = by_initial[i]
            report.add("hit_prob_min", process.state_label(x), f"{t_at:g}", m, hw)
    for x, t, error in failures:
        report.add("hit_prob_min", process.state_label(x), f"{t:g}", math.nan, 0.0,
                   error=error)
    if by_initial:
        m, t_at, hw = min(by_initial.values())
        report.add("scan_min", "all", _window_label(t_grid[0], t_grid[-1]), m, hw)
    return report


# ---------------------------------------------------------------------------
# distance-to-equilibrium decay


def stability_report(process, initials: Sequence, t_grid: Sequence[float],
                     reference: EmpiricalMeasure,
                     mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Bounded-Lipschitz distances of sampled laws to a candidate limit.

    For each start and grid time the empirical law of the time-t state is
    compared against the reference measure, and laws from different starts
    are compared pairwise. Distances falling toward 0 from every start are
    the observable trace of convergence to a unique limit. Half-widths are
    bounded-difference bounds around the expected empirical distance; the
    residual sampling bias of the empirical law itself is not estimated.
    """
    t_grid = sorted(_time_grid(t_grid))
    if not initials:
        raise ValueError("need at least one initial point")
    mc = mc or McSettings()
    report = DiagnosticReport("stability_report")
    hw1 = _mcdiarmid_half_width(mc.n_samples, mc.confidence, 1)
    hw2 = _mcdiarmid_half_width(mc.n_samples, mc.confidence, 2)
    cells = list(product(initials, t_grid))
    samples = sample_cells(process, cells, mc.n_samples, mc.seed, mc.workers)
    laws = []  # by cell index: distinct starts may share a label
    for (x, t), values in zip(cells, samples):
        label = process.state_label(x)
        if isinstance(values, str):
            report.add("bl_to_ref", label, f"{t:g}", math.nan, 0.0, error=values)
            laws.append(None)
            continue
        law = EmpiricalMeasure.from_samples(values)
        laws.append(law)
        report.add("bl_to_ref", label, f"{t:g}", bl_distance(law, reference), hw1)
    labels = [process.state_label(x) for x in initials]
    n_t = len(t_grid)
    for c, t in enumerate(t_grid):
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                a, b = laws[i * n_t + c], laws[j * n_t + c]
                if a is None or b is None:
                    continue
                report.add("bl_between", f"{labels[i]}|{labels[j]}", f"{t:g}",
                           bl_distance(a, b), hw2)
    return report


# ---------------------------------------------------------------------------
# hypothesis audits for jump systems with assumption data


def check_b2(model: IfsModel, assume: AssumptionSet, x_grid: Sequence[float]) -> float:
    """Worst violation of the mean one-jump contraction bound on the grid.

    At each x the expected post-jump distance to the anchor must not exceed
    ``r(x)`` times the current distance; returns the largest excess (a value
    at or below 0 means the bound holds on the grid).
    """
    if len(x_grid) == 0:
        raise ValueError("x grid empty")
    z = assume.anchor
    worst = -math.inf
    for x in x_grid:
        probs = model._weights(x)
        lhs = 0.0
        for k, p in enumerate(probs, start=1):
            lhs += p * abs(model.apply_map(k, x) - z)
        worst = max(worst, lhs - assume.r(x) * abs(x - z))
    return worst


def check_b3(model: IfsModel, assume: AssumptionSet, x_grid: Sequence[float],
             omega: Optional[Callable[[float], float]] = None) -> float:
    """Worst violation of the selection-probability modulus bound on the grid.

    The total probability gap between x and the anchor must be dominated by
    ``omega(|x - z|)``; returns the largest excess over the grid.
    """
    if len(x_grid) == 0:
        raise ValueError("x grid empty")
    omega = omega or assume.omega
    z = assume.anchor
    pz = model._weights(z)
    worst = -math.inf
    for x in x_grid:
        gap = float(np.sum(np.abs(model._weights(x) - pz)))
        worst = max(worst, gap - omega(abs(x - z)))
    return worst


def check_b5(model: IfsModel, assume: AssumptionSet, n_trunc: int,
             x_grid: Sequence[float],
             omega: Optional[Callable[[float], float]] = None,
             max_words: int = 10 ** 6) -> float:
    """Worst series-budget residual over starting points near the anchor.

    Sums ``omega(J_m(x) |x - z| (rate/(rate - alpha))^m)`` for m from
    ``m_start`` to ``n_trunc`` and adds a geometric majorant for the tail,
    extrapolated from the last observed term ratio. The majorant is valid
    when the term arguments keep decaying at no worse than that ratio and
    omega is concave (so it is dominated by secants through the origin);
    for a linear omega under a constant contraction coefficient it is exact.
    Returns the largest value of (bounded sum) - (1 - gamma); at or below 0
    means the budget holds on the grid. Raises if the observed terms do not
    decay, rather than truncating silently.
    """
    if len(x_grid) == 0:
        raise ValueError("x grid empty")
    if n_trunc < assume.m_start:
        raise ValueError("n_trunc must be at least m_start")
    if not assume.rate > assume.alpha:
        raise ValueError("series budget needs rate > alpha")
    omega = omega or assume.omega
    if omega(0.0) != 0.0:
        raise ValueError("omega(0) must equal 0")
    z = assume.anchor
    kappa = assume.rate / (assume.rate - assume.alpha)
    budget = 1.0 - assume.gamma
    worst = -math.inf
    for x in x_grid:
        dist = abs(x - z)
        if dist > assume.eta * (1.0 + 1e-12):
            raise ValueError(f"x={x!r} lies outside the eta-window around the anchor")
        terms = []
        for m in range(assume.m_start, n_trunc + 1):
            u = j_n(model, assume, x, m, max_words=max_words) * dist * kappa ** m
            terms.append(omega(u))
        total = math.fsum(terms)
        if terms[-1] > 0.0:
            if len(terms) < 2 or terms[-2] <= 0.0:
                raise ValueError(
                    "cannot extrapolate the tail from a single positive term; "
                    "increase n_trunc"
                )
            ratio = terms[-1] / terms[-2]
            if not ratio < 1.0:
                raise ValueError(
                    f"geometric tail bound inapplicable at x={x!r}: "
                    f"term ratio {ratio:.6g} does not decay"
                )
            total += terms[-1] * ratio / (1.0 - ratio)
        worst = max(worst, total - budget)
    return worst


def check_c2(process, z, eps_list: Sequence[float], x_grid: Sequence,
             t_search: float, mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Empirical reachability floor: how surely each start visits the anchor.

    Searches the exponentially spaced times {0, 1, 2, 4, ...} up to
    ``t_search`` and reports, per radius, each start's best hit probability
    with the earliest grid time attaining it, plus the floor
    ``beta_hat = min over x of max over t`` of the hit probability. The same
    trajectories are reused for every radius, so enlarging the radius never
    lowers a reported probability. Every radius must be positive and
    finite; a bad one raises ``ValueError`` before any sampling.
    """
    if not (0.0 < t_search < math.inf):
        raise ValueError("t_search must be positive and finite")
    if not eps_list or not x_grid:
        raise ValueError("need at least one radius and one start")
    mc = mc or McSettings()
    balls = [Ball(_anchor(z), eps) for eps in eps_list]
    t_grid = [0.0]
    t = 1.0
    while t <= t_search:
        t_grid.append(t)
        t *= 2.0
    n_cells = len(x_grid) * len(t_grid)
    conf_cell = _split_confidence(mc.confidence, n_cells)
    hw = hoeffding_half_width(1.0, mc.n_samples, conf_cell)

    report = DiagnosticReport("check_c2")
    cells = _raise_failed(run_batch(process, list(product(x_grid, t_grid)), balls, mc,
                                    conf_cell))
    n_t = len(t_grid)
    for b, ball in enumerate(balls):
        best = []
        for i, x in enumerate(x_grid):
            label = process.state_label(x)
            probs = [(cell[b].mean, t) for cell, t in zip(cells[i * n_t:(i + 1) * n_t], t_grid)]
            m_x = max(p for p, _ in probs)
            best.append(m_x)
            if m_x <= 0.0:
                report.add("c2_first_hit", label, f">{t_search:g}", 0.0, hw,
                           error="no hit within t_search")
                continue
            t_first = min(t for p, t in probs if p >= m_x)
            report.add("c2_first_hit", label, f"{t_first:g}", m_x, hw)
        report.add("c2_beta", f"eps={ball.radius:g}", f"<={t_search:g}", min(best), hw)
    return report
