"""Computable surrogates for the ergodicity notions the built-in models probe.

Long-run quantities such as ``limsup`` or ``liminf`` over all times are not
computable; every diagnostic here replaces them by a max or min over an
explicit, user-declared large-time grid, and labels the window in its
output so the surrogate's scope is always visible.

A process may answer a start exactly, with certified half-widths. The
diagnostics that need means (``ec_profile``, ``eproperty_witness``,
``lower_bound_scan``, ``check_c2``) ask ``exact_means(starts, times,
functionals)`` once per time grid, for every start on it; it returns per
start None or, per time, the ``(mean, bound)`` of each functional. If that
call raises, each start is asked alone, and a start that still raises fails
its own cells. ``stability_report`` needs laws: it asks ``exact_laws(x0,
times)`` per start for ``(law, bound)`` pairs. A start that gets None, or a
process without the method, is sampled. Monte Carlo rows carry
Hoeffding or bounded-difference half-widths; whenever a reported statistic
aggregates several estimated cells, the cell confidences are combined with
a union bound so the row's guarantee holds at the declared confidence. A
report's ``mode`` says which engine made its rows: ``exact``,
``monte-carlo`` or ``mixed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Ball, EmpiricalMeasure, TestFunction, as_time, bl_distance
from .ifs_jump import AssumptionSet, IfsModel, j_n
from .montecarlo import McSettings, _time_grid, run_batch, sample_cells

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
    """Rows of one diagnostic; ``name`` is the diagnostic that made them and
    ``mode`` the engine: ``exact``, ``monte-carlo`` or ``mixed``, None
    until a diagnostic sets it."""

    name: str
    rows: list = field(default_factory=list)
    mode: Optional[str] = None

    def add(self, label: str, x, t, value: float, half_width: float,
            error: Optional[str] = None) -> None:
        if half_width < 0.0:
            raise ValueError("half widths are nonnegative")
        self.rows.append(ReportRow(label, str(x), str(t), float(value),
                                   float(half_width), error))

    def values(self, label: Optional[str] = None) -> list:
        return [r.value for r in self.rows if label is None or r.label == label]


def _split_confidence(confidence: float, n_cells: int) -> float:
    """Per-cell confidence whose union bound meets the target confidence."""
    return 1.0 - (1.0 - confidence) / n_cells


def _difference_half_width(value_bound: float, n: int, confidence: float) -> float:
    """Hoeffding half-width for the difference of two independent n-means."""
    delta = 1.0 - confidence
    return value_bound * math.sqrt(math.log(2.0 / delta) / n)


def _mcdiarmid_half_width(n: int, confidence: float, n_empirical: int) -> float:
    """Bounded-difference half-width for a distance of 0, 1 or 2 empirical
    laws around its own expectation (one sample swap moves the value by
    <= 2/n)."""
    delta = 1.0 - confidence
    return math.sqrt(2.0 * n_empirical * math.log(2.0 / delta) / n)


def _raise_failed(cells: list) -> None:
    """Raise the first failed cell's message."""
    for result in cells:
        if isinstance(result, str):
            raise RuntimeError(result)


def _split(cells: list, exact, sample) -> tuple:
    """Per ``(x, t)`` cell, what ``exact(starts, times)`` gave it, or what
    ``sample`` gave it where that is None; and whether each cell was exact.
    ``exact``, if not None, is asked once per distinct time grid, with the
    starts on that grid, and returns per start None or a result per time;
    if it raises, each start is asked alone, and a start that raises again
    gets its error message at every time. ``sample`` gets the other cells
    in order, as the cells of one ``sample_cells`` batch (whose starts or
    cells key its streams), and returns one result per cell."""
    known = [None] * len(cells)
    if exact is not None:
        grids: dict = {}
        for x, t in cells:
            grids.setdefault(x, {})[t] = None
        starts: dict = {}
        for x, grid in grids.items():
            starts.setdefault(tuple(grid), []).append(x)
        for times, xs in starts.items():
            try:
                answers = exact(xs, list(times))
            except Exception:
                answers = [_alone(exact, x, list(times)) for x in xs]
            for x, got in zip(xs, answers):
                grids[x] = None if got is None else dict(zip(times, got))
        known = [None if grids[x] is None else grids[x][t] for x, t in cells]
    sampled = [cell for cell, got in zip(cells, known) if got is None]
    results = iter(sample(sampled) if sampled else ())
    return ([next(results) if got is None else got for got in known],
            [got is not None for got in known])


def _alone(exact, x, times: list):
    try:
        return exact([x], times)[0]
    except Exception as exc:
        return [f"exact law from x={x}: {exc}"] * len(times)


def _mode(exact: list) -> str:
    if all(exact):
        return "exact"
    return "mixed" if any(exact) else "monte-carlo"


def _means(process, functionals: Sequence, cells: list, mc: McSettings,
           confidence: float) -> tuple:
    """Per ``(x, t)`` cell, the ``(mean, half_width)`` of every functional
    (a ball's mean is its hit probability) or the cell's error message, and
    whether each cell was exact. ``process.exact_means`` answers the starts
    of a time grid in one call. Cells without exact means go, in order, to
    one ``run_batch``, which keys their streams as ``sample_cells`` does,
    with Hoeffding widths at ``confidence``."""
    exact_means = getattr(process, "exact_means", None)

    def sample(sampled):
        return [cell if isinstance(cell, str) else [(est.mean, est.half_width) for est in cell]
                for cell in run_batch(process, sampled, functionals, mc, confidence)]

    return _split(cells, exact_means and (lambda xs, times: exact_means(xs, times, functionals)),
                  sample)


def _rows(cells: list, n_t: int) -> list:
    """A start-major cell list cut into its starts' rows of ``n_t`` cells."""
    return [cells[i:i + n_t] for i in range(0, len(cells), n_t)]


def _extreme(pick: Callable, values: list, times: Sequence) -> tuple:
    """``pick(values)``, ``min`` or ``max``, and the first of ``times``
    that attains it: the time that labels a row reporting a grid extreme."""
    value = pick(values)
    return value, times[values.index(value)]


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
    makes the late-time surrogate explicit. Starts with exact laws are
    answered exactly, the others by Monte Carlo.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("grid empty")
    if len(xs) == 0:
        raise ValueError("need at least one start")
    T = as_time(T, "window start")
    t_max = as_time(t_max, "window end")
    if T > t_max:
        raise ValueError("window must satisfy 0 <= T <= t_max")
    if grid[0] < T or grid[-1] > t_max:
        raise ValueError("grid must lie inside the window [T, t_max]")
    _time_grid(grid)  # a nan time passes the window comparisons
    mc = mc or McSettings()
    # cells are read by grid position: distinct starts may share a label
    cells = list(product(tuple(xs) + (z,), grid))
    means, exact = _means(process, (f,), cells, mc,
                          _split_confidence(mc.confidence, len(cells)))
    _raise_failed(means)
    *rows, z_row = _rows(means, len(grid))
    window = _window_label(T, t_max)
    report = DiagnosticReport("ec_profile", mode=_mode(exact))
    for x, row in zip(xs, rows):
        gap, hw = 0.0, 0.0
        for ((mx, hx),), ((mz, hz),) in zip(row, z_row):
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
    if len(pairs) == 0:
        raise ValueError("need at least one (x, t) pair")
    _time_grid([t for _, t in pairs])
    mc = mc or McSettings()
    # cells 2k and 2k+1 hold the k-th pair's start and the anchor
    cells = [c for x, t in pairs for c in ((x, t), (z, t))]
    means, exact = _means(process, (f,), cells, mc, mc.confidence)
    _raise_failed(means)
    # a pair with an exact side adds its two widths; a sampled pair has the
    # two-sample bound
    hw = _difference_half_width(f.value_bound, mc.n_samples, mc.confidence)
    report = DiagnosticReport("eproperty_witness", mode=_mode(exact))
    for k, (x, t) in enumerate(pairs):
        ((mx, hx),), ((mz, hz),) = means[2 * k], means[2 * k + 1]
        sampled = not (exact[2 * k] or exact[2 * k + 1])
        report.add("witness", process.state_label(x), f"{t:g}", mx - mz,
                   hw if sampled else hx + hz)
    return report


# ---------------------------------------------------------------------------
# long-run neighborhood hit floor


def lower_bound_scan(process, z, eps: float, x_grid: Sequence, t_grid: Sequence[float],
                     mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Worst late-time probability of sitting near the anchor, over a start grid.

    Reports ``m(x) = min over t_grid of P_t(x, B(z, eps))`` for each start x
    and the scan minimum over x, all with the largest cell half-width. A
    scan minimum whose lower confidence endpoint stays positive supports
    the hit-probability floor needed for stability; the floor claim is only
    as strong as the declared grids. A failed cell gets a ``nan`` row with
    its error; its start then has no minimum, and the scan minimum is
    ``nan`` with an error.
    """
    ball = Ball(_anchor(z), eps)
    t_grid = sorted(_time_grid(t_grid))
    if len(x_grid) == 0:
        raise ValueError("x grid empty")
    mc = mc or McSettings()
    cells = list(product(x_grid, t_grid))
    means, exact = _means(process, (ball,), cells, mc,
                          _split_confidence(mc.confidence, len(cells)))

    report = DiagnosticReport("lower_bound_scan", mode=_mode(exact))
    failures = [(x, t, cell) for (x, t), cell in zip(cells, means) if isinstance(cell, str)]
    hw = max([0.0] + [cell[0][1] for cell in means if not isinstance(cell, str)])
    # read by position in x_grid: distinct starts may share a label
    for x, row in zip(x_grid, _rows(means, len(t_grid))):
        if not any(isinstance(cell, str) for cell in row):
            m, t_at = _extreme(min, [cell[0][0] for cell in row], t_grid)
            report.add("hit_prob_min", process.state_label(x), f"{t_at:g}", m, hw)
    for x, t, error in failures:
        report.add("hit_prob_min", process.state_label(x), f"{t:g}", math.nan, 0.0,
                   error=error)
    window = _window_label(t_grid[0], t_grid[-1])
    if failures:
        report.add("scan_min", "all", window, math.nan, 0.0,
                   error=f"{len(failures)} of {len(cells)} cells failed")
    else:
        report.add("scan_min", "all", window, min(report.values("hit_prob_min")), hw)
    return report


# ---------------------------------------------------------------------------
# distance-to-equilibrium decay


def stability_report(process, initials: Sequence, t_grid: Sequence[float],
                     reference: EmpiricalMeasure,
                     mc: Optional[McSettings] = None) -> DiagnosticReport:
    """Bounded-Lipschitz distances of time-t laws to a candidate limit.

    For each start and grid time the law of the time-t state, exact or
    empirical, is compared against the reference measure, and laws from
    different starts are compared pairwise. Distances falling toward 0 from
    every start are the observable trace of convergence to a unique limit.
    A half-width adds twice each exact law's bound (bounded-Lipschitz
    functions span 2) to the bounded-difference bound of the empirical
    laws around their expected distance; the sampling bias of an empirical
    law itself is not estimated.
    """
    t_grid = sorted(_time_grid(t_grid))
    if len(initials) == 0:
        raise ValueError("need at least one initial point")
    mc = mc or McSettings()
    cells = list(product(initials, t_grid))
    exact_laws = getattr(process, "exact_laws", None)
    known, exact = _split(cells, exact_laws and (
                              lambda xs, times: [exact_laws(x, times) for x in xs]),
                          lambda sampled: sample_cells(process, sampled, mc.n_samples,
                                                       mc.seed, mc.workers))
    report = DiagnosticReport("stability_report", mode=_mode(exact))

    def width(*pair):
        n_empirical = sum(bound is None for _, bound in pair)
        return (2.0 * sum(bound for _, bound in pair if bound is not None)
                + _mcdiarmid_half_width(mc.n_samples, mc.confidence, n_empirical))

    laws = []  # (law, bound or None) by cell index: distinct starts may share a label
    for (x, t), law, is_exact in zip(cells, known, exact):
        label = process.state_label(x)
        if not (is_exact or isinstance(law, str)):
            law = (EmpiricalMeasure.from_samples(law), None)
        if isinstance(law, str):
            report.add("bl_to_ref", label, f"{t:g}", math.nan, 0.0, error=law)
            laws.append(None)
            continue
        laws.append(law)
        report.add("bl_to_ref", label, f"{t:g}", bl_distance(law[0], reference), width(law))
    labels = [process.state_label(x) for x in initials]
    for t, column in zip(t_grid, zip(*_rows(laws, len(t_grid)))):
        for (la, a), (lb, b) in combinations(zip(labels, column), 2):
            if a is not None and b is not None:
                report.add("bl_between", f"{la}|{lb}", f"{t:g}", bl_distance(a[0], b[0]),
                           width(a, b))
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
        probs = np.asarray(model._weights(x), dtype=float)
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
    pz = np.asarray(model._weights(z), dtype=float)
    worst = -math.inf
    for x in x_grid:
        gap = float(np.sum(np.abs(np.asarray(model._weights(x), dtype=float) - pz)))
        worst = max(worst, gap - omega(abs(x - z)))
    return worst


def check_b5(model: IfsModel, assume: AssumptionSet, n_trunc: int,
             x_grid: Sequence[float],
             omega: Optional[Callable[[float], float]] = None,
             max_words: int = 10 ** 6) -> float:
    """Worst series-budget residual over starting points near the anchor.

    Sums ``omega(J_m(x) |x - z| (model.rate/(model.rate - alpha))^m)`` for
    m from ``m_start`` to ``n_trunc`` and adds a geometric majorant for the
    tail, extrapolated from the last observed term ratio. The majorant is valid
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
    if not model.rate > assume.alpha:
        raise ValueError("series budget needs rate > alpha")
    omega = omega or assume.omega
    if omega(0.0) != 0.0:
        raise ValueError("omega(0) must equal 0")
    z = assume.anchor
    kappa = model.rate / (model.rate - assume.alpha)
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
    trajectories, or the same exact law, serve every radius, so enlarging
    the radius never lowers a reported probability. Every row carries the
    largest cell half-width. Every radius must be positive and finite; a bad
    one raises ``ValueError`` before any sampling.
    """
    if not (0.0 < t_search < math.inf):
        raise ValueError("t_search must be positive and finite")
    if len(eps_list) == 0 or len(x_grid) == 0:
        raise ValueError("need at least one radius and one start")
    mc = mc or McSettings()
    balls = [Ball(_anchor(z), eps) for eps in eps_list]
    t_grid = [0.0]
    t = 1.0
    while t <= t_search:
        t_grid.append(t)
        t *= 2.0
    cells, exact = _means(process, balls, list(product(x_grid, t_grid)), mc,
                          _split_confidence(mc.confidence, len(x_grid) * len(t_grid)))
    _raise_failed(cells)
    hw = max(cell_hw for cell in cells for _, cell_hw in cell)

    report = DiagnosticReport("check_c2", mode=_mode(exact))
    for b, ball in enumerate(balls):
        best = []
        for x, row in zip(x_grid, _rows(cells, len(t_grid))):
            m_x, t_first = _extreme(max, [cell[b][0] for cell in row], t_grid)
            best.append(m_x)
            if m_x <= 0.0:
                report.add("c2_first_hit", process.state_label(x), f">{t_search:g}", 0.0, hw,
                           error="no hit within t_search")
            else:
                report.add("c2_first_hit", process.state_label(x), f"{t_first:g}", m_x, hw)
        report.add("c2_beta", f"eps={ball.radius:g}", f"<={t_search:g}", min(best), hw)
    return report
