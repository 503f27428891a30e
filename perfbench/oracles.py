"""Independent references for the benchmark's output checks.

Nothing here imports ergokit: the exact values come from closed forms and
from a uniformization written out below, and the outputs are read back
from the files the CLI wrote. Each function records one check per row (per
trajectory for ``simulate``) in a :class:`Checks` and returns the number of
data rows it read.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations, product

# bl(mu, delta_0) = E_mu[min(X, 2)] holds exactly; this only absorbs the
# rounding of the two different summation orders
IDENTITY_TOL = 1e-9


class Checks:
    """Counts attempted checks and keeps a message for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def read_rows(path: str) -> list[dict]:
    """Data rows of a CLI CSV table; the ``# key=value`` manifest is skipped."""
    with open(path, encoding="utf-8") as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


# ---------------------------------------------------------------------------
# ctmc: closed-form transition law


def ctmc_law(token: str, t: float) -> dict:
    """Time-t law from 'zero', 'low:n' (the point 1/n) or 'high:n' (the point n).

    Holding times at 1/n and n are exponential with mean n, and the cascade
    runs 1/n -> n -> 0.
    """
    kind, _, level = token.partition(":")
    if kind == "zero":
        return {0.0: 1.0}
    n = int(level)
    stay = math.exp(-t / n)
    if kind == "low":
        once = (t / n) * stay
        return {1.0 / n: stay, float(n): once, 0.0: 1.0 - stay - once}
    return {float(n): stay, 0.0: 1.0 - stay}


def check_estimate(checks: Checks, path: str, initials, times, ball, n: int) -> int:
    """Rows of ``estimate --f xmin1 --ball c,r`` against the exact law."""
    rows = read_rows(path)
    center, radius = ball
    label = f"ball({center:g},{radius:g})"
    expected = list(product(initials, times, ("xmin1", label)))
    checks.expect(len(rows) == len(expected), f"estimate: {len(rows)} rows, "
                  f"expected {len(expected)}")
    for row, (x, t, fn) in zip(rows, expected):
        law = ctmc_law(x, t)
        if fn == "xmin1":
            exact = sum(p * min(v, 1.0) for v, p in law.items())
        else:
            exact = sum(p for v, p in law.items() if abs(v - center) < radius)
        ok = (row["x"] == x and float(row["t"]) == t and row["functional"] == fn
              and row["error"] == "" and int(row["n_samples"]) == n
              and abs(float(row["mean"]) - exact) <= float(row["half_width"]))
        checks.expect(ok, f"estimate {x} t={t:g} {fn}: {row} vs exact {exact!r}")
    return len(rows)


# ---------------------------------------------------------------------------
# halving: exact hit probability by uniformization


def halving_hit_prob(x: float, eps: float, t: float, rate: float = 1.0) -> float:
    """P(|X_t| < eps) for the halving system started at x.

    From x the chain only visits x 2^-k, moving from y to y/2 at rate
    rate e^-y. Once inside the ball it stays there, so the ball is one
    absorbing state. The jump clock already has the largest rate, so the
    jump chain itself is the uniformized chain: the law at t is the
    Poisson(rate t) mixture of its powers. The Poisson sum is cut 12
    standard deviations past the mean, beyond which the mass is below 1e-30.
    """
    levels = []
    y = x
    while not abs(y) < eps:  # the same float halvings the sampler makes
        levels.append(y)
        y /= 2.0
    if not levels:
        return 1.0
    halve = [math.exp(-v) for v in levels]
    p = [1.0] + [0.0] * len(levels)  # last slot: inside the ball
    lam = rate * t
    weight = math.exp(-lam)
    total = weight * p[-1]
    for j in range(1, int(lam + 12.0 * math.sqrt(lam) + 40.0)):
        nxt = [p[k] * (1.0 - halve[k]) for k in range(len(levels))] + [p[-1]]
        for k in range(len(levels)):
            nxt[k + 1] += p[k] * halve[k]
        p = nxt
        weight *= lam / j
        total += weight * p[-1]
    return total


def check_lowerbound(checks: Checks, path: str, x_grid, t_grid, eps: float) -> int:
    """``hit_prob_min`` rows at their reported t, and the ``scan_min`` row."""
    rows = read_rows(path)
    mins = [r for r in rows if r["label"] == "hit_prob_min"]
    scans = [r for r in rows if r["label"] == "scan_min"]
    checks.expect([r["x"] for r in mins] == [f"{x:g}" for x in x_grid]
                  and len(scans) == 1 and len(rows) == len(x_grid) + 1,
                  f"lowerbound: unexpected rows {[(r['label'], r['x']) for r in rows]}")
    for row, x in zip(mins, x_grid):
        t = float(row["t"])
        exact = halving_hit_prob(x, eps, t)
        ok = (row["error"] == "" and t in t_grid
              and abs(float(row["value"]) - exact) <= float(row["half_width"]))
        checks.expect(ok, f"hit_prob_min x={x:g}: {row} vs exact {exact!r}")
    if scans and mins:
        low = min(mins, key=lambda r: float(r["value"]))
        checks.expect(scans[0]["value"] == low["value"]
                      and scans[0]["half_width"] == low["half_width"],
                      f"scan_min {scans[0]} is not the smallest row {low}")
    return len(rows)


# ---------------------------------------------------------------------------
# stability: bl(mu, delta_0) = E_mu[min(X, 2)] and the triangle inequality


def check_stability(checks: Checks, path: str, initials, t_grid, replay: dict) -> int:
    """``bl_to_ref`` rows (reference: point mass at 0) against E[min(X, 2)]
    of the same sampled laws, and each ``bl_between`` row against the
    triangle inequality through the reference."""
    rows = read_rows(path)
    labels = [f"{x:g}" for x in initials]
    times = [f"{t:g}" for t in sorted(t_grid)]
    to_ref = {(r["x"], r["t"]): r for r in rows if r["label"] == "bl_to_ref"}
    between = {(r["x"], r["t"]): r for r in rows if r["label"] == "bl_between"}
    pairs = [f"{a}|{b}" for a, b in combinations(labels, 2)]
    checks.expect(len(rows) == len(labels) * len(times) + len(pairs) * len(times),
                  f"stability: {len(rows)} rows")
    for x, t in product(labels, times):
        row = to_ref.get((x, t))
        want = replay.get(f"{x}@{t}")
        ok = (row is not None and want is not None and row["error"] == ""
              and abs(float(row["value"]) - want) <= IDENTITY_TOL)
        checks.expect(ok, f"bl_to_ref x={x} t={t}: {row} vs E[min(X,2)] {want!r}")
    for pair, t in product(pairs, times):
        row = between.get((pair, t))
        a, b = pair.split("|")
        ra, rb = to_ref.get((a, t)), to_ref.get((b, t))
        ok = row is not None and ra is not None and rb is not None and row["error"] == ""
        if ok:
            d, da, db = float(row["value"]), float(ra["value"]), float(rb["value"])
            ok = abs(da - db) - IDENTITY_TOL <= d <= da + db + IDENTITY_TOL and d <= 2.0
        checks.expect(ok, f"bl_between {pair} t={t}: {row} breaks the triangle "
                      f"inequality with {ra} and {rb}")
    return len(rows)


# ---------------------------------------------------------------------------
# simulate: structure of the halving jump records


def check_simulate(checks: Checks, path: str, x0: float, horizon: float,
                   trajectories: int) -> int:
    """One check per trajectory of a halving ``simulate`` dump.

    Jump k is numbered k, its time lies in (0, horizon] and exceeds the
    previous one, its pre-jump point is the previous post-jump point (the
    flow is the identity; x0 for the first jump), its index is 1 (halve)
    or 2 (stay), and its post-jump point is xi/2 or xi accordingly.
    """
    rows = read_rows(path)
    by_traj: dict = {}
    for row in rows:
        by_traj.setdefault(row["traj_id"], []).append(row)
    checks.expect(list(by_traj) == [str(k) for k in range(trajectories)],
                  f"simulate: trajectory ids {list(by_traj)[:5]}...")
    for tid, recs in by_traj.items():
        ok, prev_tau, prev_phi = True, 0.0, x0
        for k, row in enumerate(recs, start=1):
            tau, xi, phi = float(row["tau_k"]), float(row["xi_k"]), float(row["phi_k"])
            index = row["index_k"]
            ok = (ok and row["k"] == str(k) and prev_tau < tau <= horizon
                  and xi == prev_phi and index in ("1", "2")
                  and phi == (xi / 2.0 if index == "1" else xi))
            prev_tau, prev_phi = tau, phi
        checks.expect(ok, f"simulate trajectory {tid} breaks the jump-record structure")
    return len(rows)
