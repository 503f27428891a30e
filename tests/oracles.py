"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own code paths: the
bounded-Lipschitz oracles are a linear program over the merged support and
a dynamic programme over it in exact rational arithmetic, and
the jump-chain laws come from truncated Poisson mixtures of discrete
transition-matrix powers, the halving hit probabilities from such a
mixture summed in ``decimal``, the chain's closed form in ``decimal``, the
means of a finite jump system by its uniformized series in ``decimal``,
and the moments of an affine moving-flow system from its generator's
matrix exponential.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def bl_lp(mu_support, mu_weights, nu_support, nu_weights) -> float:
    """LP value of sup <f, mu - nu> over 1-bounded 1-Lipschitz f on the line."""
    support = np.concatenate([np.asarray(mu_support, float), np.asarray(nu_support, float)])
    signed = np.concatenate([np.asarray(mu_weights, float), -np.asarray(nu_weights, float)])
    merged, inverse = np.unique(support, return_inverse=True)
    d = np.zeros(merged.size)
    np.add.at(d, inverse, signed)
    m = merged.size
    if m == 1:
        return 0.0
    gaps = np.diff(merged)
    A = sparse.lil_matrix((2 * (m - 1), m))
    for i in range(m - 1):
        A[2 * i, i + 1] = 1.0
        A[2 * i, i] = -1.0
        A[2 * i + 1, i + 1] = -1.0
        A[2 * i + 1, i] = 1.0
    b = np.repeat(gaps, 2)
    res = linprog(-d, A_ub=A.tocsr(), b_ub=b, bounds=[(-1.0, 1.0)] * m, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def bl_exact(mu_support, mu_weights, nu_support, nu_weights) -> Fraction:
    """The value of ``bl_lp`` exactly, for the float measures as given (small
    supports only). V(phi), the best partial sum with f = phi at the current
    point, is concave and piecewise linear on [-1, 1]. It is kept as its
    knots and carried point by point: widened by the gap around its peak,
    clipped to [-1, 1], then raised by d * phi."""
    d: dict = {}
    for support, weights, sign in ((mu_support, mu_weights, 1), (nu_support, nu_weights, -1)):
        for x, w in zip(np.asarray(support, float).tolist(), np.asarray(weights, float).tolist()):
            d[Fraction(x)] = d.get(Fraction(x), 0) + sign * Fraction(w)
    one = Fraction(1)
    knots = [(-one, Fraction(0)), (one, Fraction(0))]
    prev = min(d)
    for x in sorted(d):
        gap, prev = x - prev, x
        top = max(v for _, v in knots)
        peak = [i for i, (_, v) in enumerate(knots) if v == top]
        knots = ([(p - gap, v) for p, v in knots[:peak[0] + 1]]
                 + [(p + gap, v) for p, v in knots[peak[-1]:]])
        knots = ([(-one, _knot_value(knots, -one))] + [(p, v) for p, v in knots if -1 < p < 1]
                 + [(one, _knot_value(knots, one))])
        knots = [(p, v + d[x] * p) for p, v in knots]
    return max(v for _, v in knots)


def _knot_value(knots, phi):
    for (p0, v0), (p1, v1) in zip(knots, knots[1:]):
        if p0 <= phi <= p1:
            return v0 if p1 == p0 else v0 + (v1 - v0) * (phi - p0) / (p1 - p0)
    raise ValueError(f"{phi} outside the knots")


def poisson_mixture_law(jump_matrix: np.ndarray, start: int, lam: float, t: float,
                        tol: float = 1e-12) -> np.ndarray:
    """Law at time t of a chain jumping at Poisson(lam) times with the given
    per-jump transition matrix, by truncated series over the jump count."""
    jump_matrix = np.asarray(jump_matrix, dtype=float)
    dist = np.zeros(jump_matrix.shape[0])
    dist[start] = 1.0
    out = np.zeros_like(dist)
    weight = math.exp(-lam * t)
    n = 0
    accumulated = 0.0
    while accumulated < 1.0 - tol:
        out += weight * dist
        accumulated += weight
        n += 1
        weight *= lam * t / n
        dist = dist @ jump_matrix
        if n > 10_000:
            raise RuntimeError("poisson series failed to converge")
    return out


def flip_jump_matrix(x: float) -> np.ndarray:
    """Per-jump transition matrix of the flip system on states (x, 1/x, 0)."""

    def probs(y: float):
        if y < 2.0 / 3.0:
            return (y / 2.0, 1.0 - y, y / 2.0)
        if y <= 1.5:
            return (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        return (0.5 / y, 1.0 - 1.0 / y, 0.5 / y)

    inv = 1.0 / x
    ka, sa, fa = probs(x)
    kb, sb, fb = probs(inv)
    return np.array([
        [sa, fa, ka],
        [fb, sb, kb],
        [0.0, 0.0, 1.0],
    ])


def flip_expectation_xmin1(x: float, lam: float, t: float) -> float:
    """E[min(state, 1)] at time t for the flip system started at x > 0."""
    law = poisson_mixture_law(flip_jump_matrix(x), 0, lam, t)
    return law[0] * min(x, 1.0) + law[1] * min(1.0 / x, 1.0)


def halving_hit_probs(x: float, eps: float, times, rate: float = 1.0) -> list:
    """P_t(x, B(0, eps)) of the halving system for each t in times, as
    ``Decimal``s within about 1e-40 of the law the sampler draws.

    From x the chain visits only the float halvings x 2^-k, and at each
    jump of its rate-``rate`` clock it leaves y for y/2 with probability
    ``math.exp(-y)``, read exactly, and stays otherwise. The ball is closed
    under halving, so it is one absorbing state. The clock is the
    uniformized one, so P_t is the Poisson(rate t) mixture of the chance
    s_j of being in the ball after j jumps; the sum runs with 60 digits,
    20 standard deviations past the mean, where the Poisson tail is below
    1e-80.
    """
    levels = []
    y = x
    while not abs(y) < eps:  # the same float halvings the sampler makes
        levels.append(y)
        y /= 2.0
    lams = [rate * t for t in times]
    jumps = int(max(lams) + 20.0 * math.sqrt(max(lams)) + 50.0)
    with localcontext() as ctx:
        ctx.prec = 60
        halve = [Decimal(math.exp(-v)) for v in levels]
        p = [Decimal(1)] + [Decimal(0)] * len(levels)  # last slot: the ball
        inside = []
        for _ in range(jumps + 1):
            inside.append(p[-1])
            moved = [q * h for q, h in zip(p, halve)]
            p = [q - m for q, m in zip(p, moved)] + [p[-1]]
            for k, m in enumerate(moved):
                p[k + 1] += m
        out = []
        for lam in lams:
            lam = Decimal(lam)
            weight = (-lam).exp()
            total = weight * inside[0]
            for j in range(1, jumps + 1):
                weight = weight * lam / j
                total += weight * inside[j]
            out.append(+total)
        return out


def uniformized_mean(points, table, weights, rate: float, x: float, t: float, f) -> Decimal:
    """E_x[f(X_t)], as a ``Decimal``, of the jump system on the finite set
    ``points`` under the identity flow: at each jump of its rate-``rate``
    clock, map k sends ``points[i]`` to ``points[table[k][i]]``, chosen with
    probability ``weights[i][k]``. Every weight, time and value of f is
    read exactly.

    E_x[f(X_t)] is the Poisson(rate t) mixture of u_n(x), where u_0 = f and
    u_(n+1)(y) = sum_k weights[y][k] u_n(w_k(y)), Kolmogorov's backward
    recursion. The sum runs with 50 digits, 20 standard deviations past
    the mean jump count plus 50 jumps, where the Poisson tail is below
    1e-80.
    """
    start = points.index(x)
    with localcontext() as ctx:
        ctx.prec = 50
        lam = Decimal(rate) * Decimal(t)
        jumps = int(float(lam) + 20.0 * math.sqrt(float(lam)) + 50.0)
        # per point, the (weight, destination) of each map it may take
        moves = [[(Decimal(p), dst[i]) for p, dst in zip(row, table) if p]
                 for i, row in enumerate(weights)]
        u = [Decimal(float(f(y))) for y in points]
        weight = (-lam).exp()
        total = weight * u[start]
        for n in range(1, jumps + 1):
            u = [sum(p * u[j] for p, j in row) for row in moves]
            weight = weight * lam / n
            total += weight * u[start]
        return +total


def affine_moments(maps, weights, rate: float, alpha: float, x: float, t: float,
                   degree: int = 2) -> list:
    """E_x[X_t^k] for k = 0, ..., degree, as ``Decimal``s, of the jump
    system with affine maps w_i(y) = a_i y + b_i (``maps`` the pairs (a_i,
    b_i)), constant weights p_i, a constant jump rate and the flow y -> y
    e^(alpha s), every number read exactly.

    The generator L y^k = k alpha y^k + rate sum_i p_i ((a_i y + b_i)^k -
    y^k) maps a polynomial of degree at most ``degree`` to one: on the
    coefficients of 1, y, ..., y^degree it is the upper-triangular matrix G
    whose column k is L y^k. So y -> E_y[X_t^k] is the polynomial whose
    coefficients are column k of e^(tG), here its Taylor series summed
    with 60 digits until a term falls below 1e-50 past the norm of tG. No
    term exceeds e^(norm), so about norm / 2.3 of the 60 digits may
    cancel: at rate 1 and t = 20, some 50 digits remain.
    """
    size = degree + 1

    def power(v, n):
        return v ** n if n else Decimal(1)  # Decimal(0) ** 0 is undefined

    with localcontext() as ctx:
        ctx.prec = 60
        lam, a_flow, y, s = (Decimal(v) for v in (rate, alpha, x, t))
        pairs = [(Decimal(p), Decimal(a), Decimal(b)) for p, (a, b) in zip(weights, maps)]
        tg = [[Decimal(0)] * size for _ in range(size)]
        for k in range(size):
            for j in range(k + 1):
                tg[j][k] = s * lam * math.comb(k, j) * sum(
                    p * power(a, j) * power(b, k - j) for p, a, b in pairs)
            tg[k][k] += s * (k * a_flow - lam)
        norm = max(sum(abs(v) for v in row) for row in tg)
        total = [[Decimal(int(i == j)) for j in range(size)] for i in range(size)]
        term = [row[:] for row in total]
        n = 0
        while n <= norm or max(abs(v) for row in term for v in row) >= Decimal("1e-50"):
            n += 1
            term = [[sum(term[i][m] * tg[m][j] for m in range(size)) / n for j in range(size)]
                    for i in range(size)]
            total = [[u + v for u, v in zip(r, q)] for r, q in zip(total, term)]
        return [+sum(total[j][k] * power(y, j) for j in range(k + 1)) for k in range(size)]


def ctmc_zero_mass(n: int, t: float) -> Decimal:
    """P_t(1/n -> 0) of the chain in ``exact_ctmc``, to about 60 digits.

    The closed form 1 - e^{-s}(1 + s), s = t/n, cancels for small s, so the
    mass is summed as e^{-s} times the series sum over k >= 2 of s^k/k!,
    whose terms are all positive, with ``t`` read exactly.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(t) / n
        term, tail, k = s, Decimal(0), 1
        while True:
            k += 1
            term = term * s / k
            if tail and term < tail * Decimal("1e-62"):
                break
            tail += term
        return +((-s).exp() * tail)


def ctmc_closed_form(n: int, t: float) -> dict:
    """P_t(x -> y) of the chain in ``exact_ctmc`` on the n-cascade, keyed by
    the label pair, e.g. ``("low:3", "zero")``, as ``Decimal``s.

    It evaluates the closed form itself, 1 - e^{-s}(1 + s) and 1 - e^{-s}
    included, s = t/n with t read exactly, with 60 digits to spare over the
    about 2 log10(1/s) that the cancellation costs.
    """
    low, high, zero = f"low:{n}", f"high:{n}", "zero"
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.prec += 2 * max(0, -(Decimal(t) / n).adjusted())
        s = Decimal(t) / n
        decay = (-s).exp()
        law = {(low, low): decay, (low, high): s * decay, (low, zero): 1 - decay * (1 + s),
               (high, high): decay, (high, zero): 1 - decay, (zero, zero): Decimal(1)}
        return {(x, y): +law.get((x, y), Decimal(0))
                for x in (low, high, zero) for y in (low, high, zero)}


def ctmc_ec_gap_max(n: int, t_lo: float, t_hi: float) -> tuple:
    """``(t, gap)``: where and how large the chain's largest gap
    P_t f(1/n) - P_t f(0), f = min(x, 1), is over t in [t_lo, t_hi].

    From 0 the chain stays at 0, so P_t f(0) = 0. From 1/n it is still at
    1/n with probability e^{-t/n} and at n with (t/n) e^{-t/n}, so the gap
    is g(t) = e^{-t/n} (1 + t)/n, and g'(t) = e^{-t/n} (n - 1 - t)/n^2: g
    rises up to t = n - 1 and falls after it.
    """
    t = min(max(float(n - 1), t_lo), t_hi)
    with localcontext() as ctx:
        ctx.prec = 60
        gap = (-Decimal(t) / n).exp() * (1 + Decimal(t)) / n
    return t, float(gap)
