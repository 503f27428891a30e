import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergokit.core import (
    Ball,
    EmpiricalMeasure,
    TestFunction,
    _max_signed_pairing,
    _merged_signed_weights,
    as_state,
    as_time,
    bl_distance,
    bump_function,
    xmin1,
)

from oracles import bl_lp


def measure(support, weights):
    return EmpiricalMeasure(np.asarray(support, float), np.asarray(weights, float))


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance


def test_bl_identical_measures_zero():
    mu = measure([0.3, 1.7], [0.4, 0.6])
    assert bl_distance(mu, mu) == 0.0


def test_bl_unit_separation():
    assert bl_distance(EmpiricalMeasure.point_mass(0.0),
                       EmpiricalMeasure.point_mass(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_bl_saturates_at_two():
    assert bl_distance(EmpiricalMeasure.point_mass(0.0),
                       EmpiricalMeasure.point_mass(5.0)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_bl_point_mass_closed_form(seed):
    rng = np.random.default_rng(100 + seed)
    x, y = rng.uniform(0, 4, size=2)
    got = bl_distance(EmpiricalMeasure.point_mass(x), EmpiricalMeasure.point_mass(y))
    assert got == pytest.approx(min(2.0, abs(x - y)), abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_bl_matches_lp_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    m, k = rng.integers(1, 7, size=2)
    mu = measure(np.sort(rng.choice(np.linspace(0, 3, 40), size=m, replace=False)),
                 rng.dirichlet(np.ones(m)))
    nu = measure(np.sort(rng.choice(np.linspace(0, 3, 40), size=k, replace=False)),
                 rng.dirichlet(np.ones(k)))
    got = bl_distance(mu, nu)
    want = bl_lp(mu.support, mu.weights, nu.support, nu.weights)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("seed", range(20))
def test_bl_triangle_inequality(seed):
    rng = np.random.default_rng(300 + seed)
    ms = []
    for _ in range(3):
        m = rng.integers(1, 6)
        ms.append(measure(np.sort(rng.choice(np.linspace(0, 2.5, 60), size=m, replace=False)),
                          rng.dirichlet(np.ones(m))))
    a, b, c = ms
    assert bl_distance(a, c) <= bl_distance(a, b) + bl_distance(b, c) + 1e-9


def test_bl_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    mu = measure(np.sort(rng.uniform(0, 8, 5)), rng.dirichlet(np.ones(5)))
    nu = measure(np.sort(rng.uniform(0, 8, 4)), rng.dirichlet(np.ones(4)))
    d1, d2 = bl_distance(mu, nu), bl_distance(nu, mu)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert 0.0 <= d1 <= 2.0


@pytest.mark.parametrize("seed", range(10))
def test_bl_positive_for_distinct_measures(seed):
    rng = np.random.default_rng(400 + seed)
    support = np.sort(rng.choice(np.linspace(0.1, 2.0, 30), size=3, replace=False))
    w1 = rng.dirichlet(np.ones(3))
    w2 = rng.dirichlet(np.ones(3))
    if np.allclose(w1, w2):
        return
    assert bl_distance(measure(support, w1), measure(support, w2)) > 0.0


def reference_max_signed_pairing(support, d):
    # The breakpoint-array form of the same dynamic programme, rebuilt with
    # numpy at every support point (O(n * breakpoints)); kept as the
    # reference the segment-deque form must match.
    phis = np.array([-1.0, 1.0])
    vals = np.array([-d[0], d[0]])
    for i in range(1, support.size):
        delta = support[i] - support[i - 1]
        vmax = vals.max()
        peak = np.nonzero(vals == vmax)[0]
        a, b = peak[0], peak[-1]
        phis = np.concatenate([phis[: a + 1] - delta, phis[b:] + delta])
        vals = np.concatenate([vals[: a + 1], vals[b:]])
        lo = np.interp(-1.0, phis, vals)
        hi = np.interp(1.0, phis, vals)
        keep = (phis > -1.0) & (phis < 1.0)
        phis = np.concatenate([[-1.0], phis[keep], [1.0]])
        vals = np.concatenate([[lo], vals[keep], [hi]])
        vals = vals + d[i] * phis
    return float(vals.max())


def check_bl(mu, nu, lp=True):
    got = bl_distance(mu, nu)
    support, d = _merged_signed_weights(mu, nu)
    if support.size > 1:
        assert _max_signed_pairing(support, d) == pytest.approx(
            reference_max_signed_pairing(support, d), abs=1e-12)
    if lp:
        assert got == pytest.approx(bl_lp(mu.support, mu.weights, nu.support, nu.weights),
                                    abs=1e-9)
    return got


@pytest.mark.parametrize("seed", range(8))
def test_bl_matches_lp_oracle_many_atoms(seed):
    rng = np.random.default_rng(500 + seed)
    m, k = rng.integers(50, 301, size=2)
    grid = np.linspace(0, 4, 2000)
    mu = measure(np.sort(rng.choice(grid, size=m, replace=False)), rng.dirichlet(np.ones(m)))
    nu = measure(np.sort(rng.choice(grid, size=k, replace=False)), rng.dirichlet(np.ones(k)))
    check_bl(mu, nu)


@pytest.mark.parametrize("seed", range(8))
def test_bl_lattice_equal_weights(seed):
    # equal weights on a lattice make the running sum of d revisit the same
    # values, so slopes cancel to exact zeros and plateaus tie
    rng = np.random.default_rng(600 + seed)
    m = int(rng.integers(20, 200))
    grid = np.arange(300) * 0.02
    mu = measure(np.sort(rng.choice(grid, size=m, replace=False)), np.full(m, 1.0 / m))
    nu = measure(np.sort(rng.choice(grid, size=m, replace=False)), np.full(m, 1.0 / m))
    check_bl(mu, nu)


@pytest.mark.parametrize("seed", range(8))
def test_bl_shared_atoms_give_exact_zero_d(seed):
    rng = np.random.default_rng(700 + seed)
    grid = np.linspace(0, 3, 400)
    atoms = np.sort(rng.choice(grid[1:], size=120, replace=False))
    shared, own_mu, own_nu = atoms[:40], atoms[40:80], atoms[80:]
    # the smallest atom is shared too, so d[0] == 0
    shared = np.concatenate([[0.0], shared])
    w_shared = np.full(shared.size, 0.5 / shared.size)
    w_own = rng.dirichlet(np.ones(40), size=2) * 0.5

    def build(own, w):
        support = np.concatenate([shared, own])
        order = np.argsort(support)
        return measure(support[order], np.concatenate([w_shared, w])[order])

    mu, nu = build(own_mu, w_own[0]), build(own_nu, w_own[1])
    support, d = _merged_signed_weights(mu, nu)
    assert d[0] == 0.0 and np.count_nonzero(d == 0.0) == shared.size
    check_bl(mu, nu)


@pytest.mark.parametrize("seed", range(6))
def test_bl_gaps_of_two_clip_every_segment(seed):
    # with every gap >= 2 the atoms are independent: f = sign(d) attains
    # sum |d_i|
    rng = np.random.default_rng(800 + seed)
    m, k = rng.integers(1, 30, size=2)
    atoms = np.cumsum(rng.uniform(2.0, 5.0, size=m + k))
    picks = rng.permutation(m + k)
    mu = measure(np.sort(atoms[picks[:m]]), rng.dirichlet(np.ones(m)))
    nu = measure(np.sort(atoms[picks[m:]]), rng.dirichlet(np.ones(k)))
    got = check_bl(mu, nu)
    assert got == pytest.approx(2.0, abs=1e-12)
    shared = measure(atoms[:m], rng.dirichlet(np.ones(m)))
    other = measure(atoms[:m], rng.dirichlet(np.ones(m)))
    got = check_bl(shared, other)
    assert got == pytest.approx(np.abs(shared.weights - other.weights).sum(), abs=1e-12)


@pytest.mark.parametrize("n, a", [(10_000, 0.0), (10_000, 1.3), (40_000, 0.0), (40_000, 0.7)])
def test_bl_to_point_mass_closed_form_large(n, a):
    # bl(mu, delta_a) = E_mu[min(|X - a|, 2)], attained by min(|x - a|, 2) - 1
    rng = np.random.default_rng(n + int(10 * a))
    mu = EmpiricalMeasure.from_samples(rng.exponential(1.0, size=n))
    want = float(np.dot(mu.weights, np.minimum(np.abs(mu.support - a), 2.0)))
    assert bl_distance(mu, EmpiricalMeasure.point_mass(a)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_bl_matches_reference_dp_on_continuous_samples(seed):
    # every sample its own atom, as in laws drawn from a continuous flow
    rng = np.random.default_rng(900 + seed)
    m, k = rng.integers(1, 2001, size=2)
    mu = EmpiricalMeasure.from_samples(rng.exponential(rng.uniform(0.2, 2.0), size=m))
    nu = EmpiricalMeasure.from_samples(rng.exponential(rng.uniform(0.2, 2.0), size=k))
    check_bl(mu, nu, lp=False)


# ---------------------------------------------------------------------------
# bump functions


def test_bump_is_one_on_core():
    assert bump_function((1.0, 2.0), 1.0)(1.5) == 1.0


def test_bump_vanishes_off_collar():
    assert bump_function((1.0, 2.0), 1.0)(3.0) == 0.0


def test_bump_half_way_through_collar():
    assert bump_function((1.0, 2.0), 1.0)(2.125) == pytest.approx(0.5, abs=1e-15)


def test_bump_quotient_formula_independent_recompute():
    # direct evaluation of d(y, complement) / (d(y, complement) + d(y, core))
    f = bump_function((1.0, 2.0), 1.0)
    for y in (0.8, 0.9, 1.0, 1.3, 2.05, 2.2, 2.24):
        d_core = max(0.0, 1.0 - y, y - 2.0)
        d_comp = min(max(0.0, y - 0.75), max(0.0, 2.25 - y))
        assert f(y) == pytest.approx(d_comp / (d_comp + d_core), abs=1e-15)


def test_bump_sandwiched_between_indicators():
    f = bump_function((1.0, 2.0), 0.5)
    ys = np.linspace(0, 3, 601)
    for y in ys:
        v = f(y)
        assert 0.0 <= v <= 1.0
        if 1.0 <= y <= 2.0:
            assert v == 1.0
        if y <= 1.0 - 0.125 or y >= 2.0 + 0.125:
            assert v == 0.0


def test_bump_respects_declared_lipschitz_bound():
    f = bump_function((0.5, 1.5), 0.8)
    assert f.lip_const == pytest.approx(4.0 / 0.8)
    rng = np.random.default_rng(11)
    ys = rng.uniform(0, 3, size=(10_000, 2))
    for y1, y2 in ys:
        assert abs(f(y1) - f(y2)) <= f.lip_const * abs(y1 - y2) + 1e-12


def test_bump_accepts_ball_region():
    f = bump_function(Ball(0.0, 0.1), 0.2)
    assert f(0.05) == 1.0
    assert f(0.2) == 0.0


def test_bump_rejects_empty_region():
    with pytest.raises(ValueError):
        bump_function((2.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        bump_function((1.0, 2.0), 0.0)


# ---------------------------------------------------------------------------
# measures and test functions


def test_measure_requires_ascending_support():
    with pytest.raises(ValueError):
        measure([1.0, 0.5], [0.5, 0.5])


def test_measure_requires_unit_mass():
    with pytest.raises(ValueError):
        measure([0.0, 1.0], [0.5, 0.6])


def test_measure_rejects_negative_weights():
    with pytest.raises(ValueError):
        measure([0.0, 1.0], [1.5, -0.5])


def test_from_samples_merges_duplicates():
    mu = EmpiricalMeasure.from_samples([1.0, 0.0, 1.0, 1.0])
    assert list(mu.support) == [0.0, 1.0]
    assert list(mu.weights) == [0.25, 0.75]


def test_from_samples_large_sample_mass_within_tolerance():
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure.from_samples(rng.uniform(0, 1, size=50_000))
    assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-12


def test_ball_membership_is_open():
    ball = Ball(1.0, 0.5)
    assert ball.contains(1.49)
    assert not ball.contains(1.5)


def test_ball_contains_an_array_as_its_floats():
    ball = Ball(1.0, 0.5)
    points = np.array([0.5, 0.5000000000000001, 1.0, 1.49, 1.5, -0.0])
    assert ball.contains(points).tolist() == [bool(ball.contains(x)) for x in points.tolist()]
    assert ball.contains(points).tolist() == [False, True, True, True, False, False]


def test_as_state_and_as_time_messages():
    with pytest.raises(ValueError, match=r"^state point must be a finite nonnegative real, "
                                         r"got -1$"):
        as_state(-1)
    assert as_time(3) == 3.0 and type(as_time(3)) is float
    with pytest.raises(ValueError, match=r"^time must be a finite nonnegative real, got -1\.0$"):
        as_time(-1)
    with pytest.raises(ValueError, match=r"^horizon must be a finite nonnegative real, got nan$"):
        as_time(math.nan, "horizon")


@pytest.mark.parametrize("kwargs, message", [
    (dict(sup_bound=0.0, lip_const=1.0), "sup_bound must be a positive real"),
    (dict(sup_bound=math.inf, lip_const=1.0), "sup_bound must be a positive real"),
    (dict(sup_bound=1.0, lip_const=-1.0), "lip_const must be a nonnegative real"),
    (dict(sup_bound=1.0, lip_const=math.nan), "lip_const must be a nonnegative real"),
    (dict(sup_bound=1.0, lip_const=1.0, lower=0.5, upper=0.25),
     r"value range must sit inside \[-sup_bound, sup_bound\]"),
    (dict(sup_bound=1.0, lip_const=1.0, upper=2.0),
     r"value range must sit inside \[-sup_bound, sup_bound\]"),
])
def test_test_function_rejects_bad_metadata(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TestFunction(abs, **kwargs)


@pytest.mark.parametrize("support, weights, message", [
    ([], [], "matching nonempty 1-d arrays"),
    ([0.0, 1.0], [1.0], "matching nonempty 1-d arrays"),
    ([[0.0, 1.0]], [[0.5, 0.5]], "matching nonempty 1-d arrays"),
    ([-1.0, 1.0], [0.5, 0.5], "support must consist of finite nonnegative reals"),
    ([0.0, math.inf], [0.5, 0.5], "support must consist of finite nonnegative reals"),
])
def test_measure_rejects_bad_shape_or_support(support, weights, message):
    with pytest.raises(ValueError, match=message):
        EmpiricalMeasure(np.array(support), np.array(weights))


def test_from_samples_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="cannot build a measure from an empty sample"):
        EmpiricalMeasure.from_samples([])


def test_test_function_default_range_is_symmetric():
    f = TestFunction(lambda x: math.sin(x), sup_bound=1.0, lip_const=1.0)
    assert f.lower == -1.0 and f.upper == 1.0
    assert f.value_bound == 2.0
    assert xmin1().value_bound == 1.0


def test_oracles_do_not_import_the_library():
    # exact oracles stay independent of the code they check
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    nodes = list(ast.walk(tree))
    imported = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    assert "numpy" in imported  # the walk saw the module's imports
    assert not [m for m in imported if m.split(".")[0] == "ergokit"]


def test_importing_the_oracles_loads_no_ergokit_module():
    # the import check above sees direct imports; this one also sees those
    # made through any module the oracles import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ergokit'))")
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
