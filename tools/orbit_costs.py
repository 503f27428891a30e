"""Measure the cost model behind ``ifs_jump``'s exact-law work budget.

Run from the repository root:

    PYTHONPATH=src python tools/orbit_costs.py

It prints, in nanoseconds and in point-steps (the cost of carrying one
orbit point through one sweep step):

* the sweep, as ``a * points * steps + b * steps`` on de Bruijn orbits
  (maps 2x and 2x + 1 mod n, every point within log2 n jumps of 0) of 2,
  4096 and 16 384 points, 1054 steps and three times per grid: ``a`` from
  the two large orbits, ``b`` from the small one;
* building an orbit point (its memo node, its field and map values), on
  the never-repeating orbit of the maps x/2 and (x + 1)/2;
* one sampled jump of ``terminal_state``, on the same orbit and on the
  built-in halving model (memo hits). On the orbit every new point gets a
  memo node until the memo is full, so the line includes the node builds
  its runs make before then (the warm-up run makes most of them), and
  inline selection after.

The shipped constants ``SWEEP_STEP_POINTS``, ``NODE_POINTS`` and
``JUMP_POINTS`` are these ratios, rounded.

Two more lines, in microseconds only, time the Monte Carlo that has no
exact law: one sampled jump of the same maps under the moving flow
``ExponentialFlow(0.1)``, and one ``StreamFactory.stream`` reset.

The last two time the batch-sampled chain: one ``ctmc`` trajectory from
``low:4`` to t = 4 through ``sample_terminals`` (60 000 trajectories,
uniforms included), in microseconds, and ``montecarlo._estimate`` of
``xmin1`` over 60 000 values, in nanoseconds per value.
"""

from __future__ import annotations

import time

import numpy as np

from ergokit import ifs_jump
from ergokit.core import xmin1
from ergokit.exact_ctmc import CtmcProcess, CtmcState
from ergokit.ifs_jump import ExponentialFlow, IfsModel, example_halving
from ergokit.montecarlo import StreamFactory, _estimate, sample_terminals


def best(f, repeat=7):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)


def half(x):
    return x / 2.0


def half_up(x):
    return (x + 1.0) / 2.0


def even(x):
    return (0.5, 0.5)


def de_bruijn(n):
    return IfsModel(name="de-bruijn", maps=(lambda x: (2.0 * x) % n,
                                            lambda x: (2.0 * x + 1.0) % n),
                    prob_field=even, rate=1.0)


def main():
    # measure past the shipped budget, and rebuild every node for the sweep
    # and orbit-point lines: no memo
    ifs_jump.BREAK_EVEN_SAMPLES = 10 ** 9
    memo_nodes, ifs_jump.MEMO_NODES = ifs_jump.MEMO_NODES, 0

    def sweep(n, lam_t):
        model = de_bruijn(n)
        left, w, _, _ = ifs_jump._poisson_window(lam_t)
        steps = left + len(w) - 1
        build = best(lambda: model._orbit(0.0, steps, 10 ** 12))
        total = best(lambda: model.exact_laws(0.0, [lam_t / 2, lam_t * 0.75, lam_t]))
        return steps, total - build

    # per point-step from the two largest orbits, per step from the smallest
    steps, small = sweep(2, 800.0)
    _, large = sweep(4096, 800.0)
    _, larger = sweep(16384, 800.0)
    a = (larger - large) / (12288 * steps)
    b = small / steps - 2 * a
    print(f"sweep: {a * 1e9:.1f} ns per point-step, {b * 1e6:.2f} us per step "
          f"= {b / a:.0f} points")

    orbit = IfsModel(name="orbit", maps=(half, half_up), prob_field=even, rate=1.0)
    node = min(best(lambda: orbit._orbit(0.3, depth, 10 ** 12), 3) / (2 ** (depth + 1) - 1)
               for depth in (12, 14))
    print(f"orbit point: {node * 1e6:.2f} us = {node / a:.0f} point-steps")

    # the sampled jumps run with the shipped memo, so halving's are memo hits
    ifs_jump.MEMO_NODES = memo_nodes
    halving, _ = example_halving(1.0)
    for name, model, x0 in (("never-repeating", orbit, 0.3), ("halving", halving, 10.0)):
        sample_terminals(model, x0, 200.0, 20, 1)  # warm the memo
        jump = best(lambda: sample_terminals(model, x0, 200.0, 200, 2), 3) / (200 * 200)
        print(f"sampled jump, {name}: {jump * 1e6:.2f} us = {jump / a:.0f} point-steps")

    moving = IfsModel(name="moving", maps=(half, half_up), prob_field=even, rate=1.0,
                      flow=ExponentialFlow(0.1))
    jump = best(lambda: sample_terminals(moving, 0.3, 200.0, 200, 2), 3) / (200 * 200)
    print(f"sampled jump, moving flow: {jump * 1e6:.2f} us")

    factory = StreamFactory(2)
    reset = best(lambda: [factory.stream(0, k) for k in range(10000)]) / 10000
    print(f"stream reset: {reset * 1e6:.2f} us")

    chain, low4 = CtmcProcess(), CtmcState.low(4)
    trajectory = best(lambda: sample_terminals(chain, low4, 4.0, 60000, 2)) / 60000
    print(f"ctmc trajectory, batch: {trajectory * 1e6:.3f} us")
    values, f = sample_terminals(chain, low4, 4.0, 60000, 3), xmin1()
    per_value = best(lambda: _estimate(values, f, 0.999)) / 60000
    print(f"xmin1 estimate: {per_value * 1e9:.1f} ns per value")


if __name__ == "__main__":
    main()
