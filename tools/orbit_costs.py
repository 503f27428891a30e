"""Measure the cost model behind ``ifs_jump``'s exact-law work budget.

Run from the repository root:

    PYTHONPATH=src python tools/orbit_costs.py

Each line gives the best of its repeats and, in brackets, their median:
on a shared machine a slow phase moves the best of a few repeats too, and
the gap between the two shows how far a line can be trusted. Every repeat
is preceded by the benchmark's fixed piece of pure-Python work
(``perfbench/child.py``'s ``calibrate``), so the times are given, as the
benchmark gives its commands, at one fixed machine speed: the median is
that of the repeats each scaled by ``REF_CAL_S`` over its own calibration,
and the best is the fastest raw time scaled by ``REF_CAL_S`` over the
median calibration. (A repeat's own ratio would let one slow calibration
make its repeat read fast: 0.36 us "best" against a 0.69 us median.)
It prints, in nanoseconds and in point-steps (the cost of carrying one
orbit point through one step of the forward sweep of ``exact_laws``):

* the sweep, as ``a * points * steps + b * steps`` on de Bruijn orbits
  (maps 2x and 2x + 1 mod n, every point within log2 n jumps of 0) of 2,
  4096 and 16 384 points, 1054 steps and three times per grid: ``a`` from
  the two large orbits, ``b`` from the small one;
* one point through one step of the backward sweep of ``exact_means``
  (one ball), from the same two large orbits;
* building an orbit point (its memo node, its field and map values), on
  the never-repeating orbit of the maps x/2 and (x + 1)/2;
* one sampled jump of ``sample_terminals``, on the same orbit and on the
  built-in halving model (memo hits). On the orbit every new point gets a
  memo node until the memo is full, so the line includes the node builds
  its runs make before then (the warm-up run makes most of them), and
  inline selection after.

The shipped constants ``SWEEP_STEP_POINTS``, ``NODE_POINTS`` and
``JUMP_POINTS`` are these ratios, rounded.

Three more lines, in microseconds only, time the Monte Carlo that has no
exact law: one sampled jump of the same maps under the moving flow
``ExponentialFlow(0.1)``, whose field returns one constant tuple; one
trajectory of that model that makes no jump (t = 1e-9), through
``sample_terminals``, so with its stream reset, its first block of
uniforms and its share of the cell's set-up; and one ``StreamFactory.stream``
reset.

The next three time the batch-sampled chain: one pass of the Philox
kernel ``stream_uniforms`` at the benchmark's cell shape (6000
trajectories, two draws each; ten cells per repeat), in microseconds per
trajectory; one ``ctmc`` trajectory from ``low:4`` to t = 4 through
``sample_terminals`` (60 000 trajectories, uniforms included), in
microseconds; and ``montecarlo._estimate`` of ``xmin1`` over 60 000
values, in nanoseconds per value. Two more time one exact law of the
chain from ``low:10`` through the jump-system sweep, at t = 100 and
t = 10 000, in milliseconds: the sweep takes about t/2 steps (the chain's
jump system runs at rate 1/2), so the cost grows with t, where the closed
form it replaced cost the same at every t.

The last five lines work at ``simulate``'s benchmark shape (halving from
x0 = 5 to horizon 200, 400 trajectories, about 80 000 jump times). One times
``sample_jump_chains``, as the command runs it: a fresh model and one jump
loop over the 400 streams of ``StreamFactory.streams``, each trajectory's
records handed over as the loop yields them, in microseconds per recorded
jump. One times, in microseconds per trajectory, the part of that which
does not grow with the jumps: 10 000 trajectories to t = 1e-9, which make
no jump, through that one loop (a stream reset, a first block of uniforms,
four new record lists and a times array each). Two time the ``tau_k``
texts of the recorded times, in nanoseconds per time: one ``%`` per
trajectory (``cli._percent_texts``) and the block kernel
(``_g17.g17_texts``). The last times the CSV writer on the records,
already sampled, with the block kernel as the command runs it at this
size: the table written to a temporary file, in microseconds per row.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import numpy as np

from ergokit import cli, ifs_jump
from ergokit._g17 import g17_texts
from ergokit.core import Ball, xmin1
from ergokit.exact_ctmc import CtmcProcess, CtmcState
from ergokit.ifs_jump import ExponentialFlow, IfsModel, example_halving
from ergokit.montecarlo import StreamFactory, _estimate, sample_terminals, stream_uniforms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from child import calibrate  # noqa: E402
from run import REF_CAL_S  # noqa: E402


def best(f, repeat=7):
    """Best and median time of ``repeat`` calls of f, in seconds at the
    benchmark's reference machine speed (see the module docstring), as one
    array: the costs computed from it carry both."""
    times, cals = [], []
    for _ in range(repeat):
        cals.append(calibrate())
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    scaled = [t * REF_CAL_S / cal for t, cal in zip(times, cals)]
    return np.array([min(times) * REF_CAL_S / statistics.median(cals),
                     statistics.median(scaled)])


def show(value, fmt):
    """``value`` (best, median) as ``best (median)``, each in ``fmt``."""
    return f"{value[0]:{fmt}} ({value[1]:{fmt}})"


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
        times = [lam_t / 2, lam_t * 0.75, lam_t]
        build = best(lambda: model._orbit(0.0, steps, 10 ** 12))
        forward = best(lambda: model.exact_laws(0.0, times))
        backward = best(lambda: model.exact_means([0.0], times, [Ball(0.0, 0.5)]))
        return steps, forward - build, backward - build

    # per point-step from the two largest orbits, per step from the smallest
    steps, small, _ = sweep(2, 800.0)
    _, large, large_back = sweep(4096, 800.0)
    _, larger, larger_back = sweep(16384, 800.0)
    a = (larger - large) / (12288 * steps)
    b = small / steps - 2 * a
    print(f"sweep: {show(a * 1e9, '.1f')} ns per point-step, {show(b * 1e6, '.2f')} us per "
          f"step = {show(b / a, '.0f')} points")
    back = (larger_back - large_back) / (12288 * steps)
    print(f"backward step: {show(back * 1e9, '.1f')} ns per point = "
          f"{show(back / a, '.2f')} point-steps")

    orbit = IfsModel(name="orbit", maps=(half, half_up), prob_field=even, rate=1.0)
    node = min((best(lambda: orbit._orbit(0.3, depth, 10 ** 12), 3) / (2 ** (depth + 1) - 1)
                for depth in (12, 14)), key=lambda v: v[0])
    print(f"orbit point: {show(node * 1e6, '.2f')} us = {show(node / a, '.0f')} point-steps")

    # the sampled jumps run with the shipped memo, so halving's are memo hits
    ifs_jump.MEMO_NODES = memo_nodes
    halving, _ = example_halving(1.0)
    for name, model, x0 in (("never-repeating", orbit, 0.3), ("halving", halving, 10.0)):
        sample_terminals(model, x0, 200.0, 20, 1)  # warm the memo
        jump = best(lambda: sample_terminals(model, x0, 200.0, 200, 2), 3) / (200 * 200)
        print(f"sampled jump, {name}: {show(jump * 1e6, '.2f')} us = "
              f"{show(jump / a, '.0f')} point-steps")

    moving = IfsModel(name="moving", maps=(half, half_up), prob_field=even, rate=1.0,
                      flow=ExponentialFlow(0.1))
    jump = best(lambda: sample_terminals(moving, 0.3, 200.0, 200, 2), 3) / (200 * 200)
    print(f"sampled jump, moving flow: {show(jump * 1e6, '.2f')} us")
    trajectory = best(lambda: sample_terminals(moving, 0.3, 1e-9, 10000, 2)) / 10000
    print(f"moving-flow trajectory, no jump: {show(trajectory * 1e6, '.2f')} us")

    factory = StreamFactory(2)
    reset = best(lambda: [factory.stream(0, k) for k in range(10000)]) / 10000
    print(f"stream reset: {show(reset * 1e6, '.2f')} us")

    kernel = best(lambda: [stream_uniforms(2, cell, 0, 6000, 2) for cell in range(10)]) / 60000
    print(f"philox kernel, 6000 x 2 draws: {show(kernel * 1e6, '.3f')} us per trajectory")
    chain, low4 = CtmcProcess(), CtmcState.low(4)
    trajectory = best(lambda: sample_terminals(chain, low4, 4.0, 60000, 2)) / 60000
    print(f"ctmc trajectory, batch: {show(trajectory * 1e6, '.3f')} us")
    values, f = sample_terminals(chain, low4, 4.0, 60000, 3), xmin1()
    per_value = best(lambda: _estimate(values, f, 0.999)) / 60000
    print(f"xmin1 estimate: {show(per_value * 1e9, '.1f')} ns per value")
    for t in (1e2, 1e4):
        law = best(lambda: chain.exact_laws(CtmcState.low(10), [t]), 3)
        print(f"ctmc exact law, low:10 at t = {t:g}: {show(law * 1e3, '.2f')} ms")

    def record(horizon=200.0, count=400):
        model, _ = example_halving(1.0)
        return model, list(cli.sample_jump_chains(model, 5.0, horizon,
                                                  factory.streams(0, count)))

    model, records = record()
    taus = [tau for tau, _, _, _ in records]
    jumps = sum(map(len, taus))
    per_jump = best(record) / jumps
    print(f"recorded jump, halving x0 = 5 to t = 200: {show(per_jump * 1e6, '.3f')} us")
    cell = best(lambda: record(1e-9, 10000)) / 10000
    print(f"recorded trajectory, no jump: {show(cell * 1e6, '.2f')} us in one loop")
    for name, tau_texts in (("one % per trajectory", cli._percent_texts),
                            ("block kernel", g17_texts)):
        per_text = best(lambda: deque(tau_texts(taus), maxlen=0)) / jumps
        print(f"tau_k text, {name}, {jumps} times: {show(per_text * 1e9, '.0f')} ns")
    columns = ("traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "simulate.csv")
        write = best(lambda: cli._emit(cli._format_table(
            {"command": "simulate"}, columns, (), "csv",
            cli._trajectory_chunks(records, cli._EdgeTexts(model), g17_texts)), path))
    per_row = write / jumps
    print(f"simulate writer, halving x0 = 5 to t = 200: {show(per_row * 1e6, '.3f')} us per row")


if __name__ == "__main__":
    main()
