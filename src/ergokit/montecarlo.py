"""Batch trajectory estimation with rigorous confidence widths.

Determinism contract: trajectory k of stream cell c draws from a Philox
stream whose 256-bit counter block starts at (0, k, c, 0) under a key
derived from the master seed alone. Streams are therefore disjoint by
construction, any (cell, trajectory) pair is reproducible in isolation,
and results cannot depend on how work is scheduled. ``sample_cells`` is
the one place where (initial, time) cells get their streams, keyed by
start under a batch form and by cell under a cell form, and ``run_batch``
the one place where sampled cells become estimates. Reductions always run
in trajectory order inside a cell and in declared cell order across a
batch, so a batch output is bitwise identical for any worker count.

Philox4x64-10 is counter based, so draw d of stream (seed, c, k) is a pure
function of its position: word ``d % 4`` of the Philox block for counter
``(d // 4 + 1, k, c, 0)`` under key ``(seed, _KEY_SALT)``, read as the
double ``(word >> 11) * 2**-53``. ``stream_uniforms`` evaluates that
formula for many trajectories of one cell in one numpy pass, bit for bit
equal to the ``StreamFactory`` stream; the work the rows share runs once,
on Python ints. A process samples in one of two forms: a batch form (the
``ctmc`` chain) from those uniforms, ``CHUNK`` trajectories at a time, each
chunk serving every time of its start, or a cell form (a jump system) in
one loop over all the streams of a cell. The built-in test functions
(``xmin1``, ``constant``, ``bump_function``) are evaluated over a cell's
samples as one array, with the scalar evaluator's IEEE operations, and
summed by ``np.cumsum``, which adds left to right as the per-value loop
of a user's test function does.

Confidence half-widths use the Hoeffding bound for means of variables with
a known range, never a normal approximation: conservative but valid at
every sample size.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Ball, TestFunction, as_time

__all__ = [
    "Estimate",
    "McSettings",
    "StreamFactory",
    "stream_uniforms",
    "hoeffding_half_width",
    "estimate_ptf",
    "sample_terminals",
    "sample_cells",
    "run_batch",
    "resolve_workers",
]

WORKERS_ENV_VAR = "ERGOKIT_WORKERS"

# second key word, a fixed odd constant so key = (seed, salt) is injective in seed
_KEY_SALT = 0x9E3779B97F4A7C15

# trajectories per stream_uniforms call in a batch-sampled cell: bounds the
# scratch memory of a cell whatever the sample count (about 1.2 MB)
CHUNK = 8192

# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LO32, _SHIFT32, _SHIFT11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
# (m, m & LO32, m >> 32) of both multipliers as a column, and of each
_MULS = np.array([[_PHILOX_M0], [_PHILOX_M1]], dtype=np.uint64)
_BY_BOTH = (_MULS, _MULS & _LO32, _MULS >> _SHIFT32)
_BY_M0, _BY_M1 = ([part[i, 0] for part in _BY_BOTH] for i in (0, 1))


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else the ERGOKIT_WORKERS variable, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def _check_seed(seed: int) -> int:
    """seed as the first key word of every stream; ``ValueError`` naming it
    unless it is an integer in [0, 2**64)."""
    try:
        word = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= word < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return word


def _counter_word(value, name: str, end: int = 2 ** 64) -> int:
    """value as a word of a stream's Philox counter; ``ValueError`` naming
    the argument unless it is an integer in [0, end)."""
    try:
        word = operator.index(value)
    except TypeError:
        word = -1
    if not 0 <= word < end:
        raise ValueError(f"{name} must be an integer from 0 to {end - 1}, got {value!r}")
    return word


class StreamFactory:
    """Hands out the per-(cell, trajectory) Philox streams for one seed.

    Reuses a single bit generator and one state dict: ``stream`` writes the
    trajectory and cell into counter words 1 and 2 of that dict in place
    and assigns it back, which restarts the generator exactly as a fresh
    ``Philox`` at counter (0, trajectory, cell, 0) would start (empty
    buffer, no cached 32-bit half) but several times faster. The dict keeps
    its words as Python ints, which the state setter reads as it reads
    arrays. Not safe to share across threads; each worker builds its own
    factory.
    """

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self._bitgen = np.random.Philox(key=np.array([self.seed, _KEY_SALT], dtype=np.uint64))
        state = self._bitgen.state
        words = state["state"]
        state["state"] = {"counter": words["counter"].tolist(), "key": words["key"].tolist()}
        state["buffer"] = state["buffer"].tolist()
        self._state = state
        self._counter = state["state"]["counter"]
        self._gen = np.random.Generator(self._bitgen)

    def stream(self, cell: int, trajectory: int) -> np.random.Generator:
        """Generator positioned at the start of stream (seed, cell, trajectory);
        raises ``ValueError`` unless both are integers in [0, 2**64)."""
        counter = self._counter
        counter[1] = _counter_word(trajectory, "trajectory")
        counter[2] = _counter_word(cell, "cell")
        self._bitgen.state = self._state
        return self._gen

    def streams(self, cell: int, n: int):
        """``stream(cell, k)`` for k = 0, ..., n - 1, in order, as an
        iterator; the cell is checked once, here, and each index needs no
        check. Every item is the one generator restarted in place, so a
        stream must be read before the next is taken."""
        counter = self._counter
        word = _counter_word(cell, "cell")
        bitgen, state, gen = self._bitgen, self._state, self._gen

        def restarted():
            for k in range(n):
                counter[1] = k
                counter[2] = word
                bitgen.state = state
                yield gen

        return restarted()


def _mulhilo(m, x: np.ndarray, hi: np.ndarray, lo: np.ndarray, t: np.ndarray,
             u: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products m x to ``hi``
    and ``lo``, m as (m, m & LO32, m >> 32), through no new array: with
    t = x_hi m_lo + (x_lo m_lo >> 32) and w = (t & LO32) + x_lo m_hi,
    hi = x_hi m_hi + (t >> 32) + (w >> 32). ``t`` and ``u`` are scratch."""
    m, m_lo, m_hi = m
    np.bitwise_and(x, _LO32, out=u)
    np.multiply(u, m_lo, out=lo)
    lo >>= _SHIFT32
    np.right_shift(x, _SHIFT32, out=t)
    np.multiply(t, m_hi, out=hi)
    t *= m_lo
    t += lo
    np.bitwise_and(t, _LO32, out=lo)
    t >>= _SHIFT32
    hi += t
    u *= m_hi
    u += lo
    u >>= _SHIFT32
    hi += u
    np.multiply(x, m, out=lo)  # uint64 array products wrap modulo 2**64


def stream_uniforms(seed: int, cell: int, start: int, stop: int, draws: int) -> np.ndarray:
    """First ``draws`` uniforms of the streams (seed, cell, k), start <= k < stop.

    Row k - start equals ``StreamFactory(seed).stream(cell, k).random(draws)``
    bit for bit: each block of four draws is one Philox4x64-10 evaluation
    at counter (block + 1, k, cell, 0), vectorised over k. Python ints
    carry what the rows share: round 0 but one XOR with k, round 1's M1
    and round 2's M0 product. Later rounds multiply (c0, c2) as one array,
    and the last round of a block that keeps at most two words computes
    only c0 and c1. Raises ``ValueError``, naming the argument, unless
    cell and start are integers in [0, 2**64), stop one in [start, 2**64]
    and draws a positive integer.
    """
    seed = _check_seed(seed)
    cell = _counter_word(cell, "cell")
    start = _counter_word(start, "start")
    stop = _counter_word(stop, "stop", 2 ** 64 + 1)
    try:
        width = operator.index(draws)
    except TypeError:
        width = 0
    if width < 1:
        raise ValueError(f"draws must be a positive integer, got {draws!r}")
    if not start <= stop:
        raise ValueError("need start <= stop")
    k0 = [(seed + r * _PHILOX_W0) & _MASK64 for r in range(_PHILOX_ROUNDS)]
    k1 = [(_KEY_SALT + r * _PHILOX_W1) & _MASK64 for r in range(_PHILOX_ROUNDS)]
    keys = np.array(list(zip(k0, k1)), dtype=np.uint64)[:, :, None]
    out = np.empty((stop - start, width))
    # (c0, c2) and (c1, c3) are the rows of x and y. The rounds run in one
    # pool of arrays per call: temporaries per operation can take fresh
    # pages from malloc on every call (~990 faults per ctmc estimate).
    x, y, hi, lo, t, u = np.empty((6, 2, stop - start), dtype=np.uint64)
    hi_cell, lo_cell = divmod(_PHILOX_M1 * cell, 1 << 64)
    for b in range(-(-width // 4)):
        keep = min(4, width - 4 * b)
        # round 0 of (b + 1, k, cell, 0), and round 1 of the new c0
        x[0] = np.arange(start, stop, dtype=np.uint64)
        x[0] ^= np.uint64(hi_cell ^ k0[0])
        _mulhilo(_BY_M0, x[0], hi[0], lo[0], t[0], u[0])
        hi0, lo0 = divmod(_PHILOX_M0 * (b + 1), 1 << 64)
        hi1, lo1 = divmod(_PHILOX_M1 * (hi0 ^ k1[0]), 1 << 64)
        # round 2 of (hi1 ^ lo_cell ^ k0, lo1, hi[0] ^ lo0 ^ k1, lo[0])
        np.bitwise_xor(hi[0], np.uint64(lo0 ^ k1[1]), out=x[1])
        hi0, lo0 = divmod(_PHILOX_M0 * (hi1 ^ lo_cell ^ k0[1]), 1 << 64)
        _mulhilo(_BY_M1, x[1], hi[1], y[0], t[1], u[1])
        np.bitwise_xor(hi[1], np.uint64(lo1 ^ k0[2]), out=x[0])
        np.bitwise_xor(lo[0], np.uint64(hi0 ^ k1[2]), out=x[1])
        y[1].fill(np.uint64(lo0))
        for r in range(3, _PHILOX_ROUNDS - (keep <= 2)):
            _mulhilo(_BY_BOTH, x, hi, lo, t, u)
            np.bitwise_xor(hi[::-1], y, out=x)  # (hi1 ^ c1, hi0 ^ c3)
            x ^= keys[r]
            y, lo = lo[::-1], y  # (lo1, lo0)
        if keep > 2:
            words = (x[0], y[0], x[1], y[1])
        else:
            _mulhilo(_BY_M1, x[1], hi[1], lo[1], t[1], u[1])
            np.bitwise_xor(hi[1], y[0], out=x[0])
            x[0] ^= keys[-1, 0]
            words = (x[0], lo[1])
        for j, word in enumerate(words[:keep]):
            word >>= _SHIFT11
            np.multiply(word, 2.0 ** -53, out=out[:, 4 * b + j])
    return out


@dataclass(frozen=True)
class McSettings:
    """Monte Carlo budget of a batch estimate or sampling diagnostic."""

    n_samples: int = 10_000
    seed: int = 0
    confidence: float = 0.999
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with a Hoeffding confidence half-width."""

    mean: float
    n_samples: int
    half_width: float
    confidence: float
    value_bound: float

    def brackets(self, target: float) -> bool:
        return abs(self.mean - target) <= self.half_width


def _time_grid(times) -> list:
    """The times, in the given order, each read by ``core.as_time``; raises
    ``ValueError`` on an empty grid."""
    grid = [as_time(t) for t in times]
    if not grid:
        raise ValueError("grid empty")
    return grid


def hoeffding_half_width(value_bound: float, n: int, confidence: float) -> float:
    """Half-width so that an n-sample mean of range-bounded draws misses the
    true mean by more than this with probability at most 1 - confidence; 0
    for draws of range 0, which never miss."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if not value_bound >= 0.0:
        raise ValueError("value_bound must be nonnegative")
    delta = 1.0 - confidence
    return value_bound * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def sample_terminals(process, x0, t: float, n: int, seed: int, *,
                     cell: int = 0) -> np.ndarray:
    """Terminal states of n independent trajectories, in trajectory order.

    A process samples in one of two forms. A batch form
    ``terminal_states(x0, t, uniforms)`` (the ``ctmc`` chain) gets the
    first ``batch_draws`` uniforms of each trajectory's stream from
    ``stream_uniforms``, ``CHUNK`` trajectories at a time. A cell form
    ``terminal_states_from(x0, t, streams)`` (a jump system) gets the
    cell's streams in one call and runs its set-up once. Any sampler
    failure is re-raised with the offending trajectory index (a batch form
    fails only on inputs every trajectory shares, so that is the first one).
    A process with neither form, or a cell that is not an integer in
    [0, 2**64), raises ``ValueError`` before any sampling.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    cell = _counter_word(cell, "cell")
    batch = hasattr(process, "terminal_states")
    if not (batch or hasattr(process, "terminal_states_from")):
        raise ValueError("a process needs a batch form terminal_states(x0, t, uniforms) "
                         "or a cell form terminal_states_from(x0, t, streams)")
    if batch:
        out, = _batch_terminals(process, x0, (t,), n, seed, cell)
        if isinstance(out, Exception):
            raise out
        return out
    out = np.empty(n)
    streams = StreamFactory(seed).streams(cell, n)
    k = 0
    try:
        for value in process.terminal_states_from(x0, t, streams):
            out[k] = value
            k += 1
    except Exception as exc:
        raise RuntimeError(f"trajectory {k} of cell {cell}: {exc}") from exc
    return out


def _batch_terminals(process, x0, times, n: int, seed: int, cell: int) -> list:
    """Per time, a batch form's states of trajectories (seed, cell, k),
    k < n, from x0, or the error that time raised."""
    outs = [np.empty(n) for _ in times]
    for start in range(0, n, CHUNK):
        uniforms = stream_uniforms(seed, cell, start, min(start + CHUNK, n), process.batch_draws)
        for j, t in enumerate(times):
            try:
                if isinstance(outs[j], np.ndarray):
                    outs[j][start:start + CHUNK] = process.terminal_states(x0, t, uniforms)
            except Exception as exc:
                outs[j] = RuntimeError(f"trajectory {start} of cell {cell}: {exc}")
                outs[j].__cause__ = exc
    return outs


def _sample_job(job) -> list:
    """Per time of one ``sample_cells`` job, its states or error message."""
    process, x0, times, n, seed, key = job
    try:
        if len(times) == 1 or n < 1:  # a cell form's job has one time
            return [sample_terminals(process, x0, times[0], n, seed, cell=key)]
        return [out if isinstance(out, np.ndarray) else str(out)
                for out in _batch_terminals(process, x0, times, n, seed, key)]
    except Exception as exc:
        return [str(exc)] * len(times)


def sample_cells(process, cells, n: int, seed: int, workers: Optional[int] = None) -> list:
    """Terminal states of n trajectories from every ``(x0, t)`` cell, in cell order.

    Under a batch form, the cells of the start at position s among the
    distinct starts (by ``==``, in order of first appearance) equal
    ``sample_terminals(process, x0, t, n, seed, cell=s)``, one block of
    uniforms serving all their times; under a cell form, cell i equals
    ``sample_terminals(..., cell=i)``. A failed cell yields its error
    message and never aborts its siblings. Jobs (starts or cells) are
    self-contained, so the result is bitwise independent of the worker
    count. A process that does not pickle raises ``ValueError`` before any
    pool opens.
    """
    workers = resolve_workers(workers)
    cells = list(cells)
    batch = hasattr(process, "terminal_states")
    groups: dict = {}  # the cell indices of each job, a start or a cell
    for i, (x0, _) in enumerate(cells):
        groups.setdefault(x0 if batch else i, []).append(i)
    jobs = [(process, cells[idx[0]][0], tuple(cells[i][1] for i in idx), n, seed, key)
            for key, idx in enumerate(groups.values())]
    if workers == 1 or len(jobs) <= 1:
        done = [_sample_job(job) for job in jobs]
    else:
        try:
            pickle.dumps(process)
        except Exception as exc:
            name = getattr(process, "name", type(process).__name__)
            raise ValueError(f"model {name!r} cannot be sent to worker processes ({exc}); "
                             "use one worker or a module-level builder") from exc
        # imported here: the pool machinery costs a fresh interpreter ~10 ms,
        # which a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            done = list(pool.map(_sample_job, jobs))
    results = [None] * len(cells)
    for idx, values in zip(groups.values(), done):
        for i, cell in zip(idx, values):
            results[i] = cell
    return results


def _array_sum(functional: TestFunction, values: np.ndarray) -> Optional[float]:
    """The loop's sum of a built-in test function over the samples, from
    one array pass with the loop's IEEE operations, or None where the loop
    must run: a user's evaluator (its return type sets the precision of
    the sum), a sample off the half-line (finite nonnegative states cannot
    overflow the built-ins or their sum, so no warning goes missing), or a
    value the evaluator raises on."""
    array = getattr(functional, "_array", None)
    if array is None or not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
        return None
    # a constant's loop adds Python floats, which overflow without a warning
    with np.errstate(all="ignore"):
        terms = array(values)
        # cumsum adds left to right as the loop does; + 0.0 is the loop's
        # 0.0 start, which turns a sum of -0.0 terms into 0.0
        return None if terms is None else float(np.cumsum(terms)[-1]) + 0.0


def _estimate(values, functional: Union[TestFunction, Ball], confidence: float) -> Estimate:
    """Mean of a test function, or hit fraction of a ball, over the samples
    in trajectory order, with its Hoeffding half-width."""
    n = len(values)
    if isinstance(functional, Ball):
        total, bound = int(np.count_nonzero(functional.contains(values))), 1.0
    else:
        bound = functional.value_bound
        total = _array_sum(functional, values)
        if total is None:
            total = 0.0
            for v in values:  # fixed trajectory order
                total += functional(v)
    return Estimate(mean=total / n, n_samples=n,
                    half_width=hoeffding_half_width(bound, n, confidence),
                    confidence=confidence, value_bound=bound)


def estimate_ptf(process, x0, t: float, f: TestFunction, n: int, seed: int, *,
                 cell: int = 0, confidence: float = 0.999) -> Estimate:
    """Empirical mean of f at the time-t state from x0 over n trajectories."""
    return _estimate(sample_terminals(process, x0, t, n, seed, cell=cell), f, confidence)


def run_batch(process, cells: Sequence, functionals: Sequence, mc: McSettings,
              confidence: float) -> list:
    """Every functional's estimate at every ``(x0, t)`` cell, in cell order.

    Each cell is sampled once by ``sample_cells`` and gives the list of its
    ``Estimate``s, one per functional in order, each with its Hoeffding
    half-width at ``confidence``; the mean of a ``Ball`` is its hit
    probability. A failed cell, or one where a functional raises on a
    sample, yields its error message in place of the list and never aborts
    its siblings. The result is bitwise independent of the worker count.
    """
    results = []
    for values in sample_cells(process, cells, mc.n_samples, mc.seed, mc.workers):
        if not isinstance(values, str):
            try:
                values = [_estimate(values, fn, confidence) for fn in functionals]
            except Exception as exc:  # a functional failing on a sample
                values = str(exc)
        results.append(values)
    return results
