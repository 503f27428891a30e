"""Batch trajectory estimation with rigorous confidence widths.

Determinism contract: trajectory k of cell c draws from a Philox stream
whose 256-bit counter block starts at (0, k, c, 0) under a key derived from
the master seed alone. Streams are therefore disjoint by construction, any
(cell, trajectory) pair is reproducible in isolation, and results cannot
depend on how work is scheduled. Reductions always run in trajectory order
inside a cell and in declared cell order across a batch, so a batch output
is bitwise identical for any worker count. ``sample_cells`` is the one
place where cells get their streams, and ``run_batch`` the one place where
sampled cells become estimates: every batch estimate and Monte Carlo
diagnostic reduces its (initial, time) cells through it.

Philox4x64-10 is counter based, so draw d of stream (seed, c, k) is a pure
function of its position: word ``d % 4`` of the Philox block for counter
``(d // 4 + 1, k, c, 0)`` under key ``(seed, _KEY_SALT)``, read as the
double ``(word >> 11) * 2**-53``. ``stream_uniforms`` evaluates that
formula for many trajectories of one cell in one numpy pass, bit for bit
equal to the ``StreamFactory`` stream. Processes with a batch form (the
``ctmc`` chain) are sampled from it, ``CHUNK`` trajectories at a time;
the others run their scalar sampler on one stream per trajectory.

Confidence half-widths use the Hoeffding bound for means of variables with
a known range, never a normal approximation: conservative but valid at
every sample size.
"""

from __future__ import annotations

import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Ball, TestFunction

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
_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)

# trajectories per stream_uniforms call in a batch-sampled cell: bounds the
# scratch memory of a cell whatever the sample count
CHUNK = 4096

# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LO32, _SHIFT32, _SHIFT11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


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
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


class StreamFactory:
    """Hands out the per-(cell, trajectory) Philox streams for one seed.

    Reuses a single bit generator by resetting its counter/key state, which
    is observably identical to constructing a fresh ``Philox`` but several
    times faster. Not safe to share across threads; each worker builds its
    own factory.
    """

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self._bitgen = np.random.Philox(key=np.array([self.seed, _KEY_SALT], dtype=np.uint64))
        self._template = self._bitgen.state
        self._gen = np.random.Generator(self._bitgen)

    def stream(self, cell: int, trajectory: int) -> np.random.Generator:
        """Generator positioned at the start of stream (seed, cell, trajectory)."""
        state = dict(self._template)
        state["state"] = {
            "counter": np.array([0, trajectory, cell, 0], dtype=np.uint64),
            "key": np.array([self.seed, _KEY_SALT], dtype=np.uint64),
        }
        self._bitgen.state = state
        return self._gen


def _mulhilo(m: int, x: np.ndarray) -> tuple:
    """High and low words of the 128-bit products of the constant m and x,
    the high word assembled from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)  # uint64 array products wrap modulo 2**64


def stream_uniforms(seed: int, cell: int, start: int, stop: int, draws: int) -> np.ndarray:
    """First ``draws`` uniforms of the streams (seed, cell, k), start <= k < stop.

    Row k - start equals ``StreamFactory(seed).stream(cell, k).random(draws)``
    bit for bit: each block of four draws is one Philox4x64-10 evaluation
    at counter (block + 1, k, cell, 0), vectorised over k.
    """
    seed = _check_seed(seed)
    if not 0 <= start <= stop or draws < 1:
        raise ValueError("need 0 <= start <= stop and at least one draw")
    rows = stop - start
    blocks = -(-draws // 4)
    words = np.empty((rows, 4 * blocks), dtype=np.uint64)
    for b in range(blocks):
        c0 = np.full(rows, b + 1, dtype=np.uint64)
        c1 = np.arange(start, stop, dtype=np.uint64)
        c2 = np.full(rows, cell, dtype=np.uint64)
        c3 = np.zeros(rows, dtype=np.uint64)
        k0, k1 = seed, int(_KEY_SALT)
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = (k0 + _PHILOX_W0) & _MASK64
                k1 = (k1 + _PHILOX_W1) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        words[:, 4 * b:4 * b + 4] = np.stack((c0, c1, c2, c3), axis=1)
    return (words[:, :draws] >> _SHIFT11) * (1.0 / 2 ** 53)


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
    """The times as floats, in the given order; raises ``ValueError`` unless
    there is at least one and each is finite and nonnegative."""
    grid = [float(t) for t in times]
    if not grid:
        raise ValueError("grid empty")
    if not all(0.0 <= t < math.inf for t in grid):
        raise ValueError("times must be finite and nonnegative")
    return grid


def hoeffding_half_width(value_bound: float, n: int, confidence: float) -> float:
    """Half-width so that an n-sample mean of range-bounded draws misses the
    true mean by more than this with probability at most 1 - confidence."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if not value_bound > 0.0:
        raise ValueError("value_bound must be positive")
    delta = 1.0 - confidence
    return value_bound * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def sample_terminals(process, x0, t: float, n: int, seed: int, *,
                     cell: int = 0) -> np.ndarray:
    """Terminal states of n independent trajectories, in trajectory order.

    A process with a batch form ``terminal_states(x0, t, uniforms)`` gets
    the first ``batch_draws`` uniforms of each trajectory's stream from
    ``stream_uniforms``, ``CHUNK`` trajectories at a time; any other process
    runs ``terminal_state`` on one stream per trajectory. Any sampler
    failure is re-raised with the offending trajectory index (a batch form
    fails only on inputs every trajectory shares, so that is the first one).
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    out = np.empty(n)
    if hasattr(process, "terminal_states"):
        for start in range(0, n, CHUNK):
            stop = min(start + CHUNK, n)
            uniforms = stream_uniforms(seed, cell, start, stop, process.batch_draws)
            try:
                out[start:stop] = process.terminal_states(x0, t, uniforms)
            except Exception as exc:
                raise RuntimeError(f"trajectory {start} of cell {cell}: {exc}") from exc
        return out
    factory = StreamFactory(seed)
    for k in range(n):
        try:
            out[k] = process.terminal_state(x0, t, factory.stream(cell, k))
        except Exception as exc:
            raise RuntimeError(f"trajectory {k} of cell {cell}: {exc}") from exc
    return out


def _sample_cell(job):
    process, x0, t, n, seed, cell = job
    try:
        return sample_terminals(process, x0, t, n, seed, cell=cell)
    except Exception as exc:
        return str(exc)


def sample_cells(process, cells, n: int, seed: int, workers: Optional[int] = None) -> list:
    """Terminal states of n trajectories from every ``(x0, t)`` cell, in cell order.

    Cell i draws ``sample_terminals(process, x0, t, n, seed, cell=i)``. A
    failed cell yields its error message in place of the array and never
    aborts its siblings. Cells are self-contained, so the result is bitwise
    independent of the worker count. Worker processes need the process by
    pickle; one that does not pickle raises ``ValueError`` before any pool
    is opened.
    """
    workers = resolve_workers(workers)
    jobs = [(process, x0, t, n, seed, i) for i, (x0, t) in enumerate(cells)]
    if workers == 1 or len(jobs) <= 1:
        return [_sample_cell(job) for job in jobs]
    try:
        pickle.dumps(process)
    except Exception as exc:
        name = getattr(process, "name", type(process).__name__)
        raise ValueError(f"model {name!r} cannot be sent to worker processes ({exc}); "
                         "use one worker or a module-level builder") from exc
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(_sample_cell, jobs))


def _estimate(values, functional: Union[TestFunction, Ball], confidence: float) -> Estimate:
    """Mean of a test function, or hit fraction of a ball, over the samples
    in trajectory order, with its Hoeffding half-width."""
    n = len(values)
    if isinstance(functional, Ball):
        # the IEEE operations of Ball.contains, one array at a time
        inside = np.abs(values - functional.center) < functional.radius
        total, bound = int(np.count_nonzero(inside)), 1.0
    else:
        total, bound = 0.0, functional.value_bound
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
