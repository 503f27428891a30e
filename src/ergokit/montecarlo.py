"""Batch trajectory estimation with rigorous confidence widths.

Determinism contract: trajectory k of cell c draws from a Philox stream
whose 256-bit counter block starts at (0, k, c, 0) under a key derived from
the master seed alone. Streams are therefore disjoint by construction, any
(cell, trajectory) pair is reproducible in isolation, and results cannot
depend on how work is scheduled. Reductions always run in trajectory order
inside a cell and in declared cell order across a batch, so a batch output
is bitwise identical for any worker count. ``sample_cells`` is the one
place where cells get their streams: every batch estimate and Monte Carlo
diagnostic samples its (initial, time) cells through it.

Confidence half-widths use the Hoeffding bound for means of variables with
a known range, never a normal approximation: conservative but valid at
every sample size.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Optional, Union

import numpy as np

from .core import Ball, TestFunction

__all__ = [
    "Estimate",
    "SamplingPlan",
    "CellResult",
    "StreamFactory",
    "hoeffding_half_width",
    "estimate_ptf",
    "estimate_hit",
    "sample_terminals",
    "sample_cells",
    "run_batch",
    "resolve_workers",
]

WORKERS_ENV_VAR = "ERGOKIT_WORKERS"

# second key word, a fixed odd constant so key = (seed, salt) is injective in seed
_KEY_SALT = np.uint64(0x9E3779B97F4A7C15)


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


class StreamFactory:
    """Hands out the per-(cell, trajectory) Philox streams for one seed.

    Reuses a single bit generator by resetting its counter/key state, which
    is observably identical to constructing a fresh ``Philox`` but several
    times faster. Not safe to share across threads; each worker builds its
    own factory.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
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


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with a Hoeffding confidence half-width."""

    mean: float
    n_samples: int
    half_width: float
    confidence: float
    value_bound: float

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def brackets(self, target: float) -> bool:
        return abs(self.mean - target) <= self.half_width


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

    Any sampler failure is re-raised with the offending trajectory index.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    factory = StreamFactory(seed)
    out = np.empty(n)
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
    independent of the worker count.
    """
    workers = resolve_workers(workers)
    jobs = [(process, x0, t, n, seed, i) for i, (x0, t) in enumerate(cells)]
    if workers == 1 or len(jobs) <= 1:
        return [_sample_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(_sample_cell, jobs))


def _estimate(values, functional: Union[TestFunction, Ball], confidence: float) -> Estimate:
    """Mean of a test function, or hit fraction of a ball, over the samples
    in trajectory order, with its Hoeffding half-width."""
    n = len(values)
    if isinstance(functional, Ball):
        total, bound = sum(1 for v in values if functional.contains(v)), 1.0
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


def estimate_hit(process, x0, t: float, ball: Ball, n: int, seed: int, *,
                 cell: int = 0, confidence: float = 0.999) -> Estimate:
    """Empirical probability that the time-t state lands in the ball."""
    return _estimate(sample_terminals(process, x0, t, n, seed, cell=cell), ball, confidence)


@dataclass(frozen=True)
class SamplingPlan:
    """Grid of estimation cells: initials x times x functionals, in order."""

    process: object
    initials: tuple
    times: tuple
    functionals: tuple  # TestFunction or Ball entries
    n_samples: int
    seed: int
    confidence: float = 0.999

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not self.initials or not self.times or not self.functionals:
            raise ValueError("plan grids must be nonempty")
        for t in self.times:
            if t < 0.0:
                raise ValueError("times must be nonnegative")

    def cells(self):
        return list(enumerate(product(self.initials, self.times, self.functionals)))


@dataclass(frozen=True)
class CellResult:
    cell_index: int
    initial: str
    time: float
    functional: str
    estimate: Optional[Estimate]
    error: Optional[str] = None


def run_batch(plan: SamplingPlan, workers: Optional[int] = None) -> list[CellResult]:
    """Evaluate every cell of the plan; failures never abort sibling cells.

    Results come back in cell order and are bitwise independent of the
    worker count because cells are self-contained and reduced in order.
    """
    cells = plan.cells()
    samples = sample_cells(plan.process, [(x0, t) for _, (x0, t, _) in cells],
                           plan.n_samples, plan.seed, workers)
    results = []
    for (idx, (x0, t, fn)), values in zip(cells, samples):
        est, error = None, None
        if isinstance(values, str):
            error = values
        else:
            try:
                est = _estimate(values, fn, plan.confidence)
            except Exception as exc:  # a functional failing on a sample
                error = str(exc)
        name = fn.label if isinstance(fn, Ball) else fn.name
        results.append(CellResult(idx, plan.process.state_label(x0), float(t), name, est, error))
    return results
