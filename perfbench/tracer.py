"""Layer spans for the traced benchmark run, recorded from outside ergokit.

Public entry points are wrapped at each layer boundary while a traced
command runs; nothing in the package itself is edited. Coarse calls (a
command, a diagnostic, a batch, a distance) become spans with a name,
start, end, parent span and run id. Per-trajectory calls (stream resets,
``terminal_state``, ``sample_jump_chain``) happen up to a million times per
command, so they are aggregated as counters (calls, seconds, extra counts)
on the innermost open span rather than stored one by one. Spans stay in
memory; the caller writes them out when the run ends.

A layer is the first dotted component of a span or counter name, which is
the ergokit module the wrapped call lives in.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

_clock = time.perf_counter


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # counter name -> [calls, seconds, extra counts...]
    counters: dict = field(default_factory=dict)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans for one process; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.run, name, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str, seconds: float, extra: tuple = ()) -> None:
        if not self._stack:  # call outside any traced command: not attributed
            return
        slot = self._stack[-1].counters.get(name)
        if slot is None:
            slot = self._stack[-1].counters[name] = [0, 0.0] + [0] * len(extra)
        slot[0] += 1
        slot[1] += seconds
        for i, v in enumerate(extra):
            slot[2 + i] += v

    # -- wrappers --------------------------------------------------------

    def spanned(self, name: str, fn: Callable,
                attrs: Optional[Callable] = None) -> Callable:
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result
        return wrapped

    def counted(self, name: str, fn: Callable,
                extra: Optional[Callable] = None) -> Callable:
        def wrapped(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            self.count(name, dt, extra(args, result) if extra is not None else ())
            return result
        return wrapped

    def _patch(self, owner, attr: str, make: Callable, static: bool = False) -> None:
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = make(getattr(owner, attr))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap the layer boundaries the benchmark workloads cross.

        Names are patched where the calling module looks them up (``cli``
        and ``diagnostics`` import functions by name). A name that a later
        version no longer has is skipped and listed in ``missing``.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        from ergokit import cli, diagnostics, montecarlo
        from ergokit.core import EmpiricalMeasure
        from ergokit.exact_ctmc import CtmcProcess
        from ergokit.ifs_jump import IfsModel

        self.missing = []
        self._patch(montecarlo.StreamFactory, "stream",
                    lambda f: self.counted("montecarlo.stream", f))
        self._patch(CtmcProcess, "terminal_state",
                    lambda f: self.counted("exact_ctmc.terminal_state", f))
        self._patch(IfsModel, "terminal_state",
                    lambda f: self.counted("ifs_jump.terminal_state", f, _ifs_extra))
        self._patch(cli, "sample_jump_chain",
                    lambda f: self.counted("ifs_jump.sample_jump_chain", f,
                                           lambda a, r: (len(r),)))
        for module in (cli, diagnostics):
            self._patch(module, "run_batch",
                        lambda f: self.spanned("montecarlo.run_batch", f))
        self._patch(diagnostics, "sample_terminals",
                    lambda f: self.spanned("montecarlo.sample_terminals", f))
        for name in ("lower_bound_scan", "stability_report"):
            self._patch(cli, name, lambda f, n=name: self.spanned(f"diagnostics.{n}", f))
        self._patch(diagnostics, "bl_distance",
                    lambda f: self.spanned("core.bl_distance", f, _bl_attrs))
        self._patch(EmpiricalMeasure, "from_samples",
                    lambda f: self.spanned("core.from_samples", f,
                                           lambda a, r: {"samples": len(a[0])}),
                    static=True)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def _ifs_extra(args, result) -> tuple:
    # Philox words the trajectory consumed, read from the stream's public
    # state: the stream starts each trajectory with counter word 0 at 0 and
    # an empty 4-word buffer, and each random() takes one word.
    model, stream = args[0], args[3]
    state = stream.bit_generator.state
    draws = 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4
    return (draws, int(result in model.absorbing))


def _bl_attrs(args, result) -> dict:
    import numpy as np
    mu, nu = args[0], args[1]
    return {"support_points": int(np.union1d(mu.support, nu.support).size)}


def layer_table(spans: list) -> dict:
    """Per-layer totals over spans given as dicts (from ``Tracer.dump``).

    Returns ``self_s`` per layer, where a span's self time is its duration
    minus its child spans and minus the counted calls made under it, and a
    counted call's whole time belongs to its own layer. These self times
    are derived, not measured directly. Also returns counter totals and
    per-span-name totals (calls, seconds, summed attrs).
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_s: dict = defaultdict(float)
    counters: dict = {}
    by_name: dict = {}
    for s in spans:
        dur = s["end"] - s["start"]
        hot = 0.0
        for name, slot in s["counters"].items():
            hot += slot[1]
            self_s[layer_of(name)] += slot[1]
            acc = counters.setdefault(name, [0] * len(slot))
            for i, v in enumerate(slot):
                acc[i] += v
        self_s[layer_of(s["name"])] += dur - child[s["id"]] - hot
        tot = by_name.setdefault(s["name"], {"calls": 0, "seconds": 0.0})
        tot["calls"] += 1
        tot["seconds"] += dur
        for k, v in s["attrs"].items():
            tot[k] = tot.get(k, 0) + v
    return {"self_s": dict(self_s), "counters": counters, "spans": by_name}
