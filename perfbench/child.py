"""Runs one workload's commands inside a fresh interpreter.

Invoked by ``run.py`` as ``python3 perfbench/child.py CONFIG.json`` with
the checkout's ``src`` on ``PYTHONPATH``. Every command goes through the
public ``ergokit.cli.main`` entry point, one after another in this one
process (a closed loop with a single caller). The child only executes and
times; ``run.py`` checks the outputs and computes the metrics from the
result file this writes.

Each timed command is preceded by ``calibrate()``, so ``run.py`` can
express it at a fixed CPU speed.

Modes:

* ``setup``: time from ``import ergokit`` to the answer of the workload's
  command at one sample per cell, in a process that has not imported
  ergokit before.
* ``measure``: one untimed reference command, then timed commands until
  the window closes, then (outside the timed region) the ``--workers 2``
  byte-identity run, the optional replay the oracle needs, and in traced
  mode the layer probes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from itertools import product
from pathlib import Path

clock = time.perf_counter
CAL_ROWS = 12_000


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work that never touches
    ergokit, a gauge of how fast this machine runs right now.

    It does what every workload does a lot of (float arithmetic, tuple and
    list allocation, float formatting, string joins); this tracked the
    drifts of the CLI commands better than a plain integer loop did. Rows
    are joined and dropped 100 at a time so that the calibration never
    sets the process's peak resident memory.
    """
    t0 = clock()
    rows = []
    x = 0.1
    for i in range(CAL_ROWS):
        x = x * 1.0000001 + 0.5
        rows.append((i, f"{x:.17g}", f"{x / 3.0:.17g}"))
        if len(rows) == 100:
            "\n".join(",".join(map(str, r)) for r in rows)
            rows.clear()
    return clock() - t0


def _digest(path: str):
    p = Path(path)
    if not p.is_file():
        return None
    return hashlib.sha256(p.read_bytes()).hexdigest()


def _run(main, argv: list, tracer=None) -> dict:
    """One command through the CLI entry point, timed end to end."""
    span = tracer.open("cli.main") if tracer is not None else None
    error = None
    t0 = clock()
    try:
        rc = main(argv)
    except Exception:  # a crash is a failed check, not a benchmark abort
        rc, error = -1, traceback.format_exc(limit=3)
    wall = clock() - t0
    if span is not None:
        tracer.close(span)
    return {"rc": rc, "wall": wall, "error": error}


def _import_cli(cfg: dict):
    import ergokit.cli as cli
    if cfg.get("register_expflow"):
        import models
        cli.register_model(models.NAME, models.build_expflow)
    return cli


def setup(cfg: dict) -> dict:
    cal = calibrate()
    t0 = clock()
    cli = _import_cli(cfg)
    rec = _run(cli.main, cfg["argv"])
    rec["setup_s"] = clock() - t0
    rec["cal"] = cal
    rec["module"] = sys.modules["ergokit"].__file__
    return rec


def _replay_expflow(spec: dict) -> dict:
    """E[min(X, 2)] of each sampled law, resampled through public calls in
    the order ``stability_report`` assigns cells (initials x sorted times)."""
    import numpy as np
    from ergokit.montecarlo import sample_terminals
    import models

    model, _ = models.build_expflow(1.0)
    out = {}
    cells = product(spec["initials"], sorted(spec["t_grid"]))
    for idx, (x, t) in enumerate(cells):
        values = sample_terminals(model, x, t, spec["n"], spec["seed"], cell=idx)
        out[f"{model.state_label(x)}@{t:g}"] = float(np.minimum(values, 2.0).mean())
    return out


def _probes(tracer, seed: int) -> None:
    """Fixed small calls of each layer, recorded under run id ``probe``.

    They give a unit cost for a layer the workload itself never calls, so
    every per-layer time in the traced result is a measurement.
    """
    import numpy as np
    from ergokit import cli, diagnostics, montecarlo
    from ergokit.core import EmpiricalMeasure
    from ergokit.diagnostics import McSettings
    from ergokit.exact_ctmc import CtmcProcess, CtmcState
    from ergokit.ifs_jump import example_halving

    halving, _ = example_halving(1.0)
    tracer.run = "probe"
    root = tracer.open("probe")
    montecarlo.sample_terminals(CtmcProcess(), CtmcState.low(2), 4.0, 2000, seed)
    montecarlo.sample_terminals(halving, 5.0, 100.0, 20, seed)
    factory = montecarlo.StreamFactory(seed)
    for k in range(20):
        cli.sample_jump_chain(halving, 5.0, 100.0, factory.stream(1, k))
    law = EmpiricalMeasure.from_samples(3.0 * np.random.default_rng(seed).random(2000))
    diagnostics.bl_distance(law, EmpiricalMeasure.point_mass(0.0))
    cli.lower_bound_scan(halving, 0.0, 0.1, [0.5, 2.0], [5.0, 10.0],
                         McSettings(n_samples=50, seed=seed))
    tracer.close(root)


def measure(cfg: dict) -> dict:
    import numpy

    cli = _import_cli(cfg)
    argv, out = cfg["argv"], cfg["out"]
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    ref = _run(cli.main, argv)
    ref["digest"] = _digest(out)
    if ref["digest"] is not None:
        shutil.copyfile(out, cfg["reference"])

    reps = []
    min_reps = 4 if tracer is not None else 3
    deadline = clock() + cfg["seconds"]
    while len(reps) < min_reps or clock() < deadline:
        # traced and untraced commands alternate, so the overhead ratio
        # compares commands made under the same machine conditions
        traced = tracer is not None and len(reps) % 2 == 0
        cal = calibrate()
        if traced:
            tracer.run = f"rep{len(reps)}"
            tracer.install()
        rec = _run(cli.main, argv, tracer if traced else None)
        if traced:
            tracer.uninstall()
        rec["traced"] = traced
        rec["cal"] = cal
        rec["digest"] = _digest(out)
        reps.append(rec)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"python": platform.python_version(), "numpy": numpy.__version__,
              "module": sys.modules["ergokit"].__file__, "reference": ref,
              "reps": reps, "peak_rss_kb": peak_rss_kb}
    cal = calibrate()
    result["pool"] = dict(_run(cli.main, cfg["pool_argv"]), cal=cal, digest=_digest(out))
    if cfg.get("replay"):
        result["replay"] = _replay_expflow(cfg["replay"])
    if tracer is not None:
        tracer.install()
        try:
            _probes(tracer, cfg["seed"])
        finally:
            tracer.uninstall()
        result["spans"] = tracer.dump()
        result["missing"] = tracer.missing
    return result


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text())
    result = setup(cfg) if cfg["mode"] == "setup" else measure(cfg)
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
