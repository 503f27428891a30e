"""ergokit benchmark: four CLI workloads, time to answer, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload halving-scan --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

Each workload is one fixed ``ergokit`` command whose random inputs (the
master seed) come from ``--seed``. A single caller runs the commands one
after another with ``--workers 1`` through the public ``ergokit.cli.main``
entry point, in a fresh interpreter that imports ergokit from ``src/`` of
this checkout (see ``child.py``). Every output is checked against a
reference built here that does not import ergokit (``oracles.py``), and
every command's bytes must equal the first command's and those of one
``--workers 2`` run.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: time from ``import ergokit`` to the answer of the command
  at one sample per cell (one trajectory for ``simulate``): import, model,
  plan and stream set-up plus a negligible amount of sampling. Median over
  fresh interpreters, half of them before and half after the timed window.
* ``wall_s``: median time of one command at the workload's sample count.
  The Hoeffding half-width depends only on that count and the confidence,
  so this is the time to reach the stated accuracy.
* ``peak_rss_mb``: peak resident memory of the process running the
  commands, read before the ``--workers 2`` run.

Both times are given at a fixed machine speed: each command is preceded
by a fixed piece of pure-Python work (``child.calibrate``) and its time is
scaled by ``REF_CAL_S`` over that work's time. The CPU speed of a shared virtual
machine drifts: on 2 vCPUs, phases in which ergokit ran 1.3 to 1.8 times
slower lasted from seconds to minutes. Over ten 20 s runs per workload the
raw median command time spread by 6% to 13% (quartile spread over median),
the calibrated one by 3% to 7%. The raw median and the fastest raw command
are printed beside each time.

``failed_frac`` (failed checks / checks attempted) is printed by name and
carried by the ``failed`` and ``attempted`` fields of the result.

With ``--trace 1`` traced and untraced commands alternate and the result
holds the per-layer metrics (see ``layer_metrics``); spans and the layer
table are written to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
Every result is appended, with its environment, to
``.perfbench_out/results.jsonl``. The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from tracer import layer_table

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 6  # fresh interpreters per run, half before the window
# seconds child.calibrate takes on an idle 2.1 GHz Xeon vCPU; a timed
# command is reported as wall * REF_CAL_S / (its calibration's time)
REF_CAL_S = 0.025
# every run, with its set-up, checks and builds, must end well within this
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # the fixed command, without seed, size, workers and output
    size_flag: str  # --samples, or --trajectories for simulate
    size: int  # tuned so that one command takes 0.5 to 1 s
    check: Callable  # (checks, output path, size, replay) -> data rows read
    expflow: bool = False  # register the custom model and replay its laws


CTMC_X0 = ("low:2", "low:4", "high:3")
CTMC_TIMES = (1.0, 4.0, 16.0)
CTMC_BALL = (0.0, 0.1)
SCAN_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
SCAN_T = (100.0, 150.0, 200.0)
SCAN_EPS = 0.1
EXPFLOW_X = (0.0, 1.0, 2.0)
EXPFLOW_T = (10.0, 20.0)
SIM_X0, SIM_HORIZON = 5.0, 200.0


def _csv(values) -> str:
    return ",".join(v if isinstance(v, str) else f"{v:g}" for v in values)


WORKLOADS = {w.name: w for w in (
    Workload(
        "ctmc-estimate",
        "many cheap 2-draw ctmc trajectories: per-trajectory montecarlo overhead and "
        "stream resets dominate; ifs_jump is bypassed",
        ("estimate", "--model", "ctmc", "--x0", _csv(CTMC_X0), "--times", _csv(CTMC_TIMES),
         "--f", "xmin1", "--ball", _csv(CTMC_BALL)),
        "--samples", 6000,
        lambda c, path, n, _: oracles.check_estimate(c, path, CTMC_X0, CTMC_TIMES,
                                                  CTMC_BALL, n)),
    Workload(
        "halving-scan",
        "criterion-7a grid: ~200-jump halving trajectories, so the ifs_jump "
        "terminal_state loop dominates and stream resets are under 1%",
        ("diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", f"{SCAN_EPS:g}",
         "--x-grid", _csv(SCAN_X), "--t-grid", _csv(SCAN_T)),
        "--samples", 100,
        lambda c, path, n, _: oracles.check_lowerbound(c, path, SCAN_X, SCAN_T, SCAN_EPS)),
    Workload(
        "expflow-stability",
        "custom model with continuous laws: every sample is its own atom, so "
        "core.bl_distance runs on thousands of support points",
        ("diagnose", "stability", "--model", "expflow", "--initials", _csv(EXPFLOW_X),
         "--t-grid", _csv(EXPFLOW_T)),
        "--samples", 1000,
        lambda c, path, n, replay: oracles.check_stability(c, path, EXPFLOW_X, EXPFLOW_T,
                                                           replay),
        expflow=True),
    Workload(
        "halving-simulate",
        "records every jump of ~200-jump trajectories through sample_jump_chain; "
        "cli row formatting and writing is the main cost",
        ("simulate", "--model", "halving", "--x0", f"{SIM_X0:g}", "--horizon", f"{SIM_HORIZON:g}"),
        "--trajectories", 400,
        lambda c, path, n, _: oracles.check_simulate(c, path, SIM_X0, SIM_HORIZON, n)),
)}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _calibrated(times, cals):
    return [t * REF_CAL_S / c for t, c in zip(times, cals)]


def _run_child(cfg: dict, work: Path, deadline: float) -> dict:
    """Run child.py on one config in its own session and return its result."""
    stem = f"{cfg['mode']}-{time.monotonic_ns()}"
    cfg_path, result_path = work / f"{stem}.cfg.json", work / f"{stem}.result.json"
    cfg = dict(cfg, result=str(result_path))
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), ERGOKIT_WORKERS="1")
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("child.py")),
                             str(cfg_path)], env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        raise BenchError(f"{cfg['mode']} child exceeded the run time limit")
    finally:
        cfg_path.unlink(missing_ok=True)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{cfg['mode']} child failed ({proc.returncode}):\n{err[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    module = Path(result["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise BenchError(f"imported ergokit from {module}, not from this checkout")
    return result


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():  # a bare checkout, or one nested in another repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def layer_metrics(spans: list, untraced: list, traced: list, pool: float, rows: int,
                  out_bytes: int) -> dict:
    """Per-layer metrics of one workload's traced commands.

    Counts and self times are the median over traced commands (counts
    repeat exactly). Self times are derived (span minus child spans minus
    counted calls) and include the tracing cost of the calls under them.
    A unit cost (``us_per_*``, ``ns_per_*``) comes from the workload's own
    calls; when the workload never calls that layer it comes from the
    fixed probe calls instead, so every time is measured. The source of
    each value is recorded next to it. Command times come in calibrated
    (see ``_calibrated``), so the two ratios of command times compare
    commands made at different moments at the same CPU speed.
    """
    runs: dict = {}
    for s in spans:
        runs.setdefault(s["run"], []).append(s)
    probe = layer_table(runs.pop("probe", []))
    tables = [layer_table(v) for v in runs.values()]
    out: dict = {}

    def put(name, value, unit, source="workload"):
        out[name] = {"value": value, "unit": unit, "source": source}

    def counter(t, name, i=0):
        slot = t["counters"].get(name)
        return slot[i] if slot else 0

    def span(t, name, key):
        return t["spans"].get(name, {}).get(key, 0)

    def per_cmd(fn):
        return _median([fn(t) for t in tables])

    def unit_cost(name, unit, scale, seconds, units):
        if tables and all(units(t) > 0 for t in tables):
            put(name, _median([seconds(t) / units(t) * scale for t in tables]), unit)
        else:
            n = units(probe)
            put(name, seconds(probe) / n * scale if n else 0.0, unit, "probe")

    command_s = per_cmd(lambda t: span(t, "cli.main", "seconds"))
    stream, ctmc = "montecarlo.stream", "exact_ctmc.terminal_state"
    ifs, chain = "ifs_jump.terminal_state", "ifs_jump.sample_jump_chain"
    put("montecarlo.stream.calls", per_cmd(lambda t: counter(t, stream)), "count")
    unit_cost("montecarlo.stream.us_per_call", "us", 1e6,
              lambda t: counter(t, stream, 1), lambda t: counter(t, stream))
    put("montecarlo.self_s", per_cmd(lambda t: t["self_s"].get("montecarlo", 0.0)), "s",
        "derived")
    put("montecarlo.run_batch.pool_speedup", _median(untraced) / pool, "ratio")
    put("exact_ctmc.terminal_state.calls", per_cmd(lambda t: counter(t, ctmc)), "count")
    unit_cost("exact_ctmc.terminal_state.us_per_call", "us", 1e6,
              lambda t: counter(t, ctmc, 1), lambda t: counter(t, ctmc))
    put("ifs_jump.terminal_state.calls", per_cmd(lambda t: counter(t, ifs)), "count")
    put("ifs_jump.terminal_state.draws", per_cmd(lambda t: counter(t, ifs, 2)), "count")
    unit_cost("ifs_jump.terminal_state.ns_per_draw", "ns", 1e9,
              lambda t: counter(t, ifs, 1), lambda t: counter(t, ifs, 2))
    put("ifs_jump.terminal_state.absorbed_frac",
        per_cmd(lambda t: counter(t, ifs, 3) / max(counter(t, ifs), 1)), "frac")
    put("ifs_jump.sample_jump_chain.calls", per_cmd(lambda t: counter(t, chain)), "count")
    put("ifs_jump.sample_jump_chain.jumps", per_cmd(lambda t: counter(t, chain, 2)), "count")
    unit_cost("ifs_jump.sample_jump_chain.us_per_jump", "us", 1e6,
              lambda t: counter(t, chain, 1), lambda t: counter(t, chain, 2))
    unit_cost("core.from_samples.us_per_sample", "us", 1e6,
              lambda t: span(t, "core.from_samples", "seconds"),
              lambda t: span(t, "core.from_samples", "samples"))
    put("core.bl_distance.calls", per_cmd(lambda t: span(t, "core.bl_distance", "calls")),
        "count")
    put("core.bl_distance.support_points",
        per_cmd(lambda t: span(t, "core.bl_distance", "support_points")), "count")
    unit_cost("core.bl_distance.us_per_point", "us", 1e6,
              lambda t: span(t, "core.bl_distance", "seconds"),
              lambda t: span(t, "core.bl_distance", "support_points"))
    put("diagnostics.self_frac",
        per_cmd(lambda t: t["self_s"].get("diagnostics", 0.0)) / command_s if command_s
        else 0.0, "frac", "derived")
    cli_self = per_cmd(lambda t: t["self_s"].get("cli", 0.0))
    put("cli.rows", rows, "count")
    put("cli.out_bytes", out_bytes, "bytes")
    put("cli.self_s", cli_self, "s", "derived")
    put("cli.us_per_row", cli_self / rows * 1e6 if rows else 0.0, "us", "derived")
    put("trace.overhead_frac", _median(traced) / _median(untraced) - 1.0, "frac")
    return out


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = OUT_DIR / w.name
    work.mkdir(parents=True, exist_ok=True)
    ergokit_seed = random.Random(seed).getrandbits(63)
    out_path = work / "out.csv"
    base = list(w.argv) + ["--seed", str(ergokit_seed), "--out", str(out_path)]
    argv = base + [w.size_flag, str(w.size), "--workers", "1"]
    checks = oracles.Checks()

    setup = []

    def measure_setup(runs):
        for _ in range(runs if not trace else 0):
            rec = _run_child({"mode": "setup", "argv": base + [w.size_flag, "1"],
                              "register_expflow": w.expflow}, work, deadline)
            checks.expect(rec["rc"] == 0, f"set-up command failed: {rec}")
            setup.append((rec["setup_s"], rec["cal"]))

    measure_setup(SETUP_RUNS // 2)

    reference = work / "reference.csv"
    cfg = {"mode": "measure", "argv": argv, "out": str(out_path),
           "reference": str(reference), "seconds": seconds, "trace": trace,
           "seed": ergokit_seed, "register_expflow": w.expflow,
           "pool_argv": base + [w.size_flag, str(w.size), "--workers", "2"]}
    if w.expflow:
        cfg["replay"] = {"initials": EXPFLOW_X, "t_grid": EXPFLOW_T, "n": w.size,
                         "seed": ergokit_seed}
    res = _run_child(cfg, work, deadline)
    measure_setup(SETUP_RUNS - SETUP_RUNS // 2)

    ref = res["reference"]
    checks.expect(ref["rc"] == 0 and ref["digest"] is not None,
                  f"reference command failed: {ref}")
    rows, out_bytes = 0, 0
    if ref["digest"] is not None:
        out_bytes = reference.stat().st_size
        rows = w.check(checks, str(reference), w.size, res.get("replay"))
    for i, rep in enumerate(res["reps"]):
        checks.expect(rep["rc"] == 0 and rep["digest"] == ref["digest"],
                      f"command {i} (traced={rep['traced']}) rc={rep['rc']} changed "
                      f"the output bytes: {rep['error']}")
    pool = res["pool"]
    checks.expect(pool["rc"] == 0 and pool["digest"] == ref["digest"],
                  f"--workers 2 output differs from --workers 1: {pool}")

    untraced = [r["wall"] for r in res["reps"] if not r["traced"]]
    untraced_cal = [r["cal"] for r in res["reps"] if not r["traced"]]
    traced = [r["wall"] for r in res["reps"] if r["traced"]]
    env = {"workload": w.name, "why": w.why, "seed": seed, "ergokit_seed": ergokit_seed,
           "size": f"{w.size_flag} {w.size}", "run_seconds": seconds, "trace": trace,
           "git_sha": _git_sha(), "src_sha256": _source_digest(),
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": res["python"], "numpy": res["numpy"], "platform": platform.platform(),
           "setup_runs": len(setup), "commands_timed": len(untraced),
           "commands_traced": len(traced), "pool_wall_s": pool["wall"]}
    if trace:
        traced_cal = [r["cal"] for r in res["reps"] if r["traced"]]
        metrics = layer_metrics(res["spans"], _calibrated(untraced, untraced_cal),
                                _calibrated(traced, traced_cal),
                                _calibrated([pool["wall"]], [pool["cal"]])[0], rows, out_bytes)
        trace_path = OUT_DIR / f"trace-{w.name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"env": env, "layers": metrics,
                                          "missing": res["missing"],
                                          "spans": res["spans"]}))
    else:
        metrics = {
            "setup_s": {"value": _median(_calibrated(*zip(*setup))), "unit": "s"},
            "wall_s": {"value": _median(_calibrated(untraced, untraced_cal)), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    env["elapsed_s"] = time.monotonic() - start
    record = {"env": env, "attempted": checks.attempted, "failed": len(checks.failures),
              "failures": checks.failures[:20], "metrics": metrics,
              "setup_s": [s for s, _ in setup], "setup_cal": [c for _, c in setup],
              "walls": untraced, "walls_cal": untraced_cal, "traced_walls": traced}
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def _raw_note(raw: list, what: str) -> str:
    return (f"calibrated median of {len(raw)} {what}; raw median {_median(raw):.6g} s, "
            f"fastest {min(raw):.6g} s")


def _report(rec: dict) -> None:
    env, name = rec["env"], rec["env"]["workload"]
    print(f"env {json.dumps(env, sort_keys=True)}")
    for msg in rec["failures"]:
        print(f"{name} FAILED {msg}")
    notes = {"setup_s": lambda: _raw_note(rec["setup_s"], "fresh interpreters"),
             "wall_s": lambda: _raw_note(rec["walls"], "commands"),
             "peak_rss_mb": lambda: "process running the commands"}
    for metric, m in rec["metrics"].items():
        note = notes[metric]() if metric in notes else m["source"]
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"{name} failed_frac {frac:.6g} ratio ({rec['failed']} of {rec['attempted']} "
          f"checks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ergokit" / "__init__.py").is_file():
        print(f"error: no ergokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        _report(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['env']['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
