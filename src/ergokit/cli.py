"""Command line experiment runner.

Subcommands: ``exact-ctmc`` (closed-form chain tables), ``simulate``
(trajectory dumps), ``estimate`` (Monte Carlo expectation/hit tables) and
``diagnose {ec,eprop,lowerbound,stability,assumptions}``.

Configuration is a flat ``key = value`` text file ('#' starts a comment);
command line flags override file values. Every output embeds a manifest of
the resolved configuration, and rerunning the same manifest reproduces the
file byte for byte regardless of worker count. Floats are printed with 17
significant digits so values round-trip exactly.

Exit status: 0 on success, 1 if any cell failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from itertools import chain, product
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import __version__, _submodule
from .core import (Ball, EmpiricalMeasure, TestFunction, as_state, as_time, bump_function,
                   constant, xmin1)
from .montecarlo import (
    McSettings,
    StreamFactory,
    _check_seed,
    _time_grid,
    resolve_workers,
    run_batch,
)

if TYPE_CHECKING:
    from .diagnostics import DiagnosticReport


class CliError(Exception):
    """Configuration or validation failure; maps to exit status 2."""


# ---------------------------------------------------------------------------
# entry points imported on first call
#
# A command imports only the modules it runs: ``estimate --model ctmc``
# loads neither ``ifs_jump`` nor ``diagnostics``. The functions below stand
# for the library functions of the same name. They are globals of this
# module from import on, and the commands call them through these globals,
# so replacing ``cli.sample_jump_chains`` (as a tracer or a test does)
# replaces what ``simulate`` runs.


# ``ergokit.<name>``, imported on first use; cached, so a stand-in below
# pays a cache lookup per call, not an import
_module = functools.lru_cache(maxsize=None)(_submodule)


def sample_jump_chain(model, x, horizon, stream):
    """One trajectory's jump times, whose ``len()`` is its jump count. No
    command runs it; it is kept for ``perfbench/child.py::_probes`` until
    the benchmark traces ``sample_jump_chains`` (ROADMAP item 21)."""
    return next(sample_jump_chains(model, x, horizon, (stream,)))[0]


def sample_jump_chains(*args, **kwargs):
    """``ifs_jump.sample_jump_chains``, imported on first call."""
    return _module("ifs_jump").sample_jump_chains(*args, **kwargs)


def lower_bound_scan(*args, **kwargs):
    """``diagnostics.lower_bound_scan``, imported on first call."""
    return _module("diagnostics").lower_bound_scan(*args, **kwargs)


def stability_report(*args, **kwargs):
    """``diagnostics.stability_report``, imported on first call."""
    return _module("diagnostics").stability_report(*args, **kwargs)


def example_flip(lam: float):
    """``ifs_jump.example_flip``, imported on first call."""
    return _module("ifs_jump").example_flip(lam)


def example_halving(lam: float):
    """``ifs_jump.example_halving``, imported on first call."""
    return _module("ifs_jump").example_halving(lam)


def halving_tv_modulus(s: float) -> float:
    """``ifs_jump.halving_tv_modulus``, imported on first call."""
    return _module("ifs_jump").halving_tv_modulus(s)


# ---------------------------------------------------------------------------
# model registry


# name -> (builder(lam) -> (process, assume or None), moduli that
# ``diagnose assumptions`` audits besides the model's own ``assume.omega``)
_MODELS: dict = {
    "ctmc": (lambda lam: (_module("exact_ctmc").CtmcProcess(), None), ()),
    "flip": (lambda lam: (example_flip(lam), None), ()),
    "halving": (example_halving, (halving_tv_modulus,)),
}


def register_model(name: str, builder: Callable) -> None:
    """Register a custom model builder: ``builder(lam) -> (process, assume)``.

    ``assume`` may be None when the model carries no hypothesis data.
    """
    _MODELS[str(name)] = (builder, ())


def _model(settings: Settings, default: Optional[str] = None):
    """Read ``model`` and, but for the chain ``ctmc``, ``lambda``; returns
    the model name, the process and its assumption data (or None)."""
    name = settings.get("model", default, required=True)
    if name == "ctmc" and settings.get("lambda") is not None:
        raise CliError("model ctmc is a chain with no jump rate; drop lambda")
    lam = None if name == "ctmc" else settings.get("lambda", 1.0, _positive_float)
    if name not in _MODELS:
        raise CliError(f"unknown model {name!r}; available: {', '.join(sorted(_MODELS))}")
    process, assume = _MODELS[name][0](lam)
    return name, process, assume


def _modulus_label(omega) -> str:
    """Audit row label: the formula of a library modulus, else the function name."""
    ifs_jump = _module("ifs_jump")
    if omega is ifs_jump.linear_modulus:
        return "omega=s"
    if omega is halving_tv_modulus or omega is ifs_jump.halving_tv_modulus:
        return "omega=2(1-exp(-s))"
    return f"omega={getattr(omega, '__name__', omega)}"


def _parse_initial(model_name: str, token: str):
    """A start point or anchor: a chain state for ``ctmc``, else a state point."""
    if model_name == "ctmc":
        return _module("exact_ctmc").parse_ctmc_state(token)
    return as_state(token)


def _starts(settings: Settings, key: str, model_name: str, default=None,
            required: bool = True) -> list:
    """Read a comma list of start points under ``key``, as ``Settings.get``
    and by the rule of every comma list (``_list``)."""
    return settings.get(key, default, _list(functools.partial(_parse_initial, model_name)),
                        required)


def _parse_function(spec: str) -> TestFunction:
    spec = spec.strip()
    if spec == "xmin1":
        return xmin1()
    if spec.startswith("const:"):
        return constant(float(spec.split(":", 1)[1]))
    if spec.startswith("bump:"):
        parts = [float(p) for p in spec.split(":", 1)[1].split(",")]
        if len(parts) != 3:
            raise ValueError("bump function spec is bump:<lo>,<hi>,<eps>")
        return bump_function((parts[0], parts[1]), parts[2])
    raise ValueError("unknown test function; use xmin1, const:<c> or bump:<lo>,<hi>,<eps>")


def _function(settings: Settings, default: Optional[str] = None) -> Optional[TestFunction]:
    """The test function that ``f`` names, or None; the manifest records
    the spec as given."""
    spec = settings.get("f", default)
    return None if spec is None else _parse("f", spec, _parse_function)


def _parse_ball(spec: str) -> Ball:
    parts = [float(p) for p in spec.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError("ball spec is <center>,<radius>")
    if spec.count(",") != 1:
        raise ValueError("the list has a blank item")
    return Ball(parts[0], parts[1])


# ---------------------------------------------------------------------------
# configuration file handling


def _read_config(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                values[key] = val.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse(key: str, raw, parse: Callable):
    """``parse(raw)``; a failure becomes a ``CliError`` that names the option
    and its value."""
    try:
        return parse(raw)
    except Exception as exc:
        raise CliError(f"bad value for {key}: {raw!r} ({exc})") from exc


# namespace entries that argparse fills and that are not options
_NOT_OPTIONS = ("command", "subdiagnostic", "func", "config")

# the output formats, for ``--format`` and a config file's ``format`` alike
_FORMATS = ("csv", "json")


def _format(text) -> str:
    if text not in _FORMATS:
        raise ValueError(f"must be {' or '.join(_FORMATS)}")
    return text


class Settings:
    """Resolved option lookup: flag value wins, then config file, then default.

    A config file may set exactly the options the command's parser
    declares, under the names of their flags. ``format`` is read and
    checked here, before the command does any work.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}
        unknown = set(self.config) - set(vars(args)).difference(_NOT_OPTIONS)
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        self.resolved: dict = {}
        self.format = self.get("format", "csv", _format)

    def get(self, key: str, default=None, parse: Optional[Callable] = None,
            required: bool = False):
        flag = getattr(self.args, key, None)
        if flag is not None:
            raw = flag
        elif key in self.config:
            raw = self.config[key]
        else:
            if required and default is None:
                raise CliError(f"missing required option --{key.replace('_', '-')}")
            self.resolved[key] = default
            return default
        value = _parse(key, raw, parse) if parse else raw
        self.resolved[key] = value
        return value

    def manifest(self, command: str, schema: str) -> dict:
        entries = {"command": command, "version": __version__, "schema": schema}
        for key, value in self.resolved.items():
            if key in ("out", "plot", "workers", "config"):
                continue
            if isinstance(value, (list, tuple)):
                entries[key] = ",".join(str(v) for v in value)
            elif value is not None:
                entries[key] = str(value)
        return entries


def _list(parse: Callable) -> Callable:
    """A parser of a comma list: ``parse`` of each item. A list with no
    nonblank item, or with a blank one among others (``1,,2``, most likely
    a typo), raises ``ValueError``."""
    def parsed(text) -> list:
        items = [p for p in str(text).split(",") if p.strip()]
        if not items:
            raise ValueError("the list names no value")
        if len(items) < str(text).count(",") + 1:
            raise ValueError("the list has a blank item")
        return [parse(p) for p in items]
    return parsed


_times = _list(as_time)


def _positive_float(text) -> float:
    v = float(text)
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError("must be a positive real")
    return v


def _positive_int(text) -> int:
    v = int(text)
    if v < 1:
        raise ValueError("must be a positive integer")
    return v


def _flag(text) -> bool:
    """A yes/no value, spelled 1/true/yes or 0/false/no in any case."""
    word = str(text).lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected true or false")
    return word in ("1", "true", "yes")


def _seed(text) -> int:
    """A seed given as text, as the integer it spells."""
    return _check_seed(int(text))


def _confidence(text) -> float:
    v = float(text)
    if not 0.0 < v < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    return v


# ---------------------------------------------------------------------------
# output handling


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _format_table(manifest: dict, columns: Sequence[str], rows: Iterable, fmt: str,
                  chunks: Optional[Iterable[str]] = None) -> Iterable[str]:
    """The text of a table as chunks. The CSV is its header with its rows
    through ``csv.writer``, or the header and then the text ``chunks``, as
    they are read; the JSON is one document."""
    if fmt == "csv":
        lines = ["".join(f"# {k}={manifest[k]}\n" for k in sorted(manifest))]
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
        writer.writerow(columns)
        if chunks is None:
            writer.writerows([_fmt_cell(v) for v in row] for row in rows)
        return chain(("".join(lines),), chunks or ())
    import json
    doc = {
        "manifest": dict(sorted(manifest.items())),
        "columns": list(columns),
        # failed rows carry NaN, which JSON has no literal for; the
        # error column says why the value is missing
        "rows": [[None if isinstance(v, float) and math.isnan(v) else v for v in row]
                 for row in rows],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n",)


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write each chunk as it comes, to ``out`` or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write(settings: Settings, command: str, schema: str, columns: Sequence[str],
           rows: Iterable, chart=None, mode: Optional[str] = None,
           chunks: Optional[Iterable[str]] = None) -> int:
    """Write a command's table and its ``--plot`` chart; returns the exit status.

    The manifest is taken after every option has been read, so it records
    each one that shapes the output, and the engine ``mode`` when given.
    ``rows`` is the table's rows. ``chunks``, if given, is their CSV text
    in pieces, as ``_fmt_cell`` and ``csv.writer`` print them; the CSV
    reads only these and the JSON only ``rows``, so each may be an
    iterator read once. ``chart`` is ``(title, ylabel, points)`` with
    ``points`` an iterable of ``(series, t, value)``, read only when a
    chart is asked for. The status is 1 if any row has an error, else 0.
    """
    out = settings.get("out", None)
    plot = settings.get("plot", None)
    status = int(columns[-1] == "error" and any(row[-1] for row in rows))
    manifest = settings.manifest(command, schema)
    if mode is not None:
        manifest["mode"] = mode
    _emit(_format_table(manifest, columns, rows, settings.format, chunks), out)
    if plot:
        from ._svgplot import line_chart_svg
        title, ylabel, points = chart
        series: dict = {}
        for key, t, value in points:
            series.setdefault(key, []).append((t, value))
        with open(plot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line_chart_svg(sorted(series.items()), title=title, xlabel="t",
                                    ylabel=ylabel))
    return status


# ---------------------------------------------------------------------------
# subcommands


_REPORT_COLUMNS = ("label", "x", "t", "value", "half_width", "error")


def _mc_settings(settings: Settings, default_samples: int = 10_000) -> McSettings:
    return McSettings(
        n_samples=settings.get("samples", default_samples, _positive_int),
        seed=settings.get("seed", 0, _seed),
        confidence=settings.get("confidence", 0.999, _confidence),
        workers=resolve_workers(settings.get("workers", None, _positive_int)),
    )


def cmd_exact_ctmc(args: argparse.Namespace) -> int:
    from .exact_ctmc import CtmcState, semigroup_bound, transition_bound
    settings = Settings(args)
    n = settings.get("n", parse=int, required=True)
    if n < 2:
        raise CliError("n >= 2 required: the chain has no level below 2")
    if n > sys.float_info.max:
        raise CliError(f"n <= {sys.float_info.max!r} required: the chain's times scale "
                       "with the float t / n")
    t = settings.get("t", 1.0, as_time)
    f = _function(settings)
    states = (CtmcState.low(n), CtmcState.high(n), CtmcState.zero())
    if f is None:
        rows = [("p", f"{i}->{j}", f"{t:g}", *transition_bound(i, j, t), "")
                for i in states for j in states]
    else:
        rows = [("ptf", str(i), f"{t:g}", *semigroup_bound(f, i, t), "") for i in states]
    return _write(settings, "exact-ctmc", "table-v1", _REPORT_COLUMNS, rows)


class _EdgeTexts(dict):
    """The text ``,xi_k,index_k,phi_k\n`` of a ``simulate`` row, keyed by
    the row's ``(xi, index, phi)`` and kept when xi is in the model's memo.
    Under the identity flow every jump from such a point took its
    post-jump point from the point's memo node, so each edge ``(xi, index)``
    has one ``phi`` and one text, made on its first row. The memo holds no
    zero (0.0 and -0.0 are one key with two texts). Any other row, and
    every row under a moving flow, is formatted on its own."""

    def __init__(self, model):
        identity = isinstance(model.flow, _module("ifs_jump").IdentityFlow)
        self.memo = model._memo if identity else {}

    def __missing__(self, row: tuple) -> str:
        text = ",%.17g,%d,%.17g\n" % row
        if row[0] in self.memo:
            self[row] = text
        return text


# expected jump times (rate * horizon * trajectories) from which ``simulate``
# formats its times with ``_g17``: its import and first call cost ~3.8 ms
# at the benchmark's reference speed (one 200-jump trajectory's setup_s,
# 0.1100 -> 0.1137 s with the kernel always on), and it saves ~0.33 us a
# time there, so it is repaid from ~11 000 times on
KERNEL_JUMPS = 15_000


def _percent_texts(arrays: Iterable) -> Iterable[list]:
    """For each float64 array, the list of ``"%.17g" % v`` over its values,
    from one ``%`` over the array."""
    for values in arrays:
        n = len(values)
        # %.17g prints no comma, so the split gives back each value's text
        yield ("%.17g," * n % tuple(values.tolist())).split(",")[:n]


def _trajectory_chunks(records: Sequence, texts: _EdgeTexts,
                       tau_texts: Callable) -> Iterable[str]:
    """The CSV rows of ``simulate``, one chunk per trajectory's records
    (see ``ifs_jump.sample_jump_chains``). A row joins its ``traj_id,``, its
    ``k,`` from one list that every trajectory shares, its ``tau_k`` from
    ``tau_texts`` over the times, and its text in ``texts``. Both
    ``tau_texts`` give ``"%.17g" % tau`` byte for byte: ``_percent_texts``
    one ``%`` per trajectory, and ``_g17.g17_texts`` the times of
    consecutive trajectories a block at a time, exactly in integer
    arithmetic for times in [1, 2**40) and through ``%`` for the rest."""
    ks: list = []
    taus = tau_texts(tau for tau, _, _, _ in records)
    for traj_id, ((_, xi, index, phi), tau_k) in enumerate(zip(records, taus)):
        n = len(xi)
        ks += [f"{k}," for k in range(len(ks) + 1, n + 1)]
        pieces = [f"{traj_id},"] * (4 * n)
        pieces[1::4] = ks[:n]
        pieces[2::4] = tau_k
        pieces[3::4] = map(texts.__getitem__, zip(xi, index, phi))
        yield "".join(pieces)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .ifs_jump import IfsModel
    settings = Settings(args)
    name, model, _ = _model(settings)
    if not isinstance(model, IfsModel):
        raise CliError(f"simulate dumps jump-system trajectories; {name} has no map records")
    x0 = settings.get("x0", parse=lambda s: _parse_initial(name, s), required=True)
    horizon = settings.get("horizon", 10.0, as_time)
    count = settings.get("trajectories", 1, _positive_int)
    settings.get("workers", None, _positive_int)  # validated only: simulate runs in one process
    factory = StreamFactory(settings.get("seed", 0, _seed))
    # a table of fewer expected jumps than KERNEL_JUMPS keeps one % per
    # trajectory; the kernel is imported before sampling, so the trajectories
    # reuse the scratch memory of its compile instead of raising the peak
    tau_texts = _percent_texts
    if settings.format == "csv" and model.rate * horizon * count >= KERNEL_JUMPS:
        tau_texts = _module("_g17").g17_texts
    # every trajectory is sampled before anything is written: a failure writes nothing
    records = list(sample_jump_chains(model, x0, horizon, factory.streams(0, count)))
    return _write(settings, "simulate", "trajectories-v1",
                  ("traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k"),
                  ((k, j, *row) for k, (tau, *lists) in enumerate(records)
                   for j, row in enumerate(zip(tau.tolist(), *lists), 1)),
                  (f"{name} trajectories", "state",
                   ((f"traj {k}", t, x) for k, (tau, _, _, phi) in enumerate(records)
                    for t, x in zip(tau.tolist(), phi))),
                  chunks=_trajectory_chunks(records, _EdgeTexts(model), tau_texts))


def cmd_estimate(args: argparse.Namespace) -> int:
    settings = Settings(args)
    name, process, _ = _model(settings)
    initials = _starts(settings, "x0", name)
    times = settings.get("times", parse=_times, required=True)
    f = _function(settings)
    functionals = [] if f is None else [f]
    ball_spec = settings.get("ball", None)
    if ball_spec is not None:  # the manifest records the spec as given
        functionals.append(_parse("ball", ball_spec, _parse_ball))
    if not functionals:
        raise CliError("need --f and/or --ball")
    mc = _mc_settings(settings)
    cells = list(product(initials, _time_grid(times)))
    results = run_batch(process, cells, functionals, mc, mc.confidence)
    labels = [fn.label if isinstance(fn, Ball) else fn.name for fn in functionals]
    rows, points = [], []
    for (x0, t), cell in zip(cells, results):
        x = process.state_label(x0)
        if isinstance(cell, str):
            rows += [(x, t, label, math.nan, math.nan, mc.n_samples, mc.confidence, math.nan,
                      cell) for label in labels]
            continue
        for label, est in zip(labels, cell):
            rows.append((x, t, label, est.mean, est.half_width, est.n_samples,
                         est.confidence, est.value_bound, ""))
            points.append((f"{x} {label}", t, est.mean))
    return _write(settings, "estimate", "estimates-v1",
                  ("x", "t", "functional", "mean", "half_width", "n_samples",
                   "confidence", "value_bound", "error"), rows,
                  (f"{name} estimates", "mean", points))


def _auto_pairs(model_name: str):
    if model_name == "ctmc":
        from .exact_ctmc import CtmcState
        return [(CtmcState.low(n), float(n)) for n in range(2, 51)]
    if model_name == "flip":
        return [(1.0 / n, float(n)) for n in (5, 10, 20)]
    raise CliError(f"no automatic witness pairs for model {model_name!r}; pass --pairs")


def _parse_pairs(model_name: str, text: str):
    if not str(text).replace(",", "").strip():
        raise CliError("no pairs given")
    pairs = []
    for chunk in _parse("pairs", text, _list(str.strip)):
        if "@" not in chunk:
            raise CliError(f"pair {chunk!r} must look like x@t")
        xtok, _, ttok = chunk.partition("@")
        pairs.append(_parse("pairs", chunk,
                            lambda _: (_parse_initial(model_name, xtok), as_time(ttok))))
    return pairs


def _report_points(report: DiagnosticReport):
    """Chart points of a report: one series per (label, x); a row whose t
    is not a number is placed at its index in its series."""
    counts: dict = {}
    for row in report.rows:
        if row.error is not None:
            continue
        key = f"{row.label} {row.x}"
        try:
            t = float(row.t)
        except ValueError:
            t = float(counts.get(key, 0))
        counts[key] = counts.get(key, 0) + 1
        yield key, t, row.value


def cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnostics import (
        DiagnosticReport,
        _anchor,
        check_b2,
        check_b3,
        check_b5,
        check_c2,
        ec_profile,
        eproperty_witness,
    )
    sub = args.subdiagnostic
    settings = Settings(args)
    name, process, assume = _model(settings, "halving" if sub == "assumptions" else None)
    if sub == "ec":
        f = _function(settings, "xmin1")
        z = settings.get("z", parse=lambda s: _parse_initial(name, s), required=True)
        xs = _starts(settings, "xs", name)
        T = settings.get("window_start", 0.0, as_time)
        t_max = settings.get("window_end", required=True, parse=as_time)
        grid = settings.get("grid", None, _times)
        if grid is None:
            grid = [T + (t_max - T) * k / 7 for k in range(8)] if t_max > T else [T]
            settings.resolved["grid"] = grid
        report = ec_profile(process, f, z, xs, T, t_max, grid, _mc_settings(settings))
    elif sub == "eprop":
        f = _function(settings, "xmin1")
        default_z = "zero" if name == "ctmc" else "0"
        z = settings.get("z", parse=lambda s: _parse_initial(name, s), default=None)
        if z is None:
            z = _parse_initial(name, default_z)
            settings.resolved["z"] = default_z
        pairs_spec = settings.get("pairs", "auto")
        pairs = _auto_pairs(name) if pairs_spec == "auto" else _parse_pairs(name, pairs_spec)
        report = eproperty_witness(process, f, z, pairs, _mc_settings(settings))
    elif sub == "lowerbound":
        z = settings.get("z", parse=lambda s: _parse_initial(name, s), required=True)
        eps = settings.get("eps", 0.1, _positive_float)
        x_grid = _starts(settings, "x_grid", name)
        t_grid = settings.get("t_grid", parse=_times, required=True)
        report = lower_bound_scan(process, z, eps, x_grid, t_grid, _mc_settings(settings))
    elif sub == "stability":
        z = settings.get("z", parse=lambda s: _parse_initial(name, s), default=None)
        anchor = 0.0 if z is None else _anchor(z)
        initials = _starts(settings, "initials", name)
        t_grid = settings.get("t_grid", parse=_times, required=True)
        report = stability_report(process, initials, t_grid,
                                  EmpiricalMeasure.point_mass(anchor), _mc_settings(settings))
    else:  # assumptions: the subparsers allow no other name
        if assume is None:
            raise CliError(f"model {name!r} carries no assumption data to audit")
        x_grid = _starts(settings, "x_grid", name, required=False)
        if x_grid is None:  # not recorded: the manifest reruns without it
            x_grid = [10.0 * (k + 1) / 1000 for k in range(1000)]
        n_trunc = settings.get("n_trunc", 10, _positive_int)
        report = DiagnosticReport("assumptions", mode="exact")  # the audits are exact
        moduli = [(_modulus_label(om), om) for om in (assume.omega,) + _MODELS[name][1]]
        report.add("b2_max_violation", f"{len(x_grid)}-point grid", "",
                   check_b2(process, assume, x_grid), 0.0)
        for label, om in moduli:
            report.add("b3_max_violation", label, "",
                       check_b3(process, assume, x_grid, omega=om), 0.0)
        b5_grid = [x for x in x_grid if x <= assume.eta] or [assume.eta]
        if assume.eta not in b5_grid:
            b5_grid.append(assume.eta)
        for label, om in moduli:
            report.add("b5_residual", label, f"x<={assume.eta:g}",
                       check_b5(process, assume, n_trunc, b5_grid, omega=om), 0.0)
        if settings.get("c2", False, _flag):
            radii = settings.get("eps", [0.1], _list(_positive_float))
            t_search = settings.get("t_search", 512.0, _positive_float)
            c2_grid = _starts(settings, "c2_x_grid", name, [0.25, 1.0, 4.0])
            c2_report = check_c2(process, assume.anchor, radii, c2_grid, t_search,
                                 _mc_settings(settings, default_samples=2000))
            report.rows.extend(c2_report.rows)
            if c2_report.mode != "exact":
                report.mode = "mixed"

    rows = [(r.label, r.x, r.t, r.value, r.half_width, r.error or "") for r in report.rows]
    return _write(settings, f"diagnose-{sub}", "diagnostics-v1", _REPORT_COLUMNS, rows,
                  (report.name, "value", _report_points(report)), report.mode)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, estimates: bool = True) -> None:
    """The options of every model command; ``--samples`` and ``--confidence``
    only where the command estimates."""
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--model", help="ctmc, flip, halving or a registered custom model")
    parser.add_argument("--lambda", help="jump rate")
    parser.add_argument("--seed", help="master seed (unsigned 64-bit)")
    if estimates:
        parser.add_argument("--samples", help="trajectories per cell")
        parser.add_argument("--confidence", help="confidence level in (0, 1)")
    parser.add_argument("--workers", help="worker processes (default: ERGOKIT_WORKERS or 1)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, help="output format")
    parser.add_argument("--plot", help="write an SVG line chart to this path")


class _Parser(argparse.ArgumentParser):
    """Flags are matched in full, also by the subparsers, which take this
    class: a manifest's mode= line fed back as --mode is not --model."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ergokit",
        description="simulation and ergodicity diagnostics for jump processes on the half-line",
    )
    parser.add_argument("--version", action="version", version=f"ergokit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("exact-ctmc", help="closed-form chain tables")
    p.add_argument("--config")
    p.add_argument("--n", help="cascade level (n >= 2)")
    p.add_argument("--t", help="time")
    p.add_argument("--f", help="test function (xmin1, const:<c>, bump:<lo>,<hi>,<eps>)")
    p.add_argument("--out")
    p.add_argument("--format", choices=_FORMATS)
    p.set_defaults(func=cmd_exact_ctmc)

    p = commands.add_parser("simulate", help="dump jump-chain trajectories")
    _add_common(p, estimates=False)
    p.add_argument("--x0", help="initial point")
    p.add_argument("--horizon", help="time horizon")
    p.add_argument("--trajectories", help="number of trajectories")
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("estimate", help="Monte Carlo expectation / hit tables")
    _add_common(p)
    p.add_argument("--x0", help="comma list of initial points")
    p.add_argument("--times", help="comma list of times")
    p.add_argument("--f", help="test function spec")
    p.add_argument("--ball", help="hit region <center>,<radius>")
    p.set_defaults(func=cmd_estimate)

    p = commands.add_parser("diagnose", help="ergodicity diagnostics")
    sub = p.add_subparsers(dest="subdiagnostic", required=True)

    d = sub.add_parser("ec", help="late-time sensitivity profile near an anchor")
    _add_common(d)
    d.add_argument("--f")
    d.add_argument("--z", help="anchor point")
    d.add_argument("--xs", help="comma list of probe points")
    d.add_argument("--window-start", dest="window_start")
    d.add_argument("--window-end", dest="window_end")
    d.add_argument("--grid", help="comma list of times inside the window")
    d.set_defaults(func=cmd_diagnose)

    d = sub.add_parser("eprop", help="equicontinuity failure witnesses")
    _add_common(d)
    d.add_argument("--f")
    d.add_argument("--z")
    d.add_argument("--pairs", help="'auto' or comma list of x@t")
    d.set_defaults(func=cmd_diagnose)

    d = sub.add_parser("lowerbound", help="late-time neighborhood hit floor")
    _add_common(d)
    d.add_argument("--z")
    d.add_argument("--eps")
    d.add_argument("--x-grid", dest="x_grid")
    d.add_argument("--t-grid", dest="t_grid")
    d.set_defaults(func=cmd_diagnose)

    d = sub.add_parser("stability", help="bounded-Lipschitz distance decay")
    _add_common(d)
    d.add_argument("--z", help="reference point mass location")
    d.add_argument("--initials", help="comma list of initial points")
    d.add_argument("--t-grid", dest="t_grid")
    d.set_defaults(func=cmd_diagnose)

    d = sub.add_parser("assumptions", help="contraction / modulus / budget audits")
    _add_common(d)
    d.add_argument("--x-grid", dest="x_grid")
    d.add_argument("--n-trunc", dest="n_trunc")
    d.add_argument("--c2", help="also run the reachability floor scan (true/false)")
    d.add_argument("--eps")
    d.add_argument("--t-search", dest="t_search")
    d.add_argument("--c2-x-grid", dest="c2_x_grid")
    d.set_defaults(func=cmd_diagnose)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it as it
    is, and every build costs a few milliseconds and leaves ~300 KB of
    cyclic garbage (each action holds its container), which a process
    running many commands would otherwise hold until the collector runs."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
