import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import ergokit
from ergokit.cli import main
from oracles import ctmc_closed_form, halving_hit_probs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    manifest = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            manifest[key] = value
        else:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    header, body = parsed[0], parsed[1:]
    rows = [dict(zip(header, row)) for row in body]
    return manifest, header, rows


# ---------------------------------------------------------------------------
# exact-ctmc


def test_exact_ctmc_semigroup_values(capsys):
    code, out, _ = run_cli(capsys, "exact-ctmc", "--n", "4", "--t", "4", "--f", "xmin1")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    values = {r["x"]: float(r["value"]) for r in rows}
    assert values["low:4"] == pytest.approx(math.exp(-1.0) * 1.25, abs=1e-15)
    assert values["zero"] == 0.0
    assert manifest["command"] == "exact-ctmc"


def test_exact_ctmc_identity_at_time_zero(capsys):
    code, out, _ = run_cli(capsys, "exact-ctmc", "--n", "2", "--t", "0")
    assert code == 0
    _, _, rows = parse_csv(out)
    probs = {r["x"]: float(r["value"]) for r in rows}
    assert probs["low:2->low:2"] == 1.0
    assert probs["low:2->zero"] == 0.0
    assert probs["high:2->high:2"] == 1.0


def test_exact_ctmc_small_time_rows_do_not_cancel(capsys):
    # the closed form as 1 - e^{-s} - s e^{-s} printed 4.1620185505707211e-17
    # for low:2->zero and 5.000000413701855e-10 for high:2->zero, width 0
    code, out, _ = run_cli(capsys, "exact-ctmc", "--n", "2", "--t", "1e-9")
    assert code == 0
    _, _, rows = parse_csv(out)
    truth = ctmc_closed_form(2, 1e-9)
    for row in rows:
        value, width = Decimal(row["value"]), Decimal(row["half_width"])
        assert abs(value - truth[tuple(row["x"].split("->"))]) <= width
        assert (width > 0) == (row["x"] not in ("high:2->low:2", "zero->low:2",
                                                "zero->high:2", "zero->zero"))
    rows = {row["x"]: float(row["value"]) for row in rows}
    assert rows["low:2->zero"] == pytest.approx(1.25e-19, rel=1e-9)
    assert rows["high:2->zero"] == pytest.approx(4.99999999875e-10, rel=1e-15)


def test_exact_ctmc_rejects_low_level(capsys):
    code, _, err = run_cli(capsys, "exact-ctmc", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


def test_exact_ctmc_rejects_a_level_past_the_float_range(capsys):
    # the chain's time scale t / n needs n as a float
    code, out, err = run_cli(capsys, "exact-ctmc", "--n", "1" + "0" * 400)
    assert code == 2 and out == ""
    assert "n <= " in err
    code, out, _ = run_cli(capsys, "exact-ctmc", "--n", str(int(sys.float_info.max)))
    assert code == 0 and "low:" in out


def test_exact_ctmc_has_no_plot_option(tmp_path, capsys):
    # one point per series makes no chart, so the option is rejected rather
    # than accepted and ignored
    svg = tmp_path / "x.svg"
    with pytest.raises(SystemExit) as exit_info:
        main(["exact-ctmc", "--n", "3", "--plot", str(svg)])
    assert exit_info.value.code == 2
    cfg = tmp_path / "plot.cfg"
    cfg.write_text(f"n = 3\nplot = {svg}\n")
    code, out, err = run_cli(capsys, "exact-ctmc", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "plot" in err
    assert not svg.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_horizon_header_only(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "flip", "--x0", "0.5",
                           "--horizon", "0", "--trajectories", "3", "--seed", "1")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k"]
    assert rows == []


def test_simulate_flip_orbit(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "flip", "--x0", "0.5",
                           "--horizon", "10", "--trajectories", "10", "--seed", "7")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows, "expected at least one jump"
    phis = {float(r["phi_k"]) for r in rows}
    assert phis.issubset({0.0, 0.5, 2.0})


def test_simulate_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code = main(["simulate", "--model", "halving", "--x0", "1.0", "--horizon", "5",
                     "--trajectories", "4", "--seed", "9", "--out", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_bad_worker_count(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "halving", "--x0", "1",
                           "--workers", "abc")
    assert code == 2
    assert "workers" in err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_workers_variable_is_named(monkeypatch, capsys, raw):
    monkeypatch.setenv("ERGOKIT_WORKERS", raw)
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", "2", "--f", "xmin1", "--samples", "10")
    assert code == 2
    assert "ERGOKIT_WORKERS" in err and repr(raw) in err


def test_simulate_rejects_ctmc(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "ctmc", "--x0", "zero")
    assert code == 2
    assert "jump-system" in err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_table_and_json(tmp_path, capsys):
    out = tmp_path / "est.json"
    code = main(["estimate", "--model", "ctmc", "--x0", "low:4,zero", "--times", "4",
                 "--f", "xmin1", "--samples", "4000", "--seed", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "x"
    by_x = {row[0]: row for row in doc["rows"]}
    mean = by_x["low:4"][3]
    assert abs(mean - math.exp(-1.0) * 1.25) <= 3.0 * by_x["low:4"][4]
    assert by_x["zero"][3] == 0.0


def test_estimate_ball_hit(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--model", "flip", "--x0", "0",
                           "--times", "2", "--ball", "0,0.1", "--samples", "200",
                           "--seed", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0]["mean"]) == 1.0
    assert rows[0]["functional"] == "ball(0,0.1)"


def test_estimate_constant_function(capsys):
    code, out, err = run_cli(capsys, "estimate", "--model", "halving", "--x0", "1",
                             "--times", "1", "--f", "const:1", "--samples", "10")
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    assert (rows[0]["mean"], rows[0]["half_width"], rows[0]["error"]) == ("1", "0", "")


def test_diagnose_eprop_constant_function(capsys):
    code, out, err = run_cli(capsys, "diagnose", "eprop", "--model", "flip", "--f", "const:1")
    assert (code, err) == (0, "")
    manifest, _, rows = parse_csv(out)
    assert manifest["mode"] == "exact"
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row["value"])) <= float(row["half_width"]) < 1e-12


def test_diagnose_ec_constant_function_on_a_sampled_model(capsys, monkeypatch):
    # a constant's Hoeffding width is 0, not a "value_bound must be
    # positive" failure of every cell
    from ergokit import cli
    from test_diagnostics import Sampled

    monkeypatch.setitem(cli._MODELS, "flip",
                        (lambda lam: (Sampled(cli.example_flip(lam)), None), ()))
    code, out, err = run_cli(capsys, "diagnose", "ec", "--model", "flip", "--f", "const:1",
                             "--z", "0", "--xs", "0.5", "--window-end", "2", "--samples", "50")
    assert (code, err) == (0, "")
    manifest, _, rows = parse_csv(out)
    assert manifest["mode"] == "monte-carlo"
    assert (rows[0]["value"], rows[0]["half_width"]) == ("0", "0")


def test_estimate_requires_functional(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", "2")
    assert code == 2
    assert "--f" in err or "--ball" in err


def test_estimate_empty_times_rejected(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", ",", "--f", "xmin1")
    assert code == 2
    assert err == "error: bad value for times: ',' (the list names no value)\n"


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_estimate_non_finite_time_rejected(capsys, t):
    code, out, err = run_cli(capsys, "estimate", "--model", "halving", "--x0", "1",
                             "--times", t, "--f", "xmin1")
    assert code == 2
    assert out == ""
    assert "finite" in err


def _bad_time(option, raw, value):
    return (f"error: bad value for {option}: {raw!r} "
            f"(time must be a finite nonnegative real, got {value})\n")


@pytest.mark.parametrize("argv, err", [
    (("ec", "--model", "halving", "--z", "0", "--xs", "0.5", "--window-start", "1",
      "--window-end", "10", "--grid", "1,nan"), _bad_time("grid", "1,nan", "nan")),
    (("ec", "--model", "ctmc", "--z", "zero", "--xs", "low:2", "--window-start", "1",
      "--window-end", "10", "--grid", "1,nan"), _bad_time("grid", "1,nan", "nan")),
    (("lowerbound", "--model", "halving", "--z", "0", "--x-grid", "1", "--t-grid", "1,nan"),
     _bad_time("t_grid", "1,nan", "nan")),
    (("stability", "--model", "halving", "--initials", "1", "--t-grid", "1,nan"),
     _bad_time("t_grid", "1,nan", "nan")),
    (("eprop", "--model", "flip", "--pairs", "0.2@nan"), _bad_time("pairs", "0.2@nan", "nan")),
    (("eprop", "--model", "ctmc", "--pairs", "low:2@inf"),
     _bad_time("pairs", "low:2@inf", "inf")),
], ids=["ec-halving", "ec-ctmc", "lowerbound", "stability", "eprop-flip", "eprop-ctmc"])
def test_diagnose_non_finite_time_rejected(capsys, argv, err):
    code, out, got = run_cli(capsys, "diagnose", *argv, "--samples", "20")
    assert code == 2
    assert out == ""
    assert got == err


@pytest.mark.parametrize("argv, err", [
    (("estimate", "--model", "flip", "--x0", "1", "--times", "1,-2", "--f", "xmin1"),
     _bad_time("times", "1,-2", "-2.0")),
    (("diagnose", "eprop", "--model", "flip", "--pairs", "0.5@-1"),
     _bad_time("pairs", "0.5@-1", "-1.0")),
], ids=["estimate-times", "eprop-pairs"])
def test_negative_times_name_the_option_and_the_value(capsys, argv, err):
    code, out, got = run_cli(capsys, *argv, "--samples", "20")
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ("lowerbound", "--model", "halving", "--z", "0", "--x-grid", "1", "--t-grid", "1"),
    ("assumptions", "--model", "halving", "--c2", "true"),
], ids=["lowerbound", "assumptions-c2"])
def test_ball_radius_names_the_option_and_the_value(capsys, argv):
    code, out, err = run_cli(capsys, "diagnose", *argv, "--eps", "inf", "--samples", "20")
    assert (code, out, err) == (2, "", "error: bad value for eps: 'inf' (must be a positive real)\n")


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_eprop_ctmc_auto_floor(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "eprop", "--model", "ctmc",
                           "--pairs", "auto")
    assert code == 0
    _, _, rows = parse_csv(out)
    values = [float(r["value"]) for r in rows if r["label"] == "witness"]
    assert len(values) == 49
    assert min(values) >= math.exp(-1.0) - 1e-12


def test_diagnose_lowerbound_scan_row(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "lowerbound", "--model", "halving",
                           "--z", "0", "--eps", "0.1", "--x-grid", "0.5,1",
                           "--t-grid", "30,60", "--samples", "500", "--seed", "11")
    assert code == 0
    _, _, rows = parse_csv(out)
    scan = [r for r in rows if r["label"] == "scan_min"]
    assert len(scan) == 1
    assert 0.0 <= float(scan[0]["value"]) <= 1.0


def test_diagnose_empty_grid_message(capsys):
    code, _, err = run_cli(capsys, "diagnose", "lowerbound", "--model", "halving",
                           "--z", "0", "--x-grid", "1", "--t-grid", ",")
    assert code == 2
    assert err == "error: bad value for t_grid: ',' (the list names no value)\n"


@pytest.mark.parametrize("argv, option", [
    (("diagnose", "stability", "--model", "flip", "--initials", "1", "--t-grid"), "t_grid"),
    (("diagnose", "ec", "--model", "flip", "--z", "0", "--xs", "0.1", "--window-start", "1",
      "--window-end", "2", "--grid"), "grid"),
    (("diagnose", "assumptions", "--model", "halving", "--c2", "true", "--eps"), "eps"),
    # start lists follow the same rule
    (("estimate", "--model", "flip", "--times", "1", "--f", "xmin1", "--x0"), "x0"),
    (("diagnose", "ec", "--model", "flip", "--z", "0", "--window-end", "2", "--xs"), "xs"),
    (("diagnose", "lowerbound", "--model", "halving", "--z", "0", "--t-grid", "1",
      "--x-grid"), "x_grid"),
    (("diagnose", "stability", "--model", "flip", "--t-grid", "1", "--initials"), "initials"),
])
@pytest.mark.parametrize("blank", [",", " , ,"])
def test_an_empty_comma_list_names_its_option(capsys, argv, option, blank):
    code, out, err = run_cli(capsys, *argv, blank)
    assert (code, out) == (2, "")
    assert err == f"error: bad value for {option}: {blank!r} (the list names no value)\n"


@pytest.mark.parametrize("option, other", [("x0", "times"), ("times", "x0")])
@pytest.mark.parametrize("blank", ["1,,2", "1,2,", ",1", "1, ,2"])
def test_a_blank_item_in_a_start_or_time_list_is_refused(capsys, option, other, blank):
    code, out, err = run_cli(capsys, "estimate", "--model", "flip", "--f", "xmin1",
                             "--samples", "50", f"--{other}", "1,2", f"--{option}", blank)
    assert (code, out) == (2, "")
    assert err == f"error: bad value for {option}: {blank!r} (the list has a blank item)\n"


def test_an_empty_ball_spec_keeps_its_message(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", "1", "--ball", ",")
    assert code == 2
    assert err == "error: bad value for ball: ',' (ball spec is <center>,<radius>)\n"


@pytest.mark.parametrize("pairs, bad", [
    ("0.2@abc", "0.2@abc"),
    ("0.2@5,x@3", "x@3"),
])
def test_diagnose_eprop_bad_pair_is_named(capsys, pairs, bad):
    code, out, err = run_cli(capsys, "diagnose", "eprop", "--model", "flip",
                             "--pairs", pairs)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad value for pairs: {bad!r} (")


_ESTIMATE_HALVING = ("estimate", "--model", "halving", "--times", "1")
_EC_HALVING = ("diagnose", "ec", "--model", "halving", "--xs", "1", "--window-end", "2")


@pytest.mark.parametrize("key, raw, argv", [
    ("f", "const:abc", _ESTIMATE_HALVING + ("--x0", "1", "--f", "const:abc")),
    ("f", "bump:a,1,1", _ESTIMATE_HALVING + ("--x0", "1", "--f", "bump:a,1,1")),
    ("f", "bump:0,1", _ESTIMATE_HALVING + ("--x0", "1", "--f", "bump:0,1")),
    ("f", "foo", _ESTIMATE_HALVING + ("--x0", "1", "--f", "foo")),
    ("ball", "0,abc", _ESTIMATE_HALVING + ("--x0", "1", "--ball", "0,abc")),
    ("ball", "0,-1", _ESTIMATE_HALVING + ("--x0", "1", "--ball", "0,-1")),
    ("x0", "-1", _ESTIMATE_HALVING + ("--x0=-1", "--f", "xmin1")),
    ("x0", "1,abc", _ESTIMATE_HALVING + ("--x0", "1,abc", "--f", "xmin1")),
    ("f", "const:x", ("exact-ctmc", "--n", "2", "--f", "const:x")),
    ("z", "-1", _EC_HALVING + ("--z=-1",)),
    ("f", "const:abc", _EC_HALVING + ("--z", "0", "--f", "const:abc")),
    ("x0", "-1", ("simulate", "--model", "flip", "--x0=-1")),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_bad_value_names_its_option(capsys, key, raw, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad value for {key}: {raw!r} (")


def test_spec_options_keep_their_spelling_in_the_manifest(capsys):
    code, out, _ = run_cli(capsys, *_ESTIMATE_HALVING, "--x0", "1",
                           "--f", "bump:0,1,0.5", "--ball", "0,1", "--samples", "10")
    assert code == 0
    manifest, _, _ = parse_csv(out)
    assert (manifest["f"], manifest["ball"], manifest["x0"]) == ("bump:0,1,0.5", "0,1", "1.0")


def test_diagnose_ec_window(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "ec", "--model", "ctmc", "--z", "zero",
                           "--xs", "low:2", "--window-start", "20", "--window-end", "200")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0]["label"] == "ec_gap_max"
    assert float(rows[0]["value"]) <= 11.0 * math.exp(-10.0)


def test_diagnose_stability(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "stability", "--model", "flip",
                           "--initials", "0", "--t-grid", "2,4", "--samples", "200",
                           "--seed", "5")
    assert code == 0
    _, _, rows = parse_csv(out)
    refs = [float(r["value"]) for r in rows if r["label"] == "bl_to_ref"]
    assert refs == [0.0, 0.0]


def test_diagnose_assumptions_table(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "assumptions", "--model", "halving",
                           "--x-grid", "0.05,0.1,0.125,1,5", "--n-trunc", "10")
    assert code == 0
    _, _, rows = parse_csv(out)
    by_label = {}
    for r in rows:
        by_label.setdefault(r["label"], []).append(r)
    assert float(by_label["b2_max_violation"][0]["value"]) <= 1e-12
    b3 = {r["x"]: float(r["value"]) for r in by_label["b3_max_violation"]}
    assert abs(b3["omega=2(1-exp(-s))"]) <= 1e-12
    assert b3["omega=s"] > 0.0
    b5 = {r["x"]: float(r["value"]) for r in by_label["b5_residual"]}
    assert abs(b5["omega=s"]) <= 1e-12
    assert b5["omega=2(1-exp(-s))"] > 0.0


def test_assumptions_mode_follows_the_c2_rows(capsys, monkeypatch):
    # the audits are exact; sampled C2 rows beside them make the run mixed
    from ergokit import ifs_jump

    args = ("diagnose", "assumptions", "--model", "halving", "--x-grid", "0.05,0.125")
    for extra in ((), ("--c2", "true", "--t-search", "4")):
        code, out, _ = run_cli(capsys, *args, *extra)
        assert (code, parse_csv(out)[0]["mode"]) == (0, "exact")
    monkeypatch.setattr(ifs_jump, "BREAK_EVEN_SAMPLES", 0)
    monkeypatch.setattr(ifs_jump, "ORBIT_BUDGET", 1000)
    _, out, _ = run_cli(capsys, *args, "--c2", "true", "--t-search", "4", "--samples", "50")
    assert parse_csv(out)[0]["mode"] == "mixed"


def test_a_library_report_claims_no_mode():
    from ergokit import DiagnosticReport

    assert DiagnosticReport("custom").mode is None


# ---------------------------------------------------------------------------
# config files, overrides, plots, determinism


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = flip\nx0 = 0.5\nhorizon = 5\ntrajectories = 2\nseed = 4\n")
    out1 = tmp_path / "c1.csv"
    code = main(["simulate", "--config", str(cfg), "--out", str(out1)])
    assert code == 0
    manifest, _, _ = parse_csv(out1.read_text())
    assert manifest["horizon"] == "5.0"
    out2 = tmp_path / "c2.csv"
    code = main(["simulate", "--config", str(cfg), "--horizon", "3", "--out", str(out2)])
    assert code == 0
    manifest2, _, rows2 = parse_csv(out2.read_text())
    assert manifest2["horizon"] == "3.0"
    assert all(float(r["tau_k"]) <= 3.0 for r in rows2)


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "flip", "--x0", "0.5", "--horizon", "5", "--trajectories", "2"],
    ["estimate", "--model", "ctmc", "--x0", "low:2", "--times", "1", "--f", "xmin1",
     "--samples", "20"],
])
def test_seed_text_is_read_as_an_integer(tmp_path, capsys, command):
    # the seed arrives as text from a flag or a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 42\n")
    flag, config = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert main(command + ["--seed", "42", "--out", str(flag)]) == 0
    assert main(command + ["--config", str(cfg), "--out", str(config)]) == 0
    assert flag.read_bytes() == config.read_bytes()
    assert parse_csv(flag.read_text())[0]["seed"] == "42"
    capsys.readouterr()
    for bad in ("0.5", "1e3", "abc"):
        code, out, err = run_cli(capsys, *command, "--seed", bad)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad value for seed: '{bad}'")


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = flip\nx0 = 1\nwibble = 3\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "wibble" in err


def test_config_key_of_another_command_rejected(tmp_path, capsys):
    cfg = tmp_path / "est.cfg"
    cfg.write_text("model = flip\nx0 = 1\ntimes = 2\nf = xmin1\ntrajectories = 3\n")
    code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: unknown config keys: trajectories\n"


@pytest.mark.parametrize("option", ["samples", "confidence"])
def test_simulate_rejects_sampling_options(tmp_path, capsys, option):
    argv = ("simulate", "--model", "halving", "--x0", "1")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, f"--{option}", "0.5"])
    assert exit_info.value.code == 2
    assert f"--{option}" in capsys.readouterr().err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{option} = 0.5\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: unknown config keys: {option}\n"


def test_config_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# a comment\n\nmodel = flip  # trailing comment\nx0 = 0.5\n"
                   "horizon = 1\ntrajectories = 1\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0


def test_plot_svg_written(tmp_path, capsys):
    svg = tmp_path / "chart.svg"
    code = main(["diagnose", "lowerbound", "--model", "halving", "--z", "0",
                 "--eps", "0.1", "--x-grid", "0.5", "--t-grid", "10,20",
                 "--samples", "200", "--seed", "2", "--out", str(tmp_path / "t.csv"),
                 "--plot", str(svg)])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_worker_count_does_not_change_bytes(tmp_path):
    commands = [
        ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", "0.1",
         "--x-grid", "0.5,1,2", "--t-grid", "15,30", "--samples", "400", "--seed", "21"],
        ["diagnose", "stability", "--model", "halving", "--initials", "0.5,2",
         "--t-grid", "4,8", "--samples", "300", "--seed", "22"],
        ["diagnose", "eprop", "--model", "flip", "--samples", "300", "--seed", "23"],
        ["diagnose", "ec", "--model", "halving", "--z", "0", "--xs", "0.5,0.25",
         "--window-start", "10", "--window-end", "30", "--samples", "300", "--seed", "25"],
        ["diagnose", "assumptions", "--x-grid", "0.5,1", "--c2", "true", "--t-search", "8",
         "--samples", "200", "--seed", "24"],
    ]
    for i, args in enumerate(commands):
        out1, out2 = tmp_path / f"{i}-w1.csv", tmp_path / f"{i}-w2.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), args[:2]


def test_json_output_is_deterministic(tmp_path):
    args = ["estimate", "--model", "halving", "--x0", "1", "--times", "5",
            "--f", "xmin1", "--samples", "300", "--seed", "8", "--format", "json"]
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_unknown_model_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "mystery", "--x0", "1")
    assert code == 2
    assert "unknown model" in err


def test_version_flag_and_manifest_match_package_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == f"ergokit {ergokit.__version__}"
    code, out, _ = run_cli(capsys, "exact-ctmc", "--n", "2", "--t", "1")
    assert code == 0
    manifest, _, _ = parse_csv(out)
    assert manifest["version"] == ergokit.__version__


def test_package_metadata_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ergokit.__version__"}


def test_manifest_reruns_to_identical_bytes(tmp_path):
    # the embedded manifest is a complete recipe: feeding it back as flags
    # reproduces the file byte for byte
    commands = [
        ["simulate", "--model", "flip", "--lambda", "1.5", "--x0", "0.8", "--horizon", "12",
         "--trajectories", "6", "--seed", "31"],
        ["exact-ctmc", "--n", "5", "--t", "2.5"],
        ["exact-ctmc", "--n", "3", "--t", "1", "--f", "bump:0,1,0.25", "--format", "json"],
        ["estimate", "--model", "ctmc", "--x0", "low:3,zero", "--times", "0.5,2",
         "--f", "xmin1", "--ball", "0,0.5", "--samples", "300", "--seed", "4"],
        ["estimate", "--model", "halving", "--lambda", "2", "--x0", "1,3", "--times", "1",
         "--f", "xmin1", "--samples", "100", "--seed", "5", "--format", "json"],
        ["diagnose", "ec", "--model", "flip", "--z", "0", "--xs", "0.1,0.2",
         "--window-end", "4", "--samples", "200", "--seed", "5"],
        ["diagnose", "eprop", "--model", "ctmc"],
        ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--x-grid", "0.5,1",
         "--t-grid", "5,10", "--samples", "200", "--seed", "6"],
        ["diagnose", "stability", "--model", "flip", "--initials", "0.5,2", "--t-grid", "2,4",
         "--samples", "200", "--seed", "7"],
        ["diagnose", "assumptions"],
        ["diagnose", "assumptions", "--x-grid", "0.1,0.125", "--c2", "true",
         "--t-search", "16", "--c2-x-grid", "0.5,1", "--samples", "200", "--seed", "8"],
    ]
    for i, argv in enumerate(commands):
        out1, out2 = tmp_path / f"{i}-first", tmp_path / f"{i}-second"
        assert main(argv + ["--out", str(out1)]) == 0, argv
        text = out1.read_text()
        if text.startswith("{"):
            manifest = json.loads(text)["manifest"]
        else:
            manifest, _, _ = parse_csv(text)
        assert manifest["format"] == ("json" if "json" in argv else "csv"), argv
        command = manifest["command"]
        args = command.split("-", 1) if command.startswith("diagnose-") else [command]
        for key, value in manifest.items():
            if key in ("command", "version", "schema", "mode"):
                continue
            args += ["--" + key.replace("_", "-"), value]
        assert main(args + ["--out", str(out2)]) == 0, args
        assert out1.read_bytes() == out2.read_bytes(), argv


@pytest.mark.parametrize("argv", [
    ["diagnose", "lowerbound", "--z", "0", "--x-grid", "1", "--t-grid", "1", "--mode", "exact"],
    ["simulate", "--model", "flip", "--x0", "0.5", "--traj", "2"],
])
def test_abbreviated_flags_are_rejected(capsys, argv):
    # a manifest's mode= line fed back as --mode must not run a model
    # named after it: flags are matched in full, never as prefixes
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_every_parser_matches_flags_in_full():
    # the subparsers take the top parser's class, and with it the setting
    import argparse
    from ergokit.cli import build_parser

    parsers, found = [build_parser()], []
    while parsers:
        parser = parsers.pop()
        found.append(parser)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    # the top parser, exact-ctmc, simulate, estimate, diagnose and its five
    assert len(found) == 10
    assert [p.allow_abbrev for p in found] == [False] * 10


def test_config_file_lambda_key(tmp_path, capsys):
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("model = halving\nlambda = 2.0\nx0 = 1\nhorizon = 2\n"
                   "trajectories = 1\nseed = 1\n")
    out = tmp_path / "lam.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest, _, _ = parse_csv(out.read_text())
    assert manifest["lambda"] == "2.0"


def test_registered_custom_model_usable(tmp_path, capsys):
    from ergokit.cli import register_model, _MODELS
    from ergokit.ifs_jump import IfsModel

    def thirding(x):
        return x / 3.0

    def keep(x):
        return x

    def builder(lam):
        model = IfsModel(name="thirds", maps=(thirding, keep),
                         prob_field=lambda x: (0.75, 0.25), rate=lam, absorbing=(0.0,))
        return model, None

    register_model("thirds", builder)
    try:
        code, out, _ = run_cli(capsys, "simulate", "--model", "thirds", "--x0", "9",
                               "--horizon", "4", "--trajectories", "2", "--seed", "3")
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            assert float(r["phi_k"]) <= 9.0
    finally:
        _MODELS.pop("thirds", None)


def test_unpicklable_model_asks_for_one_worker(capsys):
    from ergokit.cli import register_model, _MODELS
    from ergokit.ifs_jump import IfsModel

    register_model("local", lambda lam: (IfsModel(
        name="local", maps=(lambda x: x / 2.0,), prob_field=lambda x: (1.0,),
        rate=lam), None))
    argv = ("estimate", "--model", "local", "--x0", "1,2", "--times", "1,2",
            "--f", "xmin1", "--samples", "20", "--seed", "3")
    try:
        code, out, err = run_cli(capsys, *argv, "--workers", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: model 'local' ") and err.count("\n") == 1
        assert "one worker" in err and "module-level builder" in err
        code, out, _ = run_cli(capsys, *argv, "--workers", "1")
        assert code == 0
        assert len(parse_csv(out)[2]) == 4
    finally:
        _MODELS.pop("local", None)


def test_json_output_writes_failed_values_as_null(capsys):
    from ergokit.cli import register_model, _MODELS
    from ergokit.ifs_jump import IfsModel

    def broken(x):
        return math.nan

    def builder(lam):
        return IfsModel(name="broken", maps=(broken,), prob_field=lambda x: (1.0,),
                        rate=lam), None

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    register_model("broken", builder)
    try:
        code, out, _ = run_cli(capsys, "estimate", "--model", "broken", "--x0", "1",
                               "--times", "0,5", "--f", "xmin1", "--samples", "20",
                               "--format", "json")
    finally:
        _MODELS.pop("broken", None)
    assert code == 1
    doc = json.loads(out, parse_constant=reject)
    ok, bad = doc["rows"]
    assert ok[3] == 1.0 and ok[-1] == ""
    assert bad[3] is None and bad[4] is None and bad[7] is None
    assert "w1" in bad[-1]


def test_assumptions_audit_the_models_own_modulus(capsys):
    from ergokit.cli import register_model, _MODELS
    from ergokit.diagnostics import check_b3, check_b5
    from ergokit.ifs_jump import example_halving

    def triple(s):
        return 3.0 * s

    def builder(lam):
        model, assume = example_halving(lam)
        return model, dataclasses.replace(assume, omega=triple)

    register_model("halving3", builder)
    try:
        code, out, _ = run_cli(capsys, "diagnose", "assumptions", "--model", "halving3",
                               "--x-grid", "0.05,0.1")
    finally:
        _MODELS.pop("halving3", None)
    assert code == 0
    _, _, rows = parse_csv(out)
    model, assume = builder(1.0)
    b3 = [(r["x"], float(r["value"])) for r in rows if r["label"] == "b3_max_violation"]
    assert b3 == [("omega=triple", check_b3(model, assume, [0.05, 0.1]))]
    b5 = [(r["x"], float(r["value"])) for r in rows if r["label"] == "b5_residual"]
    assert b5 == [("omega=triple", check_b5(model, assume, 10, [0.05, 0.1, 0.125]))]


@pytest.mark.parametrize("value", ["ture", "2", ""])
def test_assumptions_rejects_unknown_c2_value(capsys, value):
    code, out, err = run_cli(capsys, "diagnose", "assumptions", "--x-grid", "0.1",
                             f"--c2={value}")
    assert code == 2
    assert out == ""
    assert "c2" in err


@pytest.mark.parametrize("value", ["0", "no", "FALSE", "False"])
def test_assumptions_c2_false_spellings_round_trip(capsys, value):
    code, out, _ = run_cli(capsys, "diagnose", "assumptions", "--x-grid", "0.1", "--c2", value)
    assert code == 0
    manifest, _, rows = parse_csv(out)
    assert manifest["c2"] == "False"
    assert [r["label"] for r in rows if r["label"].startswith("c2_")] == []


@pytest.mark.parametrize("key", ["x_grid", "c2_x_grid"])
def test_assumptions_rejects_negative_grid_point(capsys, key):
    grids = {"x_grid": "0.1", "c2_x_grid": "0.5"}
    grids[key] = "-5,0.1"
    code, out, err = run_cli(capsys, "diagnose", "assumptions", "--c2", "true",
                             "--t-search", "2", "--samples", "20",
                             *(f"--{k.replace('_', '-')}={v}" for k, v in grids.items()))
    assert code == 2
    assert out == ""
    assert "state point must be a finite nonnegative real, got '-5'" in err


@pytest.mark.parametrize("eps", ["-0.1", "0", "nan", "inf", "0.1,-0.2"])
def test_assumptions_c2_rejects_invalid_radius(capsys, eps):
    code, out, err = run_cli(capsys, "diagnose", "assumptions", "--x-grid", "0.1", "--c2", "true",
                             f"--eps={eps}", "--t-search", "2", "--samples", "20")
    assert code == 2
    assert out == ""
    assert err == f"error: bad value for eps: {eps!r} (must be a positive real)\n"


def test_assumptions_with_c2_and_radius_list(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "assumptions", "--model", "halving",
                           "--x-grid", "0.1,0.125", "--c2", "true", "--eps", "0.2,0.4",
                           "--t-search", "16", "--c2-x-grid", "0.5", "--samples", "200",
                           "--seed", "6")
    assert code == 0
    _, _, rows = parse_csv(out)
    betas = [r for r in rows if r["label"] == "c2_beta"]
    assert [r["x"] for r in betas] == ["eps=0.2", "eps=0.4"]
    assert float(betas[1]["value"]) >= float(betas[0]["value"])


# ---------------------------------------------------------------------------
# streamed output


def _reference_csv(manifest, columns, rows):
    """The CSV writer before tables were streamed: every cell through csv.writer."""
    def fmt_cell(v):
        if isinstance(v, float):
            return f"{v:.17g}"
        return "" if v is None else str(v)

    head = "".join(f"# {k}={manifest[k]}\n" for k in sorted(manifest))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_cell(v) for v in row])
    return head + buf.getvalue()


def _formatter_rows():
    import numpy as np
    from ergokit.exact_ctmc import CtmcState

    floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 2.0 / 3.0,
              1.2345678901234567e-7, 98765432109876543.0]
    rows = [(i, j, f, -f, i * j, f / 3.0) for i, f in enumerate(floats) for j in (1, 2)]
    rows += [
        (True, False, 1.0, 0, -(2 ** 70), 0.5),
        (np.int64(7), 2, np.float64(0.1), 3.5, 1, np.float64(-0.0)),
        (None, CtmcState.low(3), CtmcState.zero(), 1.5, 4, ""),
        ("a,b", 'say "hi"', "two\nlines", "", 1, 2.5),
        ("", ),
        (),
        (1, 2.5),
        (2 ** 70, -(2 ** 70)),
    ]
    rows += [(k, k + 1, k / 7.0, math.sqrt(k), k % 2 + 1, k * 1e-3) for k in range(40)]
    rows.insert(25, ("label", 0.25, 3, "", "", "x,y"))
    return rows


@pytest.mark.parametrize("n_rows", [1, 3, 1024])
def test_csv_writer_matches_the_reference_formatter(n_rows):
    # a one-row table, a short one, and a long one that repeats every case
    from ergokit import cli

    manifest = {"command": "simulate", "seed": "3", "a": "x,y"}
    columns = ("traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k")
    rows = list(itertools.islice(itertools.cycle(_formatter_rows()), n_rows))
    streamed = "".join(cli._format_table(manifest, columns, rows, "csv"))
    assert streamed == _reference_csv(manifest, columns, rows)


_SIMULATE_COLUMNS = ("traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k")


def _trajectory(tau, xi, index, phi):
    """A trajectory's records as ``sample_jump_chains`` yields them."""
    import numpy as np

    return np.array(tau, dtype=float), list(xi), list(index), list(phi)


def _simulate_rows(trajectories):
    return [(k, j, *cells) for k, (tau, *lists) in enumerate(trajectories)
            for j, cells in enumerate(zip(tau.tolist(), *lists), start=1)]


def _simulate_csv(trajectories, texts):
    """The table of ``trajectories`` through simulate's writer and through
    the reference formatter, as a pair. The writer reads each trajectory as
    ``sample_jump_chains`` records it, and its table is made with either
    ``tau_k`` formatter; each must equal the reference."""
    from ergokit import cli
    from ergokit._g17 import g17_texts

    manifest = {"command": "simulate", "seed": "3"}
    rows = _simulate_rows(trajectories)
    reference = _reference_csv(manifest, _SIMULATE_COLUMNS, rows)
    for taus in (g17_texts, cli._percent_texts):
        chunks = cli._trajectory_chunks(trajectories, texts, taus)
        streamed = "".join(cli._format_table(manifest, _SIMULATE_COLUMNS, rows, "csv", chunks))
        assert streamed == reference
    return streamed, reference


def _sampled(model, x0, horizon, count, seed):
    """``count`` trajectories' records, each from a jump loop of its own."""
    from ergokit.ifs_jump import sample_jump_chains
    from ergokit.montecarlo import StreamFactory

    factory = StreamFactory(seed)
    return [next(sample_jump_chains(model, x0, horizon, (factory.stream(0, k),)))
            for k in range(count)]


def test_blocks_match_the_rows_they_hold():
    # a trajectory's block prints int64 indices past 2**53 with %d and every
    # float as _fmt_cell does, whether its row takes an edge text or not
    from types import SimpleNamespace
    from ergokit import cli
    from ergokit.ifs_jump import IdentityFlow

    floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 2.0 / 3.0]
    big = [2 ** 62 + j for j in range(8)]
    trajectories = [_trajectory(floats, floats[::-1], big, floats),
                    _trajectory([], [], [], []),
                    _trajectory([1.5], [0.1], [7], [2.0 / 3.0]),
                    _trajectory(floats, floats, big, floats[::-1])]
    model = SimpleNamespace(flow=IdentityFlow(), _memo={x: None for x in floats if x})
    streamed, reference = _simulate_csv(trajectories, cli._EdgeTexts(model))
    assert streamed == reference


@pytest.mark.parametrize("states", [[0.0, -0.0, 5e-324, 5e-324, 1e-300, 0.5],
                                    [-0.0, 0.0, 1e-300, 5e-324, 5e-324, 0.25]],
                         ids=["plus-first", "minus-first"])
def test_state_texts_keep_the_sign_of_zero(states):
    # 0.0 and -0.0 are one dict key, so neither may take the other's text:
    # through a memo that holds the nonzero neighbours of zero, each zero
    # state misses and is formatted with its own sign. The first block's
    # states mostly take edge texts; the second block's mostly miss.
    from types import SimpleNamespace
    from ergokit import cli
    from ergokit.ifs_jump import IdentityFlow

    memo = {x: None for x in (5e-324, -5e-324, 1e-300, 2e-300)}
    n = len(states)
    trajectories = [_trajectory([0.5 * j for j in range(n)], states, [1] * n, states[::-1]),
                    _trajectory(states, [-0.0, 0.0, 0.0, -0.0, 0.0, 5e-324], [2] * n,
                                [0.0, 0.75, -0.0, 1.5, 0.0, -0.0])]
    texts = cli._EdgeTexts(SimpleNamespace(flow=IdentityFlow(), _memo=memo))
    streamed, reference = _simulate_csv(trajectories, texts)
    assert streamed == reference
    assert "-0" in streamed.split(",")
    assert texts and all(xi in memo for xi, _, _ in texts)


def test_warm_halving_model_keeps_the_sign_of_each_zero(tmp_path, monkeypatch):
    # one halving model serves every run: 1e-322 halves down to +0.0 from a
    # memo point, -0 stays at -0.0, which the memo never holds. Each table
    # is the reference formatter's, and -0 and 0 keep their signs.
    from ergokit import cli

    model, assume = cli.example_halving(1.0)
    monkeypatch.setitem(cli._MODELS, "halving",
                        (lambda lam: (model, assume), cli._MODELS["halving"][1]))
    argv = ["simulate", "--model", "halving", "--horizon", "30", "--trajectories", "5",
            "--seed", "3"]
    tables = {}
    for x0 in ("1e-322", "-0", "0", "1e-322"):
        out = tmp_path / f"{x0}.csv"
        assert main(argv + [f"--x0={x0}", "--out", str(out)]) == 0
        fresh, _ = cli.example_halving(1.0)
        rows = _simulate_rows(_sampled(fresh, float(x0), 30.0, 5, 3))
        manifest, columns, _ = parse_csv(out.read_text())
        assert out.read_text() == _reference_csv(manifest, columns, rows)
        tables[x0] = [line.split(",") for line in out.read_text().splitlines()[len(manifest) + 1:]]
    assert tables["-0"] and all(row[3] == row[5] == "-0" for row in tables["-0"])
    assert tables["0"] and all(row[3] == row[5] == "0" for row in tables["0"])
    assert any(row[3] != "0" and row[5] == "0" for row in tables["1e-322"])
    texts = cli._EdgeTexts(model)
    trajectories = _sampled(model, 1e-322, 30.0, 5, 3) + _sampled(model, -0.0, 30.0, 5, 3)
    streamed, reference = _simulate_csv(trajectories, texts)
    assert streamed == reference
    assert texts and all(xi != 0.0 for xi, _, _ in texts)


def test_moving_flow_makes_no_edge_text():
    # under ExponentialFlow(0.1) each row is formatted as it is, even where
    # the memo holds its pre-jump point
    from ergokit import cli

    model, _ = _expflow_model(1.0)
    trajectories = _sampled(model, 0.3, 20.0, 5, 11)
    for _, xi, _, _ in trajectories:
        for x in xi:
            model._node_at(x)
    assert model._memo
    texts = cli._EdgeTexts(model)
    streamed, reference = _simulate_csv(trajectories, texts)
    assert streamed == reference
    assert len(texts) == 0


def test_edge_texts_stay_within_the_memo_on_a_never_repeating_orbit():
    # every edge text belongs to a memo point and one of its maps
    from ergokit import cli

    model, _ = _orbit_model(1.0)
    trajectories = _sampled(model, 0.3, 200.0, 20, 11)
    texts = cli._EdgeTexts(model)
    streamed, reference = _simulate_csv(trajectories, texts)
    assert streamed == reference
    assert 0 < len(texts) <= len(model._memo) * len(model.maps)
    assert all(xi in model._memo for xi, _, _ in texts)


@pytest.mark.parametrize("x0", ["5", "-0", "1e-322"])
def test_simulate_csv_and_json_hold_the_same_rows(tmp_path, x0):
    argv = ["simulate", "--model", "halving", f"--x0={x0}", "--horizon", "30",
            "--trajectories", "4", "--seed", "8"]
    table, doc = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(table)]) == 0
    assert main(argv + ["--format", "json", "--out", str(doc)]) == 0
    lines = [line for line in table.read_text().splitlines() if not line.startswith("#")]
    rows = json.loads(doc.read_text())["rows"]
    assert rows and len(rows) == len(lines) - 1
    assert [[f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
            for row in rows] == [line.split(",") for line in lines[1:]]


def test_csv_error_row_after_clean_rows_exits_one(tmp_path):
    import argparse
    from ergokit import cli

    out = tmp_path / "t.csv"
    settings = cli.Settings(argparse.Namespace(format=None, out=str(out), plot=None))
    columns = ("x", "value", "error")
    rows = [(float(k), k / 3.0, "") for k in range(5)] + [(9.0, math.nan, "cell 5 failed")]
    assert cli._write(settings, "test", "test-v1", columns, rows) == 1
    assert out.read_text().endswith('9,nan,cell 5 failed\n')
    assert cli._write(settings, "test", "test-v1", columns, rows[:5]) == 0


def test_simulate_failure_on_a_later_trajectory_writes_nothing(tmp_path, capsys):
    from ergokit.cli import register_model, _MODELS
    from ergokit.ifs_jump import IfsModel

    def halve_or_fail(x):
        # w1 halves and w2 stays, chosen evenly: at seed 1 the first
        # trajectory halves 6 times and completes, trajectory 17 halves a
        # 7th time and fails at 4 * 2**-6. Maps are pure functions of the
        # point, so the failure is tied to a point, not to a call count.
        return math.nan if x == 4.0 * 2.0 ** -6 else x / 2.0

    def builder(lam):
        return IfsModel(name="late-nan", maps=(halve_or_fail, lambda x: x),
                        prob_field=lambda x: (0.5, 0.5), rate=lam), None

    register_model("late-nan", builder)
    out = tmp_path / "never.csv"
    argv = ("simulate", "--model", "late-nan", "--x0", "4", "--horizon", "10",
            "--trajectories", "20", "--seed", "1")
    try:
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert "map w1 of model 'late-nan' produced invalid state nan" in err
        assert stdout == ""
        assert not out.exists()
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert "produced invalid state nan" in err
        assert stdout == ""
    finally:
        _MODELS.pop("late-nan", None)


def _orbit_model(lam):
    # an identity-flow model whose trajectories almost never revisit a
    # point: maps x/2 and (x + 1)/2, chosen evenly
    from ergokit.ifs_jump import IfsModel

    def half(x):
        return x / 2.0

    def half_up(x):
        return (x + 1.0) / 2.0

    return IfsModel(name="orbit", maps=(half, half_up), prob_field=lambda x: (0.5, 0.5),
                    rate=lam), None


@pytest.mark.parametrize("model, x0", [("halving", "5"), ("orbit", "0.3")],
                         ids=["halving", "orbit"])
def test_simulate_peak_memory_stays_near_the_output_size(tmp_path, monkeypatch, model, x0):
    # halving repeats a few hundred points; the orbit model's trajectories
    # almost never do, so its states miss the text map
    import tracemalloc
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "orbit", (_orbit_model, ()))
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--model", model, "--x0", x0, "--horizon", "200",
            "--trajectories", "100", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # rows are formatted and written a trajectory at a time, so nothing holds the
    # whole table: about 2x the file, against ~8x when every row was kept
    assert peak < 3 * out.stat().st_size


def test_simulate_chart_holds_its_points_once(tmp_path):
    # --plot keeps one (tau_k, phi_k) pair per row for the chart, and the
    # chart reads them where it draws them: about 110 bytes a row more than
    # the table alone, against about 220 when it copied every series
    import tracemalloc

    argv = ["simulate", "--model", "halving", "--x0", "5", "--horizon", "200",
            "--trajectories", "50", "--out", str(tmp_path / "t.csv")]
    peaks = []
    for plot in ([], ["--plot", str(tmp_path / "t.svg")]):
        assert main(argv + plot) == 0  # imports and first calls are not counted
        tracemalloc.start()
        try:
            assert main(argv + plot) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    _, _, rows = parse_csv((tmp_path / "t.csv").read_text())
    assert len(rows) > 5000
    assert peaks[1] - peaks[0] < 160 * len(rows)


def _digest_without_version(path):
    """sha256 of a file without its manifest's version line, which moves on
    every release, and its mode line, which diagnostics gained in 0.8.0."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if b"version" not in l
                                   and not l.startswith(b"# mode="))).hexdigest()


def test_simulate_bytes_are_pinned(tmp_path):
    # digests of the 0.5.0 tables and chart; a change that moves them must say so in
    # the README and bump the version
    argv = ["simulate", "--model", "halving", "--x0", "5", "--horizon", "200",
            "--trajectories", "20", "--seed", "5"]
    table, doc, chart = tmp_path / "t.csv", tmp_path / "t.json", tmp_path / "t.svg"
    assert main(argv + ["--out", str(table)]) == 0
    assert main(argv + ["--format", "json", "--out", str(doc), "--plot", str(chart)]) == 0
    assert _digest_without_version(table) == \
        "ed06528e56b8c2a45e2b1f48fc1a704d5290f61a12fa2c05585235da73382f82"
    assert _digest_without_version(doc) == \
        "1433de09ca02856ae5fef4e0b06470de3fb228cd6d10bae117176f03ad263e4f"
    assert _digest_without_version(chart) == \
        "cab60590ea779585e6f363fc861970ba87e4efebda22aaa148a57f17161b9bac"


def _edge_model(lam):
    # post-jump points -0.0, the smallest subnormal and 1e308, and the
    # halvings between them
    from ergokit.ifs_jump import IfsModel

    def shrink(x):
        return 5e-324 if x >= 1.0 else -0.0

    def grow(x):
        return 1e308

    def halve(x):
        return x / 2.0

    return IfsModel(name="edge", maps=(shrink, grow, halve),
                    prob_field=lambda x: (0.3, 0.3, 0.4), rate=lam), None


@pytest.mark.parametrize("x0, horizon, digest", [
    ("2", "60", "9509010670ce5a67d032277718f8d22db3f1d7e5be4a3640373d550e89749785"),
    ("-0", "60", "d9ef9fb2e07eb0896afbd7fa3495a10527589c73c1e0ee519e26390179d0814a"),
    ("2", "0", "5deeff4377ab4be3381c04e1f1d8fca732a85714a42d0c09008c7f01d8cc64a9"),
])
def test_simulate_edge_values_match_the_reference_formatter(tmp_path, monkeypatch, x0,
                                                            horizon, digest):
    # each trajectory is written as one block; its bytes are those of every
    # row through csv.writer, and the JSON is the 0.8.0 one
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "edge", (_edge_model, ()))
    argv = ["simulate", "--model", "edge", f"--x0={x0}", "--horizon", horizon,
            "--trajectories", "6", "--seed", "2"]
    table, doc = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(table)]) == 0
    assert main(argv + ["--format", "json", "--out", str(doc)]) == 0
    rows = _simulate_rows(_sampled(_edge_model(1.0)[0], float(x0), float(horizon), 6, 2))
    if horizon == "0":
        assert rows == []
    else:
        assert {"-0.0", "5e-324", "1e+308"} <= {repr(row[-1]) for row in rows}
    manifest, columns, _ = parse_csv(table.read_text())
    assert table.read_text() == _reference_csv(manifest, columns, rows)
    assert _digest_without_version(doc) == digest


@pytest.mark.parametrize("kernel_jumps", [math.inf, 0])
@pytest.mark.parametrize("model, x0", [("halving", "5"), ("flip", "1"), ("edge", "2"),
                                       ("edge", "-0"), ("expflow", "0.3")])
def test_simulate_tau_texts_match_the_reference_formatter(tmp_path, monkeypatch, model, x0,
                                                          kernel_jumps):
    # a table of KERNEL_JUMPS expected jump times or more formats its times
    # with the block kernel, a smaller one with one % per trajectory; 30
    # trajectories, so the kernel formats times of several together
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "edge", (_edge_model, ()))
    monkeypatch.setitem(cli._MODELS, "expflow", (_expflow_model, ()))
    monkeypatch.setattr(cli, "KERNEL_JUMPS", kernel_jumps)
    if kernel_jumps == 0:
        monkeypatch.setattr(cli, "_percent_texts", None)
    out = tmp_path / "table.csv"
    assert main(["simulate", "--model", model, f"--x0={x0}", "--horizon", "60",
                 "--trajectories", "30", "--seed", "2", "--out", str(out)]) == 0
    text = out.read_text()
    manifest, columns, rows = parse_csv(text)
    assert len(rows) > 1000
    # %.17g texts read back to their doubles, so the reference formatter
    # writes the same table from the values read
    cells = [(int(r["traj_id"]), int(r["k"]), float(r["tau_k"]), float(r["xi_k"]),
              int(r["index_k"]), float(r["phi_k"])) for r in rows]
    assert text == _reference_csv(manifest, columns, cells)


_PINNED_LOWERBOUND = ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", "0.1",
                      "--x-grid", "2,5,10", "--t-grid", "20,50", "--samples", "200",
                      "--seed", "5"]


def _sampled_halving(monkeypatch):
    """Serve ``--model halving`` without its exact laws, so it is sampled."""
    from ergokit import cli
    from test_diagnostics import Sampled

    monkeypatch.setitem(cli._MODELS, "halving",
                        (lambda lam: (Sampled(cli.example_halving(lam)[0]), None), ()))


def test_lowerbound_bytes_are_pinned(tmp_path, monkeypatch):
    # digest of the 0.6.0 table, sampled; from the first visit to a point
    # on, every jump of these trajectories runs on the halving model's memo
    _sampled_halving(monkeypatch)
    table = tmp_path / "lb.csv"
    assert main(_PINNED_LOWERBOUND + ["--out", str(table)]) == 0
    manifest, _, _ = parse_csv(table.read_text())
    assert manifest["mode"] == "monte-carlo"
    assert _digest_without_version(table) == \
        "8072a748b0e65e7c3340f85ef04fcb3b01f329807c81659ea80d5764429095a4"


def test_lowerbound_exact_bytes_are_pinned(tmp_path):
    # digest of the 0.9.0 table, where the halving model answers from its
    # backward sweep (test_exact_lowerbound_rows_are_within_their_width_of_the_oracle
    # checks each row)
    table = tmp_path / "lb.csv"
    assert main(_PINNED_LOWERBOUND + ["--out", str(table)]) == 0
    manifest, _, _ = parse_csv(table.read_text())
    assert manifest["mode"] == "exact"
    assert _digest_without_version(table) == \
        "c3f6c74d4c9690dd6041c6d314495d47cde00bc21b9680b566f4fce37a253c03"


def _within(row, truth):
    return abs(Decimal(float(row["value"])) - truth) <= Decimal(float(row["half_width"]))


@pytest.mark.parametrize("argv", [
    ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", "0.1",
     "--x-grid", "0.1,0.5,1,2,5,10", "--t-grid", "100,150,200"],
    _PINNED_LOWERBOUND,
], ids=["criterion-7a", "pinned"])
def test_exact_lowerbound_rows_are_within_their_width_of_the_oracle(tmp_path, argv):
    # each start's minimum, at its reported t and over the grid, and the
    # scan minimum, against the decimal uniformized chain
    table = tmp_path / "lb.csv"
    assert main(argv + ["--out", str(table)]) == 0
    manifest, _, rows = parse_csv(table.read_text())
    assert manifest["mode"] == "exact"
    times = [float(t) for t in manifest["t_grid"].split(",")]
    *starts, scan = rows
    lows = []
    for row in starts:
        truth = dict(zip(times, halving_hit_probs(float(row["x"]), float(manifest["eps"]),
                                                  times)))
        lows.append(min(truth.values()))
        assert _within(row, truth[float(row["t"])]) and _within(row, lows[-1])
    assert scan["label"] == "scan_min" and _within(scan, min(lows))


@pytest.mark.parametrize("argv", [
    ["diagnose", "assumptions", "--c2", "true", "--samples", "200"],
    ["diagnose", "assumptions", "--x-grid", "0.1", "--c2", "true", "--eps", "0.05,0.2",
     "--c2-x-grid", "0.1,1,3", "--t-search", "64"],
], ids=["pinned", "two-radii"])
def test_exact_c2_rows_are_within_their_width_of_the_oracle(tmp_path, argv):
    # each start's best hit probability, at its reported t and over the
    # grid, and each radius's floor, against the decimal uniformized chain
    table = tmp_path / "c2.csv"
    assert main(argv + ["--out", str(table)]) == 0
    manifest, _, rows = parse_csv(table.read_text())
    assert manifest["mode"] == "exact"
    times = [0.0] + [2.0 ** k for k in range(int(math.log2(float(manifest["t_search"]))) + 1)]
    starts = manifest["c2_x_grid"].split(",")
    rows = [r for r in rows if r["label"].startswith("c2_")]
    for eps in manifest["eps"].split(","):
        *hits, beta = rows[:len(starts) + 1]
        rows = rows[len(starts) + 1:]
        highs = []
        for row, x in zip(hits, starts):
            truth = dict(zip(times, halving_hit_probs(float(x), float(eps), times)))
            highs.append(max(truth.values()))
            assert row["error"] == "" and _within(row, truth[float(row["t"])])
            assert _within(row, highs[-1])
        assert beta["x"] == f"eps={float(eps):g}" and _within(beta, min(highs))
    assert rows == []


def test_lowerbound_over_the_orbit_budget_is_sampled(tmp_path, monkeypatch):
    # past the budget the halving model has no exact laws: the rows are the
    # 0.6.0 ones
    from ergokit import ifs_jump

    monkeypatch.setattr(ifs_jump, "BREAK_EVEN_SAMPLES", 0)
    monkeypatch.setattr(ifs_jump, "ORBIT_BUDGET", 1000)
    table = tmp_path / "lb.csv"
    assert main(_PINNED_LOWERBOUND + ["--out", str(table)]) == 0
    manifest, _, _ = parse_csv(table.read_text())
    assert manifest["mode"] == "monte-carlo"
    assert _digest_without_version(table) == \
        "8072a748b0e65e7c3340f85ef04fcb3b01f329807c81659ea80d5764429095a4"


def _drift_model(lam):
    # a registered model under a moving flow, so it has no exact laws
    from ergokit.ifs_jump import ExponentialFlow, IfsModel

    def halve(x):
        return x / 2.0

    def stay(x):
        return x

    return IfsModel(name="drift", maps=(halve, stay), prob_field=lambda x: (0.5, 0.5),
                    rate=lam, flow=ExponentialFlow(0.01)), None


def _far_nan_model(flow):
    # halving whose stay map fails past 8
    from ergokit.ifs_jump import IfsModel

    def halve(x):
        return x / 2.0

    def stay_or_nan(x):
        return math.nan if x > 8.0 else x

    def field(x):
        return (math.exp(-x), 1.0 - math.exp(-x))

    return lambda lam: (IfsModel(name="far-nan", maps=(halve, stay_or_nan), prob_field=field,
                                 rate=lam, flow=flow, absorbing=(0.0,)), None)


@pytest.mark.parametrize("flow, x_grid, t_grid, failed", [
    # the exact law from 10 fails at once, so both of its cells do
    ("identity", "1,10", "5,10", [("10", "5"), ("10", "10")]),
    # a trajectory from 1 drifts past 8 before t = 40, none before t = 2
    ("exponential", "0.5,1", "2,40", [("1", "40")]),
], ids=["exact", "sampled"])
def test_lowerbound_start_with_a_failed_cell_has_no_minimum(capsys, monkeypatch, flow, x_grid,
                                                            t_grid, failed):
    # the minimum over the cells that survived is no minimum over the grid:
    # the start and the scan print nan with an error, the other starts
    # their minimum
    from ergokit import cli
    from ergokit.ifs_jump import ExponentialFlow, IdentityFlow

    flow = IdentityFlow() if flow == "identity" else ExponentialFlow(0.1)
    monkeypatch.setitem(cli._MODELS, "far-nan", (_far_nan_model(flow), ()))
    code, out, _ = run_cli(capsys, "diagnose", "lowerbound", "--model", "far-nan", "--z", "0",
                           "--eps", "0.1", "--x-grid", x_grid, "--t-grid", t_grid,
                           "--samples", "50")
    assert code == 1
    _, _, rows = parse_csv(out)
    bad = {x for x, _ in failed}
    starts = [r for r in rows if r["label"] == "hit_prob_min"]
    assert [(r["x"], r["t"]) for r in starts if r["x"] in bad] == failed
    assert [r["x"] for r in starts if r["x"] not in bad] == [x_grid.split(",")[0]]
    for r in starts:
        assert (r["value"] == "nan") == bool(r["error"]) == (r["x"] in bad)
    (scan,) = [r for r in rows if r["label"] == "scan_min"]
    assert scan["value"] == "nan" and scan["error"] == f"{len(failed)} of 4 cells failed"


# the error of a far-nan cell whose trajectory reaches the failing map
_MAP_FAILURE = (r"trajectory \d+ of cell \d+: "
                r"map w2 of model 'far-nan' produced invalid state nan from x=\S+")


def test_stability_failed_cell_has_a_nan_row_and_no_pairs(capsys, monkeypatch):
    # a trajectory from 1 drifts past 8 before t = 40: that cell prints nan
    # with its error and joins no pair, while the pairs of the other
    # starts at t = 40 are still reported
    from ergokit import cli
    from ergokit.ifs_jump import ExponentialFlow

    monkeypatch.setitem(cli._MODELS, "far-nan", (_far_nan_model(ExponentialFlow(0.1)), ()))
    code, out, err = run_cli(capsys, "diagnose", "stability", "--model", "far-nan",
                             "--initials", "0,0.5,1", "--t-grid", "2,40", "--samples", "50")
    assert code == 1 and err == ""
    _, _, rows = parse_csv(out)
    refs = {(r["x"], r["t"]): r for r in rows if r["label"] == "bl_to_ref"}
    assert len(refs) == 6
    for cell, r in refs.items():
        assert (r["value"] == "nan") == bool(r["error"]) == (cell == ("1", "40"))
    assert re.fullmatch(_MAP_FAILURE, refs["1", "40"]["error"])
    assert [(r["x"], r["t"]) for r in rows if r["label"] == "bl_between"] == [
        ("0|0.5", "2"), ("0|1", "2"), ("0.5|1", "2"), ("0|0.5", "40")]


@pytest.mark.parametrize("argv", [
    ("ec", "--xs", "0.5,1", "--window-start", "2", "--window-end", "40", "--grid", "2,40"),
    ("eprop", "--pairs", "0.5@2,1@40"),
], ids=["ec", "eprop"])
def test_mean_diagnostic_with_a_failed_cell_writes_no_table(capsys, monkeypatch, argv):
    from ergokit import cli
    from ergokit.ifs_jump import ExponentialFlow

    monkeypatch.setitem(cli._MODELS, "far-nan", (_far_nan_model(ExponentialFlow(0.1)), ()))
    code, out, err = run_cli(capsys, "diagnose", argv[0], "--model", "far-nan", "--z", "0",
                             *argv[1:], "--samples", "50")
    assert code == 1 and out == ""
    assert re.fullmatch(f"error: {_MAP_FAILURE}\n", err)


def test_moving_flow_is_sampled(capsys, monkeypatch):
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "drift", (_drift_model, ()))
    code, out, _ = run_cli(capsys, "diagnose", "lowerbound", "--model", "drift", "--z", "0",
                           "--x-grid", "0.5", "--t-grid", "2", "--samples", "50")
    assert code == 0
    manifest, _, _ = parse_csv(out)
    assert manifest["mode"] == "monte-carlo"


def test_float32_field_is_sampled(capsys, monkeypatch):
    # its sampler selects in float32, which a float64 sweep does not state
    from ergokit import cli
    from test_ifs_jump import _float32_model

    monkeypatch.setitem(cli._MODELS, "float32", (lambda lam: (_float32_model(), None), ()))
    code, out, _ = run_cli(capsys, "diagnose", "lowerbound", "--model", "float32", "--z", "0",
                           "--x-grid", "0.5", "--t-grid", "0.001", "--samples", "50")
    assert code == 0
    manifest, _, _ = parse_csv(out)
    assert manifest["mode"] == "monte-carlo"


def test_sampled_lowerbound_rows_bracket_the_exact_rows(tmp_path, monkeypatch):
    exact = tmp_path / "exact.csv"
    assert main(_PINNED_LOWERBOUND + ["--out", str(exact)]) == 0
    _sampled_halving(monkeypatch)
    sampled = tmp_path / "sampled.csv"
    assert main(_PINNED_LOWERBOUND + ["--out", str(sampled)]) == 0
    _, _, exact_rows = parse_csv(exact.read_text())
    _, _, sampled_rows = parse_csv(sampled.read_text())
    assert [(r["label"], r["x"]) for r in sampled_rows] == [(r["label"], r["x"]) for r in exact_rows]
    for e, m in zip(exact_rows, sampled_rows):
        assert 0.0 < float(e["half_width"]) < 1e-12 < float(m["half_width"])
        assert abs(float(m["value"]) - float(e["value"])) <= \
            float(m["half_width"]) + float(e["half_width"])


def test_simulate_negative_zero_bytes_on_a_warm_model(tmp_path, monkeypatch):
    # one halving model object serves both commands, so the -0 run meets a
    # model that has sampled from +0.0: 0.0 == -0.0 as dict keys, and the
    # table must still be the 0.6.0 one, with -0 in every phi_k
    from ergokit import cli

    model, assume = cli.example_halving(1.0)
    monkeypatch.setitem(cli._MODELS, "halving",
                        (lambda lam: (model, assume), cli._MODELS["halving"][1]))
    argv = ["simulate", "--model", "halving", "--horizon", "20", "--trajectories", "5",
            "--seed", "3"]
    plus, minus = tmp_path / "plus.csv", tmp_path / "minus.csv"
    assert main(argv + ["--x0", "0", "--out", str(plus)]) == 0
    assert main(argv + ["--x0=-0", "--out", str(minus)]) == 0
    assert _digest_without_version(minus) == \
        "f90a6767c040d0eb0557bad093c0fc819495341d384eacb48c30a5008c07375d"
    lines = [line for line in minus.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    assert rows and all(row[-1] == "-0" for row in rows)



def test_simulate_bytes_on_a_model_warmed_by_another_command(tmp_path, monkeypatch):
    # one halving model object serves every command: the lowerbound scan
    # fills its memo from the exact laws, the -0 table starts with that
    # memo and the 5 table with the points -0 added, none of them zero.
    # Each table must still be the pinned one.
    from ergokit import cli

    model, assume = cli.example_halving(1.0)
    monkeypatch.setitem(cli._MODELS, "halving",
                        (lambda lam: (model, assume), cli._MODELS["halving"][1]))
    assert main(_PINNED_LOWERBOUND + ["--out", str(tmp_path / "lb.csv")]) == 0
    assert model._memo and 0.0 not in model._memo
    minus, table = tmp_path / "minus.csv", tmp_path / "t.csv"
    assert main(["simulate", "--model", "halving", "--horizon", "20", "--trajectories", "5",
                 "--seed", "3", "--x0=-0", "--out", str(minus)]) == 0
    assert main(["simulate", "--model", "halving", "--x0", "5", "--horizon", "200",
                 "--trajectories", "20", "--seed", "5", "--out", str(table)]) == 0
    assert _digest_without_version(minus) == \
        "f90a6767c040d0eb0557bad093c0fc819495341d384eacb48c30a5008c07375d"
    assert _digest_without_version(table) == \
        "ed06528e56b8c2a45e2b1f48fc1a704d5290f61a12fa2c05585235da73382f82"

@pytest.mark.parametrize("argv, digest", [
    (["exact-ctmc", "--n", "3", "--t", "2"],
     "773bd956f68ac7667ee038a94b6a91a4347df62bb18b0989f6fefe32d70e5576"),
    (["exact-ctmc", "--n", "5", "--t", "0.7", "--f", "const:3"],
     "92994172795bec39b0c5c9489aae42e08346949a0d80a4113f72c7a5cfc955ba"),
    (["exact-ctmc", "--n", "3", "--t", "2", "--f", "bump:0,1,0.5", "--format", "json"],
     "aa762d67a90cde2f43b37e595bd4257d133b1eb7e89666b2a9f6f45f77c180db"),
    (["estimate", "--model", "ctmc", "--x0", "low:2,low:4,high:3", "--times", "1,4,16",
      "--f", "xmin1", "--ball", "0,0.1", "--samples", "600"],
     "eeebe0bb9f715bd36897b2d637a119e3fa63485a64e89619ce44a3dca5bc307f"),
    (["diagnose", "stability", "--model", "ctmc", "--initials", "low:2,high:3",
      "--t-grid", "1,4", "--samples", "200", "--seed", "5"],
     "4224a941cbfba97667e0b843f7eabf49bf23b0ca8d8b118262c8aad93506efee"),
    (["diagnose", "stability", "--model", "drift", "--initials", "0.5,2",
      "--t-grid", "2,4", "--samples", "200", "--seed", "5"],
     "565c9c42ff61d7663319173cbe3aead422e276d06383e4ba110f0c2b04cd0eba"),
    (["diagnose", "eprop", "--model", "ctmc"],
     "764ba8b4393304f9c9d15bccd60cbc37f6474354913b18f44c3acec476b463f1"),
    # 0.9.0: the C2 rows come from the backward sweep (see
    # test_exact_c2_rows_are_within_their_width_of_the_oracle)
    (["diagnose", "assumptions", "--c2", "true", "--samples", "200"],
     "acadb1f5814791d0dabdaee4eeca7183016a13a3518688106e5e6d7f4fc4029d"),
], ids=["exact-ctmc-p", "exact-ctmc-const", "exact-ctmc-bump-json", "ctmc-estimate",
        "stability-ctmc", "stability-drift", "eprop-ctmc", "assumptions-c2"])
def test_table_bytes_are_pinned(tmp_path, monkeypatch, argv, digest):
    # digests of the 0.8.0 tables: the chain's closed form, its sampled
    # estimates and the diagnostics on the ctmc, halving and drift models.
    # 0.10.0: ctmc manifests carry no lambda, and the chain's exact rows
    # come from the sweep (see
    # test_chain_exact_rows_are_within_their_width_of_the_closed_form).
    # 0.12.0: the chain is sampled once per start (stream key (seed, start
    # position, k)), which moved ctmc-estimate, and every rounded entry of
    # exact-ctmc carries its rounding bound as its half-width.
    # 0.13.0: bl_distance's closed form moved the last digits of a
    # stability-drift bl_to_ref value
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "drift", (_drift_model, ()))
    table = tmp_path / "table"
    assert main(argv + ["--out", str(table)]) == 0
    assert _digest_without_version(table) == digest


@pytest.mark.parametrize("argv, csv_digest, json_digest", [
    (["--model", "drift", "--x0", "2", "--horizon", "40"],
     "5607ecfacaea8bdf2c44d80ce4ce2c4df1a2df2856cb8a97f2b52d5d4c378e84",
     "cc77b13e31b3054835c01e0308f6fe3648387357337adc230d6d61d843740aa7"),
    (["--model", "orbit", "--x0", "0.3", "--horizon", "40"],
     "4288499d123f01088a317e9f35cef70d91a65db1c775a5155b5e55f09c23ede3",
     "38a5f2a57426276989956d9b90643820acac3f12a3dd8f6e8172bc4f00e96def"),
    (["--model", "flip", "--x0", "0.7", "--horizon", "40"],
     "c5276e6813375bdf067d53fdf5643181d2c03107117603c876835c484672efac",
     "6345fb29fd935c4073ff58e79a493fadfb92d7f2a643bdaa16434de23d205e08"),
], ids=["drift", "orbit", "flip"])
def test_simulate_tables_are_pinned(tmp_path, monkeypatch, argv, csv_digest, json_digest):
    # digests of the 0.8.0 simulate tables on a moving flow, an orbit that
    # rarely repeats and the flip model
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "drift", (_drift_model, ()))
    monkeypatch.setitem(cli._MODELS, "orbit", (_orbit_model, ()))
    argv = ["simulate", *argv, "--trajectories", "6", "--seed", "11"]
    table, doc = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(table)]) == 0
    assert main(argv + ["--format", "json", "--out", str(doc)]) == 0
    assert (_digest_without_version(table), _digest_without_version(doc)) == \
        (csv_digest, json_digest)


@pytest.mark.parametrize("argv, csv_digest, json_digest", [
    (["--model", "halving", "--x0", "5", "--horizon", "200", "--trajectories", "400",
      "--seed", "3"],
     "e990f3a38e68091b87581df81e3416b14053bb9d2595d9820923a2a75f1adff8",
     "57dd527e41f02ac26b7051b32ac0a4e5ec3fc54c6791ebb4621622bb9ae5b557"),
    (["--model", "expflow", "--x0", "0.3", "--horizon", "50", "--trajectories", "320",
      "--seed", "4"],
     "7c8cfb9c5966dca580494a1a1951a8644d248c4071317a7ca596a9900fd3c906",
     "d12bb01a0e7bf614ac51f591e6fb487d2b608a676ae35fb515ccd40aa347638a"),
], ids=["halving-benchmark", "expflow"])
def test_large_simulate_tables_are_pinned(tmp_path, monkeypatch, argv, csv_digest,
                                          json_digest):
    # digests of 0.10.0 tables past KERNEL_JUMPS expected jump times (80 000
    # and 16 000), whose CSV times come from the block kernel: the
    # benchmark's halving table and a moving flow's
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "expflow", (_expflow_model, ()))
    table, doc = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(["simulate", *argv, "--out", str(table)]) == 0
    assert main(["simulate", *argv, "--format", "json", "--out", str(doc)]) == 0
    assert (_digest_without_version(table), _digest_without_version(doc)) == \
        (csv_digest, json_digest)


def _expflow_halve(x):
    return x / 2.0


def _expflow_halve_up(x):
    return (x + 1.0) / 2.0


def _expflow_fair(x):
    return (0.5, 0.5)  # a constant: one tuple object for every call


def _expflow_model(lam):
    # the benchmark's expflow shape, a moving flow with no exact law; its
    # functions live at module level so that worker processes can unpickle it
    from ergokit.ifs_jump import ExponentialFlow, IfsModel

    return IfsModel(name="expflow", maps=(_expflow_halve, _expflow_halve_up),
                    prob_field=_expflow_fair, rate=lam, flow=ExponentialFlow(0.1)), None


@pytest.mark.parametrize("argv, digest", [
    (["diagnose", "stability", "--model", "expflow", "--initials", "0,1,2", "--t-grid", "10,20",
      "--samples", "400", "--seed", "7"],
     "035171ab95d8a71cfddfc57c056e81fa4d9d79b14b077e9320847f9932165f17"),
    (["estimate", "--model", "expflow", "--x0", "0,1,2", "--times", "10,20", "--f", "xmin1",
      "--ball", "0.5,0.25", "--samples", "400", "--seed", "7"],
     "334d7819f4e064db4a593a5a0f19c542a284b6fb1d4d70c424bab08492f514ad"),
], ids=["stability", "estimate"])
def test_moving_flow_tables_are_pinned(tmp_path, monkeypatch, argv, digest):
    # digests of the 0.9.0 tables of a moving flow whose field returns one
    # constant tuple; the benchmark replays these laws through the sampler
    # itself, so only these pins see a sampler change that moves them.
    # 0.13.0: bl_distance's closed form moved the last digits of the
    # stability table's bl_to_ref and bl_between values
    from ergokit import cli

    monkeypatch.setitem(cli._MODELS, "expflow", (_expflow_model, ()))
    tables = []
    for workers in ("1", "2"):
        table = tmp_path / f"w{workers}.csv"
        assert main(argv + ["--workers", workers, "--out", str(table)]) == 0
        tables.append(table.read_bytes())
    assert tables[0] == tables[1]
    assert _digest_without_version(table) == digest


@pytest.mark.parametrize("argv, status, digest", [
    (["--model", "ctmc", "--x0", "low:2,low:4,high:3", "--times", "1,4,16", "--f", "xmin1",
      "--ball", "0,0.1", "--samples", "6000"], 0,
     "cd0e00e483a49f682fb5c5b2627b8ef4f6ebf0c80099c46e02f03772f5595227"),
    (["--model", "ctmc", "--x0", "low:2,high:3", "--times", "1,4", "--f", "const:3",
      "--samples", "500", "--seed", "4"], 0,
     "84c7ed86cf72a2877e5d298f2524bdce78ca3344df6427c2625d0d63840ffd9b"),
    (["--model", "ctmc", "--x0", "low:2,low:4,high:3", "--times", "1,4,16",
      "--f", "bump:0,1,0.5", "--samples", "500", "--seed", "4"], 0,
     "5a0ba0d979701c23f47cb75c593ce144fca7a2f8bfb215d4a6350389340aba63"),
    (["--model", "halving", "--x0", "0.5,2", "--times", "5,20", "--f", "bump:0,0.5,0.2",
      "--samples", "300", "--seed", "3"], 0,
     "73141423e8584a6021f56db78b05b5babea9623c06062a1c33188b34d29a5395"),
    (["--model", "ctmc", "--x0", "high:2", "--times", "0,1,50", "--f", "bump:1,2,1e-300",
      "--samples", "200", "--seed", "6"], 1,
     "fb9dba67d7ffcc66a6a9a912d32a1a846840be68ae676a67537f9a49c8b147af"),
    (["--model", "ctmc", "--x0", "low:3,high:2", "--times", "2,9", "--f", "xmin1",
      "--ball", "0,0.3", "--samples", "8197", "--seed", "11"], 0,
     "97ef120deb9d853b1042bc70338aa869fe1d2aa3649a8f3441a9b37348f9af2a"),
], ids=["ctmc-xmin1-ball-two-chunks", "ctmc-const", "ctmc-bump", "halving-bump",
        "ctmc-bump-zero-division", "ctmc-xmin1-ball-chunk-plus-5"])
def test_estimate_tables_are_pinned(tmp_path, capsys, argv, status, digest):
    # digests of the 0.8.0 estimate tables of each built-in test function,
    # on the batch-sampled chain and on the sampled halving model; at 2, 1
    # and 1e-300/4 from 2 the bump divides 0 by 0, so those cells carry the
    # error and the run exits 1. The first case's 6000 trajectories per cell
    # took two passes of the Philox kernel at CHUNK = 4096, as its id says,
    # and take one since CHUNK = 8192; the last case's CHUNK + 5 = 8197 take
    # two, and its digest was taken at CHUNK = 4096 (three passes). The
    # ctmc digests moved in 0.10.0 only by the manifest's lambda line, and
    # in 0.12.0 where the chain, now sampled once per start, draws a cell
    # from a new stream: every cell but those of the first start at its
    # first time, and those whose values every stream gives (const, t = 0)
    tables = []
    for workers in ("1", "2"):
        table = tmp_path / f"w{workers}.csv"
        assert main(["estimate", *argv, "--workers", workers, "--out", str(table)]) == status
        assert capsys.readouterr() == ("", "")
        tables.append(table.read_bytes())
    assert tables[0] == tables[1]
    assert _digest_without_version(table) == digest
    if status:
        _, _, rows = parse_csv(tables[0].decode())
        assert [row["error"] for row in rows] == ["float division by zero"] * 2 + [""]


@pytest.mark.parametrize("argv", [
    ["estimate", "--model", "ctmc", "--x0", "low:2", "--times", "1", "--f", "xmin1",
     "--samples", "20"],
    ["simulate", "--model", "halving", "--x0", "5", "--horizon", "20", "--trajectories", "3"],
])
def test_commands_leave_no_cyclic_garbage(tmp_path, argv):
    # a parser built per command was ~500 objects of cyclic garbage, which
    # a process running many fast commands held until the collector ran
    import gc

    argv = argv + ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0


@pytest.mark.parametrize("name, argv", [
    ("run_batch", ["estimate", "--model", "ctmc", "--x0", "low:2", "--times", "1",
                   "--f", "xmin1", "--samples", "20"]),
    ("sample_jump_chains", ["simulate", "--model", "halving", "--x0", "5", "--horizon", "20",
                            "--trajectories", "3"]),
    ("lower_bound_scan", ["diagnose", "lowerbound", "--model", "halving", "--z", "0",
                          "--x-grid", "1", "--t-grid", "5"]),
    ("stability_report", ["diagnose", "stability", "--model", "flip", "--initials", "0",
                          "--t-grid", "2", "--samples", "20"]),
], ids=["run_batch", "sample_jump_chains", "lower_bound_scan", "stability_report"])
def test_commands_call_entry_points_through_cli_globals(tmp_path, monkeypatch, name, argv):
    # the modules behind them load on first call; a replacement set on cli
    # is still the function the command runs
    from ergokit import cli

    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert calls


def test_probe_entry_point_gives_one_trajectorys_jump_times():
    # perfbench's traced probe calls cli.sample_jump_chain and counts len()
    # of its result as the trajectory's jumps
    from ergokit import cli
    from ergokit.ifs_jump import example_halving, sample_jump_chains
    from ergokit.montecarlo import StreamFactory

    model, _ = example_halving(1.0)
    factory = StreamFactory(4)
    for k in range(5):
        got = cli.sample_jump_chain(model, 5.0, 100.0, factory.stream(1, k))
        tau, xi, _, _ = next(sample_jump_chains(model, 5.0, 100.0, (factory.stream(1, k),)))
        assert got.dtype == tau.dtype and got.tobytes() == tau.tobytes()
        assert len(got) == len(xi) > 0


def test_cli_builtin_model_builders_resolve():
    from ergokit import cli
    from ergokit.ifs_jump import IfsModel, halving_tv_modulus

    assert isinstance(cli.example_flip(1.0), IfsModel)
    model, assume = cli.example_halving(2.0)
    assert (model.name, model.rate) == ("halving", 2.0)
    (omega,) = cli._MODELS["halving"][1]
    assert omega(0.3) == halving_tv_modulus(0.3)
    assert cli._modulus_label(omega) == cli._modulus_label(halving_tv_modulus) \
        == "omega=2(1-exp(-s))"
    assert cli._modulus_label(assume.omega) == "omega=s"


@pytest.mark.xfail(
    strict=True,
    reason="ec_gap_max takes its maximum over the grid 0, 3, ..., 21 only, although its t "
           "column names the window [0,21]: the gap peaks at t = 4, between grid times, "
           "and the exact row's half-width, 8.8e-14, covers only its rounding",
)
def test_exact_ec_gap_max_covers_the_whole_window(capsys):
    from oracles import ctmc_ec_gap_max

    code, out, _ = run_cli(capsys, "diagnose", "ec", "--model", "ctmc", "--z", "zero",
                           "--xs", "low:5", "--window-end", "21")
    assert code == 0
    manifest, _, [row] = parse_csv(out)
    assert (manifest["mode"], row["t"]) == ("exact", "[0,21]")
    t_peak, truth = ctmc_ec_gap_max(5, 0.0, 21.0)
    assert t_peak == 4.0 and truth == pytest.approx(math.exp(-0.8), abs=1e-16)
    assert abs(float(row["value"]) - truth) <= float(row["half_width"])


# ---------------------------------------------------------------------------
# usage errors: exit status 2, one stderr line, no table

_ESTIMATE = ("estimate", "--model", "flip", "--x0", "1", "--times", "1", "--f", "xmin1")


@pytest.mark.parametrize("argv, message", [
    (("estimate", "--model", "ctmc", "--x0", "low:2", "--times", "1", "--ball", "1"),
     "bad value for ball: '1' (ball spec is <center>,<radius>)"),
    (("estimate", "--model", "ctmc", "--times", "1", "--f", "xmin1"),
     "missing required option --x0"),
    (_ESTIMATE + ("--lambda", "0"), "bad value for lambda: '0' (must be a positive real)"),
    (("simulate", "--model", "halving", "--x0", "1", "--horizon", "-1"),
     "bad value for horizon: '-1' (time must be a finite nonnegative real, got -1.0)"),
    (_ESTIMATE + ("--samples", "0"), "bad value for samples: '0' (must be a positive integer)"),
    (_ESTIMATE + ("--confidence", "1"),
     "bad value for confidence: '1' (confidence must lie strictly between 0 and 1)"),
    (("diagnose", "eprop", "--model", "halving"),
     "no automatic witness pairs for model 'halving'; pass --pairs"),
    (("diagnose", "eprop", "--model", "flip", "--pairs", "0.5"),
     "pair '0.5' must look like x@t"),
    (("diagnose", "eprop", "--model", "flip", "--pairs", ","), "no pairs given"),
    (("diagnose", "assumptions", "--model", "flip"),
     "model 'flip' carries no assumption data to audit"),
], ids=["ball", "required", "lambda", "horizon", "samples", "confidence", "auto-pairs",
        "pair-without-at", "no-pairs", "no-assumptions"])
def test_usage_error_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("model = ctmc\nnot a pair\n", "{path}:2: expected 'key = value', got 'not a pair'"),
    ("model = ctmc\nx0 = low:2\ntimes = 1\nf = xmin1\nsamples = 10\nformat = xml\n",
     "bad value for format: 'xml' (must be csv or json)"),
], ids=["no-equals", "format-xml"])
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    # argparse's choices never see a config file's format
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {message.format(path=cfg)}\n")


def test_config_file_format_is_checked_before_any_cell_is_sampled(tmp_path, capsys, monkeypatch):
    from ergokit import cli

    calls = []
    monkeypatch.setattr(cli, "run_batch", lambda *a, **k: calls.append(a) or [])
    cfg = tmp_path / "xml.cfg"
    cfg.write_text("model = ctmc\nx0 = low:2\ntimes = 1\nf = xmin1\nsamples = 10\nformat = xml\n")
    code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
    assert (code, out, err.count("\n"), calls) == (2, "", 1, [])


def test_ctmc_refuses_a_jump_rate_given_as_a_flag(capsys):
    code, out, err = run_cli(capsys, "estimate", "--model", "ctmc", "--x0", "low:2",
                             "--times", "1", "--f", "xmin1", "--lambda", "7")
    assert (code, out, err) == (2, "", "error: model ctmc is a chain with no jump rate; "
                                       "drop lambda\n")


def test_ctmc_refuses_a_jump_rate_given_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "ctmc.cfg"
    cfg.write_text("model = ctmc\nlambda = 1\nx0 = low:2\ntimes = 1\nf = xmin1\n")
    code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: model ctmc is a chain with no jump rate; "
                                       "drop lambda\n")


def _closed_chain_law(token, t):
    """The chain's time-t law from a state token, by its closed form."""
    from ergokit.core import EmpiricalMeasure
    from ergokit.exact_ctmc import CtmcState, parse_ctmc_state, transition_prob

    x = parse_ctmc_state(token)
    ys = [CtmcState.zero()] + ([CtmcState.low(x.n), CtmcState.high(x.n)] if x.n else [])
    law = sorted((y.value, transition_prob(x, y, t)) for y in ys)
    return EmpiricalMeasure([v for v, _ in law], [p for _, p in law])


@pytest.mark.parametrize("argv", [
    ("stability", "--initials", "low:2,high:3,low:49,high:93", "--t-grid", "1,4,49,93"),
    ("eprop",),
    ("eprop", "--pairs", "low:49@49,low:93@93,high:49@49,low:2@1e-9"),
], ids=["stability", "eprop-auto", "eprop-49-93"])
def test_chain_exact_rows_are_within_their_width_of_the_closed_form(capsys, argv):
    # every exact row of the chain comes from the jump-system sweep: a
    # width above 0 that covers its distance to the closed form
    from ergokit.core import EmpiricalMeasure, bl_distance, xmin1
    from ergokit.exact_ctmc import parse_ctmc_state, semigroup_apply

    code, out, _ = run_cli(capsys, "diagnose", *argv, "--model", "ctmc")
    manifest, _, rows = parse_csv(out)
    assert (code, manifest["mode"]) == (0, "exact")
    assert rows
    for row in rows:
        t = float(row["t"])
        if row["label"] == "witness":
            truth = semigroup_apply(xmin1(), parse_ctmc_state(row["x"]), t)
        else:
            laws = [_closed_chain_law(x, t) for x in row["x"].split("|")]
            truth = bl_distance(laws[0], laws[1] if len(laws) == 2
                                else EmpiricalMeasure.point_mass(0.0))
        assert 0.0 < float(row["half_width"])
        assert abs(float(row["value"]) - truth) <= float(row["half_width"])


def test_config_file_rejects_the_key_lam(tmp_path, capsys):
    # the flag is --lambda, so its config key is lambda too
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("model = halving\nlam = 2\nx0 = 1\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: unknown config keys: lam\n")


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "estimate", "--config", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {missing}: ")
    assert err.count("\n") == 1


def test_empty_pair_items_are_skipped(capsys):
    argv = ("diagnose", "eprop", "--model", "flip", "--samples", "10")
    code, out, _ = run_cli(capsys, *argv, "--pairs", "0.5@1,,0.25@2,")
    assert code == 0
    assert [(r["x"], r["t"]) for r in parse_csv(out)[2]] == [("0.5", "1"), ("0.25", "2")]


def test_plot_leaves_out_failed_rows(tmp_path, capsys, monkeypatch):
    # start 0 is absorbed; from 1 the one map fails, so that start's row and
    # scan_min carry errors, and the chart draws only the start-0 row
    import xml.etree.ElementTree as ET

    from ergokit import cli
    from ergokit.ifs_jump import IfsModel

    def broken(x):
        return math.nan

    model = IfsModel(name="broken", maps=(broken,), prob_field=lambda x: (1.0,), rate=1.0,
                     absorbing=(0.0,))
    monkeypatch.setitem(cli._MODELS, "broken", (lambda lam: (model, None), ()))
    svg = tmp_path / "chart.svg"
    code, out, _ = run_cli(capsys, "diagnose", "lowerbound", "--model", "broken", "--z", "0",
                           "--x-grid", "0,1", "--t-grid", "1", "--plot", str(svg))
    assert code == 1
    rows = parse_csv(out)[2]
    assert [(r["label"], r["x"], r["error"] != "") for r in rows] == [
        ("hit_prob_min", "0", False), ("hit_prob_min", "1", True), ("scan_min", "all", True)]
    names = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "hit_prob_min 0" in names
    assert not any(n.startswith(("hit_prob_min 1", "scan_min")) for n in names)
