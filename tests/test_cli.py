import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

import ergokit
from ergokit.cli import main


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


def test_exact_ctmc_rejects_low_level(capsys):
    code, _, err = run_cli(capsys, "exact-ctmc", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


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


def test_estimate_requires_functional(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", "2")
    assert code == 2
    assert "--f" in err or "--ball" in err


def test_estimate_empty_times_rejected(capsys):
    code, _, err = run_cli(capsys, "estimate", "--model", "flip", "--x0", "1",
                           "--times", ",", "--f", "xmin1")
    assert code == 2
    assert "grid empty" in err


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_estimate_non_finite_time_rejected(capsys, t):
    code, out, err = run_cli(capsys, "estimate", "--model", "halving", "--x0", "1",
                             "--times", t, "--f", "xmin1")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("ec", "--model", "halving", "--z", "0", "--xs", "0.5", "--window-start", "1",
     "--window-end", "10", "--grid", "1,nan"),
    ("ec", "--model", "ctmc", "--z", "zero", "--xs", "low:2", "--window-start", "1",
     "--window-end", "10", "--grid", "1,nan"),
    ("lowerbound", "--model", "halving", "--z", "0", "--x-grid", "1", "--t-grid", "1,nan"),
    ("stability", "--model", "halving", "--initials", "1", "--t-grid", "1,nan"),
    ("eprop", "--model", "flip", "--pairs", "0.2@nan"),
    ("eprop", "--model", "ctmc", "--pairs", "low:2@inf"),
], ids=["ec-halving", "ec-ctmc", "lowerbound", "stability", "eprop-flip", "eprop-ctmc"])
def test_diagnose_non_finite_time_rejected(capsys, argv):
    code, out, err = run_cli(capsys, "diagnose", *argv, "--samples", "20")
    assert code == 2
    assert out == ""
    assert err == "error: times must be finite and nonnegative\n"


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
    assert "grid empty" in err


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
            if key in ("command", "version", "schema"):
                continue
            args += ["--" + key.replace("_", "-"), value]
        assert main(args + ["--out", str(out2)]) == 0, args
        assert out1.read_bytes() == out2.read_bytes(), argv


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
    assert "initial point must be a finite nonnegative real, got '-5'" in err


@pytest.mark.parametrize("eps", ["-0.1", "0", "nan", "inf", "0.1,-0.2"])
def test_assumptions_c2_rejects_invalid_radius(capsys, eps):
    code, out, err = run_cli(capsys, "diagnose", "assumptions", "--x-grid", "0.1", "--c2", "true",
                             f"--eps={eps}", "--t-search", "2", "--samples", "20")
    assert code == 2
    assert out == ""
    assert "radius" in err


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


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
def test_csv_writer_matches_the_reference_formatter(monkeypatch, chunk_rows):
    from ergokit import cli

    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    manifest = {"command": "simulate", "seed": "3", "a": "x,y"}
    columns = ("traj_id", "k", "tau_k", "xi_k", "index_k", "phi_k")
    rows = _formatter_rows()
    streamed = "".join(cli._format_table(manifest, columns, iter(rows), "csv"))
    assert streamed == _reference_csv(manifest, columns, rows)


def test_csv_error_row_after_clean_rows_exits_one(tmp_path):
    import argparse
    from ergokit import cli

    out = tmp_path / "t.csv"
    settings = cli.Settings(argparse.Namespace(format=None, out=str(out), plot=None))
    columns = ("x", "value", "error")
    rows = [(float(k), k / 3.0, "") for k in range(5)] + [(9.0, math.nan, "cell 5 failed")]
    assert cli._write(settings, "test", "test-v1", columns, iter(rows)) == 1
    assert out.read_text().endswith('9,nan,cell 5 failed\n')
    assert cli._write(settings, "test", "test-v1", columns, iter(rows[:5])) == 0


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


def test_simulate_peak_memory_stays_near_the_output_size(tmp_path):
    import tracemalloc

    out = tmp_path / "sim.csv"
    argv = ["simulate", "--model", "halving", "--x0", "5", "--horizon", "200",
            "--trajectories", "100", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # rows are formatted and written a chunk at a time, so nothing holds the
    # whole table: about 2x the file, against ~8x when every row was kept
    assert peak < 3 * out.stat().st_size


def _digest_without_version(path):
    """sha256 of a file without its manifest's version line, which moves on
    every release."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if b"version" not in l)).hexdigest()


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


def test_lowerbound_bytes_are_pinned(tmp_path):
    # digest of the 0.6.0 table; from the second visit to a point on, every
    # jump of these trajectories runs on the halving model's memo
    argv = ["diagnose", "lowerbound", "--model", "halving", "--z", "0", "--eps", "0.1",
            "--x-grid", "2,5,10", "--t-grid", "20,50", "--samples", "200", "--seed", "5"]
    table = tmp_path / "lb.csv"
    assert main(argv + ["--out", str(table)]) == 0
    assert _digest_without_version(table) == \
        "8072a748b0e65e7c3340f85ef04fcb3b01f329807c81659ea80d5764429095a4"


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
