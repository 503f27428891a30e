import csv
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
    out1 = tmp_path / "first.csv"
    assert main(["simulate", "--model", "flip", "--lambda", "1.5", "--x0", "0.8",
                 "--horizon", "12", "--trajectories", "6", "--seed", "31",
                 "--out", str(out1)]) == 0
    manifest, _, _ = parse_csv(out1.read_text())
    args = [manifest["command"]]
    for key, value in manifest.items():
        if key in ("command", "version", "schema", "format"):
            continue
        args += ["--" + key.replace("_", "-"), value]
    out2 = tmp_path / "second.csv"
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
