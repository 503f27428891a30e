import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ergokit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergokit.__path__, "ergokit."))


@pytest.mark.parametrize("name", ["ergokit"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


# ---------------------------------------------------------------------------
# what each entry point loads

SRC = str(Path(ergokit.__file__).resolve().parents[1])


def loaded_by(code: str) -> set:
    """The modules that running ``code`` adds to ``sys.modules`` in a fresh
    interpreter that imports ergokit from this checkout."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code
             + "\nprint(' '.join(sorted(set(sys.modules) - before)))\n")
    return set(run_fresh("-c", probe).stdout.split())


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports ergokit from
    this checkout; fails the test unless it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def command_loads(*argv: str) -> set:
    """The modules that ``ergokit.cli.main(argv)`` adds, its table written
    to the null device."""
    call = f"import ergokit.cli\nassert ergokit.cli.main({list(argv) + ['--out', os.devnull]!r}) == 0"
    return loaded_by(call)


def test_import_ergokit_loads_no_submodule():
    assert {m for m in loaded_by("import ergokit") if m.startswith("ergokit.")} == set()
    # a submodule that defines public names loads on first access
    assert "ergokit.diagnostics" in loaded_by("import ergokit\nergokit.diagnostics.ec_profile")


def test_ctmc_estimate_loads_only_the_chain_and_the_sampler():
    loaded = command_loads("estimate", "--model", "ctmc", "--x0", "low:3,high:3",
                           "--times", "1,2", "--f", "xmin1", "--ball", "0,0.5",
                           "--samples", "20")
    assert {m for m in loaded if m.startswith("ergokit.")} == {
        "ergokit.cli", "ergokit.core", "ergokit.exact_ctmc", "ergokit.montecarlo"}
    assert "json" not in loaded


def test_halving_simulate_loads_neither_diagnostics_nor_the_chain():
    loaded = command_loads("simulate", "--model", "halving", "--x0", "5", "--horizon", "20",
                           "--trajectories", "3")
    assert "ergokit.ifs_jump" in loaded
    # 60 expected jump times: one % per trajectory, no block kernel
    assert not {"ergokit.diagnostics", "ergokit.exact_ctmc", "ergokit._svgplot",
                "ergokit._g17", "json"} & loaded


def test_a_large_simulate_table_loads_the_tau_kernel():
    # rate 20 * horizon 20 * 40 trajectories = 16 000 expected jump times
    argv = ("simulate", "--model", "halving", "--lambda", "20", "--x0", "5", "--horizon", "20",
            "--trajectories", "40")
    loaded = command_loads(*argv)
    assert {"ergokit.ifs_jump", "ergokit._g17"} <= loaded
    assert not {"ergokit.diagnostics", "ergokit.exact_ctmc"} & loaded
    assert "ergokit._g17" not in command_loads(*argv, "--format", "json")


def test_json_and_plot_load_their_writers():
    loaded = command_loads("estimate", "--model", "ctmc", "--x0", "low:3", "--times", "1",
                           "--f", "xmin1", "--samples", "20", "--format", "json",
                           "--plot", os.devnull)
    assert {"json", "ergokit._svgplot"} <= loaded


def test_traced_entry_points_are_cli_globals_from_import_on():
    # a tracer wraps these through the module dict, not through getattr
    names = ("sample_jump_chain", "sample_jump_chains", "run_batch", "lower_bound_scan",
             "stability_report")
    code = ("import ergokit.cli as cli\n"
            f"assert all(n in cli.__dict__ for n in {names!r}), sorted(cli.__dict__)")
    assert "ergokit.cli" in loaded_by(code)


def test_every_public_name_is_its_defining_module_object():
    assert ergokit.__all__
    for name in ergokit.__all__:
        value = getattr(ergokit, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(ergokit.__all__) <= set(dir(ergokit))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ergokit.nope


def test_importtime_lists_the_modules_loaded_on_first_use():
    # -X importtime reports imports made through __import__ only, so a lazy
    # import through importlib.import_module would hide the module's cost
    code = ("import os, ergokit, ergokit.cli\nergokit.xmin1\n"
            "ergokit.cli.main(['estimate', '--model', 'ctmc', '--x0', 'low:2', '--times', '1',"
            " '--f', 'xmin1', '--samples', '1', '--out', os.devnull])")
    stderr = run_fresh("-X", "importtime", "-c", code).stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()}
    assert {"ergokit.core", "ergokit.montecarlo", "ergokit.exact_ctmc"} <= listed
