"""Simulation and ergodicity diagnostics for Markov jump processes on the
nonnegative half-line.

``import ergokit`` loads none of the submodules. Each public name, and each
submodule that defines one, is imported on first access (PEP 562), so a
program pays only for the modules it uses: ``ergokit.xmin1`` loads
``core``, ``ergokit.stability_report`` loads ``diagnostics`` and what it
imports.
"""

import sys

__version__ = "0.11.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": ("Ball", "EmpiricalMeasure", "TestFunction", "bl_distance", "bump_function",
             "constant", "xmin1"),
    "exact_ctmc": ("CtmcProcess", "CtmcState", "chapman_kolmogorov_residual",
                   "parse_ctmc_state", "sample_path", "semigroup_apply", "transition_prob"),
    "ifs_jump": ("AssumptionSet", "ExponentialFlow", "IdentityFlow", "IfsModel",
                 "example_flip", "example_halving", "halving_tv_modulus", "j_n",
                 "linear_modulus", "sample_jump_chains"),
    "montecarlo": ("Estimate", "McSettings", "StreamFactory", "estimate_ptf",
                   "hoeffding_half_width", "run_batch", "sample_terminals"),
    "diagnostics": ("DiagnosticReport", "ReportRow", "check_b2", "check_b3", "check_b5",
                    "check_c2", "ec_profile", "eproperty_witness", "lower_bound_scan",
                    "stability_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _submodule(name: str):
    """``ergokit.<name>``, imported on first use through ``__import__``,
    the path an import statement takes, so that ``python -X importtime``
    lists it; it does not list a module ``importlib.import_module`` loads."""
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
