"""Simulation and ergodicity diagnostics for Markov jump processes on the
nonnegative half-line."""

from .core import (
    Ball,
    EmpiricalMeasure,
    TestFunction,
    bl_distance,
    bump_function,
    constant,
    xmin1,
)
from .exact_ctmc import (
    CtmcProcess,
    CtmcState,
    chapman_kolmogorov_residual,
    parse_ctmc_state,
    sample_path,
    semigroup_apply,
    transition_prob,
)
from .ifs_jump import (
    AssumptionSet,
    ExponentialFlow,
    IdentityFlow,
    IfsModel,
    Trajectory,
    example_flip,
    example_halving,
    halving_tv_modulus,
    j_n,
    linear_modulus,
    sample_jump_chain,
)
from .montecarlo import (
    Estimate,
    McSettings,
    StreamFactory,
    estimate_ptf,
    hoeffding_half_width,
    run_batch,
    sample_terminals,
)
from .diagnostics import (
    DiagnosticReport,
    ReportRow,
    check_b2,
    check_b3,
    check_b5,
    check_c2,
    ec_profile,
    eproperty_witness,
    lower_bound_scan,
    stability_report,
)

__version__ = "0.9.0"
