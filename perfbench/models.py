"""The custom model of the expflow-stability workload.

Maps (x/2, (x+1)/2) chosen with probabilities (1/2, 1/2) at rate lambda,
with the expanding flow x -> x exp(0.1 t) between jumps. Every trajectory
lands on its own point, so its sampled laws have as many atoms as samples.
It lives in an importable module so that a process pool can pickle the
maps by reference.
"""

from ergokit.ifs_jump import ExponentialFlow, IfsModel

NAME = "expflow"


def _halve(x: float) -> float:
    return x / 2.0


def _halve_shift(x: float) -> float:
    return (x + 1.0) / 2.0


def _fair(x: float):
    return (0.5, 0.5)


def build_expflow(lam: float):
    """Builder in the shape ``ergokit.cli.register_model`` expects."""
    model = IfsModel(name=NAME, maps=(_halve, _halve_shift), prob_field=_fair,
                     rate=float(lam), flow=ExponentialFlow(0.1))
    return model, None
