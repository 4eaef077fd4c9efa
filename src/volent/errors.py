"""Exception types shared across the package, and its one numeric input
check: an integer is any numbers.Integral (numpy ints too), a real any
finite numbers.Real (an int beyond the float range is not finite), and
neither is a bool. A plain int or float takes a fast path.
"""

import math
import numbers


def _is_int(x) -> bool:
    return type(x) is int or (isinstance(x, numbers.Integral)
                              and not isinstance(x, bool))


def _is_finite(x) -> bool:
    if type(x) not in (float, int) and (isinstance(x, bool)
                                        or not isinstance(x, numbers.Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


def _require(name: str, value, ok, what: str) -> None:
    """Refuse, naming it, a value that fails ok."""
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


# (test, test in words) pairs for _require
def _int(low: int, high=math.inf) -> tuple:
    return (lambda v: _is_int(v) and low <= v <= high,
            f"an integer >= {low}" if high == math.inf
            else f"an integer in [{low}, {high}]")


def _above(low: float = 0.0) -> tuple:
    return lambda v: _is_finite(v) and v > low, f"a finite number > {low:g}"


def _at_least(low: float) -> tuple:
    return lambda v: _is_finite(v) and v >= low, f"a finite number >= {low:g}"


def _two(what: str) -> tuple:
    return (lambda v: isinstance(v, (tuple, list)) and len(v) == 2,
            f"a tuple or list of two {what}")


class VolentError(Exception):
    """Base class for all package errors."""


class NonHyperbolic(VolentError):
    """Requested polygon angles do not admit a hyperbolic realization."""


class BadThickness(VolentError):
    """A thickness parameter is out of range (every q_i must be >= 1)."""


class ResourceLimit(VolentError):
    """Chamber enumeration exceeded its configured cap."""


class FrontierTooClose(VolentError):
    """BFS depth is insufficient for the requested ball radii."""


class WindowTooNarrow(VolentError):
    """Not enough growth-table rows inside the fit window."""


class VertexHit(VolentError):
    """A geodesic passed too close to a tessellation vertex."""


class NotIrreducible(VolentError):
    """Transition model is not strongly connected."""


class PowerIterationStalled(VolentError):
    """Spectral radius iteration failed to converge."""


class BracketFailed(VolentError):
    """Root bracketing for the entropy solve failed."""


class NotStronglyConnected(VolentError):
    """Directed edge graph of a metric graph is not strongly connected."""


class Degenerate(VolentError):
    """Input sits on a degenerate stratum (flagged, sometimes raised)."""


class StageProcessLost(VolentError):
    """A stage's forked process exited without sending its results."""
