"""Volume entropy of hyperbolic building quotients and metric graphs.

The package estimates the exponential growth rate of ball volumes for
compact quotients of regular hyperbolic buildings over a Coxeter
polygon (two independent estimators: a cross-section pressure solver
and weighted chamber ball growth), evaluates the Santalo-type integral
that lower-bounds the entropy, solves the metric graph analogue, and
tabulates a family of closed-geodesic lengths whose non-affineness in k
separates the Liouville and maximal-entropy measures.
"""

__version__ = "0.3.3"

from .errors import VolentError  # noqa: F401
from .hypgeom import CoxeterPolygon, HPoint, regular_polygon  # noqa: F401
from .symbolic import EntropyEstimate  # noqa: F401
