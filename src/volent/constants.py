"""Numerical tolerances, collected in one place.

The hierarchy: construction-time checks are loosest (1e-9), geometric
predicates used downstream are tighter (1e-10), and ray-tracing step
guards sit at machine-noise scale.
"""

# Construction-time checks (polygon invariants: angles, edge lengths, area).
EPS_CONSTRUCT = 1e-9

# Geometric predicates (the vertical-geodesic test of geodesic_through).
EPS_GEOM = 1e-10

# Rejection radius around tessellation vertices during tracing.
EPS_VERTEX = 1e-9

# Minimal admissible advance of a traced ray, to skip the wall just crossed.
EPS_STEP = 1e-12

# Relative width of the Collatz-Wielandt bracket that ends a pressure
# spectral radius evaluation.
EPS_POWER = 1e-10

# Default bisection tolerance for entropy solves.
DEFAULT_H_TOL = 1e-4

# Default cap on enumerated chambers. The outputs take 56 bytes per
# chamber and enumeration peaks at about 73 bytes per chamber
# (tracemalloc, right-angled pentagon with q = 2 cut at radius 11 and
# 12.7), so the cap holds the peak near 0.37 GB.
CHAMBER_CAP = 5_000_000
