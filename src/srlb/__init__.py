"""srlb: workbench for rich point/hyperplane instances and simplex range reporting.

Generates integer grid instances in which every family hyperplane is
incident to exactly t points while no two points share more than A**(d-2)
hyperplanes, verifies those guarantees with brute-force oracles, and
benchmarks an instrumented kd-tree reporting structure against the
predicted space/query trade-off exponent (d-1)/d.
"""

__version__ = "0.1.0"
