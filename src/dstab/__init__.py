"""Robust and probabilistic D-stability analysis of uncertain polynomial
matrices via truncated moment relaxations, with independent brute-force
verification oracles."""

import os
import sys
import warnings

# One BLAS thread unless the user sets a count; this acts only when dstab is
# imported before numpy, as the `dstab` command is, so importing it after
# numpy with no count set warns.  The thread count changes the rounding of
# the dense products, and with it iteration counts and even statuses:
# `analyze lti_stability` went from SlowProgress with one thread to Optimal
# with two.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    warnings.warn("dstab was imported after numpy with no BLAS thread count set, so its "
                  "one-thread default does not apply; set OPENBLAS_NUM_THREADS=1 (or "
                  "import dstab first) for its reproducible results", RuntimeWarning,
                  stacklevel=2)
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .poly import Polynomial, parse_polynomial
from .sets import (
    Relation,
    SemialgebraicSet,
    StabilityRegionComplement,
    box_set,
    custom_region,
    region_preset,
)
from .problem import (
    DStabilityProblem,
    LiftedProblem,
    MomentConstraint,
    UncertainMatrix,
    build_lifted,
    minimal_order,
    spectral_bound,
)
from .relax import SDPProblem, SDPSolution, SolverStatus, assemble_relaxation
from .sdp import SolverSettings, solve

__all__ = [
    "Polynomial",
    "parse_polynomial",
    "Relation",
    "SemialgebraicSet",
    "StabilityRegionComplement",
    "box_set",
    "custom_region",
    "region_preset",
    "DStabilityProblem",
    "LiftedProblem",
    "MomentConstraint",
    "UncertainMatrix",
    "build_lifted",
    "minimal_order",
    "spectral_bound",
    "SDPProblem",
    "SDPSolution",
    "SolverStatus",
    "assemble_relaxation",
    "SolverSettings",
    "solve",
]

__version__ = "0.1.0"
