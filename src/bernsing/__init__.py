"""Bernstein-type approximation of functions with an interior
singularity: stable basis evaluation, the bridged operator that never
samples the singular zone, weighted smoothness moduli, and a
verification harness with a CLI."""

import os

# One OpenBLAS thread unless the user chose otherwise.  The BLAS calls
# are small (a gemv per quadrature ratio, a gemm with K = 32 per tile of
# the operator sum, dot products of rows),
# so a second BLAS thread only spins between them, and the last bits of
# a gemv depend on the thread count.  No code of the package starts a
# thread.  This must run before numpy is imported; where numpy was
# imported first it has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .basis import basis_row, bernstein_apply, bernstein_apply_many
from .blending import Knots, TestFunction, bridge_p, fbar, fbar_d2, knots, psi, psi_d
from .exceptions import (
    Degenerate,
    InvalidDegree,
    MissingDerivative,
    MissingExponent,
)
from .moduli import (
    ModulusConfig,
    quadrature_bound_ratio,
    modulus_curve,
)
from .operator import OperatorInstance, bbar_apply, bbar_second, build_operator
from .weights import (
    EvalGrid,
    StepWeight,
    WeightParams,
    delta_n,
    refined_grid,
    step_weight,
    varphi,
    wbar,
    weighted_sup_norm,
)

__version__ = "0.1.0"
