"""Finite matrix models of noncommutative tori with semigroup Lipschitz norms."""

import os

# Report bytes depend on the BLAS thread count: one thread unless the caller
# set one.  It takes effect only where numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .lattice import (
    LengthFunction,
    MultiplierSpec,
    check_conditionally_negative,
    build_smoothing_multiplier,
    product_multiplier,
)
from .ncpoly import (
    TwistMatrix,
    NCPoly,
    normal_order_phase,
    multiply,
    adjoint,
    project,
    mean_zero,
    l2_norm,
    apply_multiplier,
    gradient_form,
)
from .matrixmodel import (
    MatrixModel,
    ModelElement,
    clock_shift,
    fuzzy_generators,
    higher_dim_generators,
    admissible_sizes,
    embed,
    fourier_coefficients,
    op_norm,
    schatten_norm,
)
from .lipnorm import (
    LipReport,
    lip_seminorm,
    riesz_check,
    lip_ball_sample,
)

__version__ = "0.1.0"
