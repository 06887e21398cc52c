"""Numerical calculus for the face-type dynamical elliptic R-matrix and a
verification suite certifying its matrix identities at floating-point
tolerance."""

from .special import (
    Params,
    SingularPointError,
    qpochhammer,
    rho_norm,
    theta,
    unitarity_scalar,
)
from .shiftcalc import (
    DynMatrix,
    promote_shifted_scalar,
    shift_scalar,
    skew_mul,
    weight_shift_matrix,
    zero_weight_check,
)
from .rmatrix import (
    RPoint,
    build_r,
    build_r_twisted,
    cross_gauge,
    gamma_twist,
    gauge_g,
    mu_scalar,
    trace_weight,
    trace_weight_direct,
    twist_of_r,
    upsilon,
    upsilon_ratio,
)

__all__ = [
    "Params",
    "SingularPointError",
    "qpochhammer",
    "theta",
    "rho_norm",
    "unitarity_scalar",
    "DynMatrix",
    "shift_scalar",
    "skew_mul",
    "weight_shift_matrix",
    "promote_shifted_scalar",
    "zero_weight_check",
    "RPoint",
    "build_r",
    "build_r_twisted",
    "gauge_g",
    "twist_of_r",
    "upsilon",
    "upsilon_ratio",
    "cross_gauge",
    "trace_weight",
    "trace_weight_direct",
    "gamma_twist",
    "mu_scalar",
]

__version__ = "0.1.0"
