"""Shared helpers for the test suite."""

import numpy as np

from dynell import DynMatrix, Params
from dynell.checks import _skew_resids

# Reference parameter context: q = q_half^2 = 0.47, p = 0.31.
Q_HALF = 0.6855654600401044
P_NOME = 0.31


def make_params(**kwargs):
    return Params.make(Q_HALF, P_NOME, **kwargs)


def resid(lhs, rhs):
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    return abs(lhs - rhs).max() / max(1.0, abs(lhs).max())


def skew_resid(lhs, rhs, samples):
    """The coefficient-wise skew-ring residual: the worst over all the
    samples, at every grid point (a NaN at any point is the result)."""
    return np.max(_skew_resids(lhs, rhs, samples))


def rand_fourier(rng):
    """Random trigonometric-style scalar: entire in s, shift-closed."""
    cs = rng.standard_normal(3) + 1j * rng.standard_normal(3)

    def ev(s, cs=cs):
        return cs[0] + cs[1] * np.exp(0.3j * s) + cs[2] * np.exp(-0.2 * s)

    return ev


def rand_matrix(nlegs, rng):
    return DynMatrix.from_entries(nlegs, lambda i, j: rand_fourier(rng))


def sample_s(rng, n=8):
    return [complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)) for _ in range(n)]
