"""Exact coefficient arithmetic: Gaussian rationals, multivariate
polynomials and truncated eps-power series."""

from .rationals import GaussianRational, Rat, gr, grq, ZERO, ONE, I
from .poly import ParamPolynomial, P, order_vars, var_sort_key
from .series import (EpsilonSeries, Composition, substitute,
                     series_solve_root)

__all__ = [
    "GaussianRational", "Rat", "gr", "grq", "ZERO", "ONE", "I",
    "ParamPolynomial", "P", "order_vars", "var_sort_key",
    "EpsilonSeries", "Composition", "substitute", "series_solve_root",
]
