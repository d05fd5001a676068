"""Exact coefficient arithmetic: Gaussian rationals, multivariate
polynomials and truncated eps-power series."""

from .rationals import (GaussianRational, Rat, rat_sqrt, gr, grq,
                        ZERO, ONE, I)
from .poly import ParamPolynomial, P, order_vars, var_sort_key
from .series import (EpsilonSeries, substitute, series_solve_root,
                     series_sqrt)

__all__ = [
    "GaussianRational", "Rat", "rat_sqrt", "gr", "grq",
    "ZERO", "ONE", "I",
    "ParamPolynomial", "P", "order_vars", "var_sort_key",
    "EpsilonSeries", "substitute", "series_solve_root", "series_sqrt",
]
