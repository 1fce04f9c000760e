"""Exact arithmetic for imaginary quadratic class groups, Hecke theta
coefficients, orthogonal-polynomial kernels, and p-adic height coefficient
identities."""

__version__ = "0.1.0"

from .quadfield import (QuadFieldError, admissible_params, class_group,
                        class_number, ideals_of_norm, kronecker,
                        reduced_forms)
from .polykit import PolyError, RationalPoly, h_poly, jacobi_poly
from .padic import PadicError, PadicNumber, iwasawa_log, sigma_A
from .heckechar import CharBuildError, build_char, theta_coeffs
from .heights import (HeightContext, HeightError, bc_report, bc_residual,
                      crosscheck_report, fourier_am, local_height_sum)

__all__ = [
    "__version__",
    "QuadFieldError", "admissible_params", "class_group", "class_number",
    "ideals_of_norm", "kronecker", "reduced_forms",
    "PolyError", "RationalPoly", "h_poly", "jacobi_poly",
    "PadicError", "PadicNumber", "iwasawa_log", "sigma_A",
    "CharBuildError", "build_char", "theta_coeffs",
    "HeightContext", "HeightError", "bc_report", "bc_residual",
    "crosscheck_report", "fourier_am", "local_height_sum",
]
