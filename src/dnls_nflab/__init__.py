"""Exact Birkhoff normal-form verification lab for the derivative NLS on the torus."""

from .coeffs import ExactCoeff
from .poly import (
    Monomial,
    PolyHamiltonian,
    bracket,
    build_B_closed_form,
    build_G,
    build_Q,
    build_lambda,
    split_normal,
)
from .states import FourierState, sobolev_norm

__version__ = "0.1.0"

__all__ = [
    "ExactCoeff",
    "FourierState",
    "Monomial",
    "PolyHamiltonian",
    "bracket",
    "build_B_closed_form",
    "build_G",
    "build_Q",
    "build_lambda",
    "sobolev_norm",
    "split_normal",
    "__version__",
]
