"""Reference helpers that more than one test module uses; the library has
no caller for them."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.identities import TriplePair, _images
from dnls_nflab.poly import Monomial, PolyHamiltonian


def mul_imag_int(c: ExactCoeff, n: int) -> ExactCoeff:
    """c times i*n for integer n, the weight factor of the reference bracket."""
    return ExactCoeff(-c.im * n, c.re * n, c.pi_power)


def ordered_coefficient(poly: PolyHamiltonian, entries: tuple[int, ...]) -> ExactCoeff:
    """Per-ordered-tuple coefficient: canonical value over arrangement count.

    Well defined for the constructions here, whose ordered coefficients are
    arrangement-invariant (they depend on index multisets only).
    """
    mono = Monomial.of(entries[0::2], entries[1::2])
    return poly.coefficient(mono).scaled(Fraction(1, mono.arrangements()))


def pair_matches(pair: TriplePair, x: Iterable, y: Iterable) -> bool:
    """True if pair equals ({x},{y}) modulo the enumeration symmetries."""
    xt = tuple(sorted(Fraction(v) for v in x))
    yt = tuple(sorted(Fraction(v) for v in y))
    return (tuple(sorted(pair.x)), tuple(sorted(pair.y))) in _images(xt, yt)
