"""Exact rational identities behind the resonant-coefficient cancellation.

Everything here is exact; there is no floating point in this module.  The
central objects are two kernels on triples,

    mu(x, y, z)  = 1 / ((x - y)(z - y))
    tau(x, y, z) = (x - y + z) / ((x - y)(z - y))

and the nine-term sums I (over mu) and II (over tau) attached to a pair of
triples with disjoint values, equal sums and equal square sums.  Both sums
vanish identically; II = 0 is what kills the resonant sextic coefficients.

The checks on a pair run on integers: the pair is scaled by D, the lcm of
its six denominators, to int triples X = D x and Y = D y.  Every quantity
checked is homogeneous, so this is exact: I has degree -2 and II degree -1
(I(x) = D^2 I(X), II(x) = D II(X)), and each polynomial identity is an
integer equation with its denominators cleared.  The nine-term sums are
added over one common denominator and become Fractions only on return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mu(x, y, z) -> Fraction:
    """1/((x-y)(z-y)) on integers or rationals; poles x=y and z=y are rejected."""
    if x == y or z == y:
        raise ZeroDivisionError("mu undefined at x=y or z=y")
    return Fraction(1, (x - y) * (z - y))


def tau(x, y, z) -> Fraction:
    """(x-y+z)/((x-y)(z-y)) on integers or rationals; poles x=y and z=y are
    rejected.

    On integers equal to -2(x-y+z)/(x^2-y^2+z^2-(x-y+z)^2) wherever both
    forms are defined, which the tests confirm.
    """
    if x == y or z == y:
        raise ZeroDivisionError("tau undefined at x=y or z=y")
    return Fraction(x - y + z, (x - y) * (z - y))


@dataclass(frozen=True)
class TriplePair:
    """Two triples (x, y) with disjoint values, equal sums, equal square sums."""

    x: tuple[Fraction, Fraction, Fraction]
    y: tuple[Fraction, Fraction, Fraction]

    @classmethod
    def of(cls, x: Iterable, y: Iterable) -> "TriplePair":
        xt = tuple(_frac(v) for v in x)
        yt = tuple(_frac(v) for v in y)
        if len(xt) != 3 or len(yt) != 3:
            raise ValueError("triples must have length 3")
        return cls(xt, yt)

    def hypothesis_violations(self) -> list[str]:
        _, X, Y = _scaled(self)
        return _violations(X, Y)

    def require_hypotheses(self) -> None:
        bad = self.hypothesis_violations()
        if bad:
            raise ValueError("hypotheses violated: " + "; ".join(bad))

    def translated(self, t) -> "TriplePair":
        t = _frac(t)
        return TriplePair(
            tuple(v + t for v in self.x), tuple(v + t for v in self.y)
        )

    def centered(self) -> "TriplePair":
        shift = sum(self.x) / 3
        return self.translated(-shift)


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _square_sum(t) -> int:
    return t[0] * t[0] + t[1] * t[1] + t[2] * t[2]


def _violations(X, Y) -> list[str]:
    """The pair hypotheses that int triples X and Y, numerators over one
    common denominator, violate."""
    out = []
    if set(X) & set(Y):
        out.append("triples share a value")
    if sum(X) != sum(Y):
        out.append("sums differ")
    if _square_sum(X) != _square_sum(Y):
        out.append("square sums differ")
    return out


def _scaled(pair: TriplePair) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, X, Y): D the lcm of the pair's six denominators, X = D*x and
    Y = D*y as int triples."""
    D = math.lcm(*(v.denominator for v in pair.x + pair.y))
    X = tuple(v.numerator * (D // v.denominator) for v in pair.x)
    Y = tuple(v.numerator * (D // v.denominator) for v in pair.y)
    return D, X, Y


def nine_term_sums(pair: TriplePair) -> tuple[Fraction, Fraction]:
    """(I, II): the mu and tau sums over {alpha<gamma} x beta.

    Summed on the scaled integers over the lcm of the nine kernel
    denominators; I(x) = D^2 I(X) and II(x) = D II(X).
    """
    D, X, Y = _scaled(pair)
    dens, nums = [], []
    for a, g in _PAIRS:
        for yb in Y:
            den = (X[a] - yb) * (X[g] - yb)
            if not den:
                raise ZeroDivisionError("mu undefined at x=y or z=y")
            dens.append(den)
            nums.append(X[a] - yb + X[g])
    L = math.lcm(*dens)
    I = II = 0
    for den, num in zip(dens, nums):
        q = L // den
        I += q
        II += num * q
    return Fraction(D * D * I, L), Fraction(D * II, L)


def verify_vanishing_sums(pair: TriplePair) -> tuple[Fraction, Fraction]:
    """Exact evaluation of I and II; raises if either fails to vanish."""
    pair.require_hypotheses()
    I, II = nine_term_sums(pair)
    if I != 0 or II != 0:
        raise ArithmeticError(f"nonzero sums: I={I}, II={II} for {pair}")
    return I, II


def _symmetric_sums(t) -> tuple[int, ...]:
    """Of an int triple: the sum of pair products, of their squares, of
    fourth powers, of cubes, of cubed pair products, and the product."""
    p01, p12, p20 = t[0] * t[1], t[1] * t[2], t[2] * t[0]
    s0, s1, s2 = t[0] * t[0], t[1] * t[1], t[2] * t[2]
    return (
        p01 + p12 + p20,
        p01 * p01 + p12 * p12 + p20 * p20,
        s0 * s0 + s1 * s1 + s2 * s2,
        s0 * t[0] + s1 * t[1] + s2 * t[2],
        p01**3 + p12**3 + p20**3,
        p01 * t[2],
    )


def intermediate_identities(pair: TriplePair) -> dict[str, bool]:
    """The symmetric-function identities used in the cancellation proof.

    Requires both triples centered (sum zero).  Returns name -> holds; each
    identity is homogeneous, so it is checked on the scaled integers with
    its denominators cleared.

    Each identity follows from x_1 + x_2 + x_3 = 0 alone (Newton's identities
    with e1 = 0, N being the triple's own square sum), so a False here means
    a fault in the integer scaling or the denominator clearing, not a pair
    that violates its hypotheses.
    """
    _, X, Y = _scaled(pair)
    if sum(X) != 0 or sum(Y) != 0:
        raise ValueError("identities require centered triples (sum zero)")
    N = _square_sum(X)
    if _square_sum(Y) != N:
        raise ValueError("square sums differ")
    e2x, psx, p4x, p3x, pcx, PX = _symmetric_sums(X)
    e2y, psy, p4y, p3y, pcy, PY = _symmetric_sums(Y)
    NN = N * N
    return {
        "pair_products": 2 * e2x == -N and 2 * e2y == -N,
        "pair_squares": 4 * psx == NN and 4 * psy == NN,
        "fourth_powers": 2 * p4x == NN and 2 * p4y == NN,
        "third_powers": p3x == 3 * PX and p3y == 3 * PY,
        "pair_cubes": 8 * pcx == 24 * PX * PX - NN * N and 8 * pcy == 24 * PY * PY - NN * N,
    }


def denominator_identity(pair: TriplePair) -> bool:
    """prod_a (x_a - y_b) == X + (N/2) y_b - y_b^3 for every b (centered x),
    checked as 2 prod_a (X_a - Y_b) == 2X + N Y_b - 2 Y_b^3 on the scaled
    integers.

    prod_a (x_a - t) = -t^3 + (N/2) t + X is a polynomial identity in t once
    x_1 + x_2 + x_3 = 0, so this holds for any y: a False means a fault in
    the integer scaling or the denominator clearing, not in the pair.
    """
    _, X, Y = _scaled(pair)
    if sum(X) != 0:
        raise ValueError("requires centered triples")
    N, PX = _square_sum(X), X[0] * X[1] * X[2]
    for yb in Y:
        lhs = (X[0] - yb) * (X[1] - yb) * (X[2] - yb)
        if 2 * lhs != 2 * PX + N * yb - 2 * yb**3:
            return False
    return True


def row_sum_closed_forms(pair: TriplePair) -> bool:
    """Per-beta row sums match their closed forms (centered x):

        sum_{a<g} mu(x_a, y_b, x_g)  = -3 y_b / den
        sum_{a<g} tau(x_a, y_b, x_g) = (3 y_b^2 - N) / den

    with den = X + (N/2) y_b - y_b^3.  Checked on the scaled integers, each
    row over its common denominator prod_a (X_a - Y_b), by cross-multiplying;
    den = prod_a (x_a - y_b) for centered x, so den != 0 excludes the poles.

    Both closed forms follow from x_1 + x_2 + x_3 = 0 alone (the mu row sum
    is sum_k (x_k - y_b) / den), so a False means a fault in the integer
    scaling or the denominator clearing, not a pair that violates its
    hypotheses.
    """
    _, X, Y = _scaled(pair)
    if sum(X) != 0:
        raise ValueError("requires centered triples")
    N, PX = _square_sum(X), X[0] * X[1] * X[2]
    for yb in Y:
        den2 = 2 * PX + N * yb - 2 * yb**3
        if den2 == 0:
            raise ZeroDivisionError("degenerate denominator; disjointness violated")
        u = [v - yb for v in X]
        prod = u[0] * u[1] * u[2]
        # 1/(u_a u_g) = u_k/prod, k the index other than a and g
        mu_num = u[0] + u[1] + u[2]
        tau_num = (X[0] + X[1] - yb) * u[2] + (X[1] + X[2] - yb) * u[0] + (X[0] + X[2] - yb) * u[1]
        if mu_num * den2 != -6 * yb * prod:
            return False
        if tau_num * den2 != 2 * (3 * yb * yb - N) * prod:
            return False
    return True


# -- enumeration of integer pairs ------------------------------------------------


def _images(x: tuple, y: tuple) -> list[tuple[tuple, tuple]]:
    """The images (x, y), (y, x), (-x, -y), (-y, -x) of a pair of sorted
    triples under triple swap and global negation, each triple sorted."""
    negx = tuple(sorted(-v for v in x))
    negy = tuple(sorted(-v for v in y))
    return [(x, y), (y, x), (negx, negy), (negy, negx)]


def _canonical_pair(x: tuple[int, ...], y: tuple[int, ...]):
    """Representative up to triple swap and global negation: the smallest
    image whose common sum is nonnegative, triples sorted ascending."""
    return min(im for im in _images(x, y) if sum(im[0]) >= 0)


def enumerate_triple_pairs(bound: int) -> list[TriplePair]:
    """All integer pairs with entries in [-bound, bound] satisfying the
    hypotheses, up to permutations, triple swap and global negation.

    Buckets triples by (sum, square sum), so the search is far below the
    naive sixth power of the range.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    values = list(range(-bound, bound + 1))

    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for triple in itertools.combinations_with_replacement(values, 3):
        key = (sum(triple), sum(v * v for v in triple))
        buckets.setdefault(key, []).append(triple)

    canonical = set()
    for group in buckets.values():
        if len(group) < 2:
            continue
        for x, y in itertools.permutations(group, 2):
            if not set(x) & set(y):
                canonical.add(_canonical_pair(x, y))
    # sorted as int tuples, the order of the pairs' (x, y)
    return [TriplePair.of(x, y) for x, y in sorted(canonical)]


def pair_matches(pair: TriplePair, x: Iterable, y: Iterable) -> bool:
    """True if pair equals ({x},{y}) modulo the enumeration symmetries."""
    xt = tuple(sorted(_frac(v) for v in x))
    yt = tuple(sorted(_frac(v) for v in y))
    return (tuple(sorted(pair.x)), tuple(sorted(pair.y))) in _images(xt, yt)


# -- random rational families -----------------------------------------------------


def random_rational_pairs(count: int, seed: int) -> Iterator[TriplePair]:
    """Random rational pairs satisfying the hypotheses exactly.

    Construction: draw a centered rational triple x, then intersect a random
    rational chord through the point (x1, x2) with the conic
    u^2 + u v + v^2 = N/2 (the centered equal-sum, equal-square-sum locus);
    the second intersection is rational.  A random common translation
    exercises the non-centered code paths.

    With x1 = a/b, x2 = c/e and slope t = p/q, every value is an integer
    numerator over the one denominator b e q (q^2 + p q + p^2) d, d being
    the translation's denominator, so the construction and the hypothesis
    check run on ints; each pair's six Fractions are built at the end.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    draw = rng.integers
    produced = 0
    while produced < count:
        a, b = int(draw(-30, 31)), int(draw(1, 7))
        c, e = int(draw(-30, 31)), int(draw(1, 7))
        if a == 0 and c == 0:  # x = (0, 0, 0)
            continue
        p, q = int(draw(-20, 21)), int(draw(1, 9))
        # t (x1 + 2 x2) + 2 x1 + x2, times b e q
        chord = p * (a * e + 2 * c * b) + q * (2 * a * e + c * b)
        if chord == 0:  # w = 0
            continue
        # over b e q Q, with Q = q^2 + p q + p^2 (never zero): x, and
        # w = -q chord / (b e Q), t w = -p chord / (b e Q)
        scale = q * (q * q + p * q + p * p)
        x1, x2 = a * e * scale, c * b * scale
        y1, y2 = x1 - q * q * chord, x2 - p * q * chord
        x = (x1, x2, -x1 - x2)
        y = (y1, y2, -y1 - y2)
        if set(x) & set(y):
            continue
        num, den = int(draw(-12, 13)), int(draw(1, 5))
        D = b * e * scale
        x = tuple(v * den + num * D for v in x)
        y = tuple(v * den + num * D for v in y)
        if _violations(x, y):
            continue
        produced += 1
        D *= den
        yield TriplePair(tuple(Fraction(v, D) for v in x), tuple(Fraction(v, D) for v in y))
