"""Exact rational identities behind the resonant-coefficient cancellation.

Everything here runs in arbitrary-precision rationals; there is no floating
point in this module.  The central objects are two kernels on triples,

    mu(x, y, z)  = 1 / ((x - y)(z - y))
    tau(x, y, z) = (x - y + z) / ((x - y)(z - y))

and the nine-term sums I (over mu) and II (over tau) attached to a pair of
triples with disjoint values, equal sums and equal square sums.  Both sums
vanish identically; II = 0 is what kills the resonant sextic coefficients.
"""

from __future__ import annotations

import itertools
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
        out = []
        if set(self.x) & set(self.y):
            out.append("triples share a value")
        if sum(self.x) != sum(self.y):
            out.append("sums differ")
        if sum(v * v for v in self.x) != sum(v * v for v in self.y):
            out.append("square sums differ")
        return out

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


def nine_term_sums(pair: TriplePair) -> tuple[Fraction, Fraction]:
    """(I, II): the mu and tau sums over {alpha<gamma} x beta."""
    x, y = pair.x, pair.y
    I = Fraction(0)
    II = Fraction(0)
    for a, g in itertools.combinations(range(3), 2):
        for b in range(3):
            I += mu(x[a], y[b], x[g])
            II += tau(x[a], y[b], x[g])
    return I, II


def verify_vanishing_sums(pair: TriplePair) -> tuple[Fraction, Fraction]:
    """Exact evaluation of I and II; raises if either fails to vanish."""
    pair.require_hypotheses()
    I, II = nine_term_sums(pair)
    if I != 0 or II != 0:
        raise ArithmeticError(f"nonzero sums: I={I}, II={II} for {pair}")
    return I, II


def intermediate_identities(pair: TriplePair) -> dict[str, bool]:
    """The symmetric-function identities used in the cancellation proof.

    Requires both triples centered (sum zero).  Returns name -> holds; all
    comparisons are exact.
    """
    if sum(pair.x) != 0 or sum(pair.y) != 0:
        raise ValueError("identities require centered triples (sum zero)")
    x, y = pair.x, pair.y
    N = sum(v * v for v in x)
    if sum(v * v for v in y) != N:
        raise ValueError("square sums differ")
    X = x[0] * x[1] * x[2]
    Y = y[0] * y[1] * y[2]

    def e2(t):
        return t[0] * t[1] + t[1] * t[2] + t[2] * t[0]

    def pair_squares(t):
        return (t[0] * t[1]) ** 2 + (t[1] * t[2]) ** 2 + (t[2] * t[0]) ** 2

    def power(t, k):
        return sum(v**k for v in t)

    def pair_cubes(t):
        return (t[0] * t[1]) ** 3 + (t[1] * t[2]) ** 3 + (t[2] * t[0]) ** 3

    checks = {
        "pair_products": e2(x) == -N / 2 and e2(y) == -N / 2,
        "pair_squares": pair_squares(x) == N * N / 4 and pair_squares(y) == N * N / 4,
        "fourth_powers": power(x, 4) == N * N / 2 and power(y, 4) == N * N / 2,
        "third_powers": power(x, 3) == 3 * X and power(y, 3) == 3 * Y,
        "pair_cubes": pair_cubes(x) == 3 * X * X - N**3 / 8
        and pair_cubes(y) == 3 * Y * Y - N**3 / 8,
    }
    return checks


def denominator_identity(pair: TriplePair) -> bool:
    """prod_a (x_a - y_b) == X + (N/2) y_b - y_b^3 for every b (centered)."""
    if sum(pair.x) != 0:
        raise ValueError("requires centered triples")
    x, y = pair.x, pair.y
    N = sum(v * v for v in x)
    X = x[0] * x[1] * x[2]
    for b in range(3):
        lhs = (x[0] - y[b]) * (x[1] - y[b]) * (x[2] - y[b])
        if lhs != X + (N / 2) * y[b] - y[b] ** 3:
            return False
    return True


def row_sum_closed_forms(pair: TriplePair) -> bool:
    """Per-beta row sums match their closed forms (centered triples)."""
    if sum(pair.x) != 0:
        raise ValueError("requires centered triples")
    x, y = pair.x, pair.y
    N = sum(v * v for v in x)
    X = x[0] * x[1] * x[2]
    for b in range(3):
        den = X + (N / 2) * y[b] - y[b] ** 3
        if den == 0:
            raise ZeroDivisionError("degenerate denominator; disjointness violated")
        mu_row = sum(
            mu(x[a], y[b], x[g]) for a, g in itertools.combinations(range(3), 2)
        )
        tau_row = sum(
            tau(x[a], y[b], x[g]) for a, g in itertools.combinations(range(3), 2)
        )
        if mu_row != Fraction(-3) * y[b] / den:
            return False
        if tau_row != (3 * y[b] ** 2 - N) / den:
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


def enumerate_triple_pairs(
    bound: int,
    nonzero_entries: bool = False,
    positive_only: bool = False,
) -> list[TriplePair]:
    """All integer pairs with entries in [-bound, bound] satisfying the
    hypotheses, up to permutations, triple swap and global negation.

    Buckets triples by (sum, square sum), so the search is far below the
    naive sixth power of the range.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    if positive_only:
        values = range(1, bound + 1)
    elif nonzero_entries:
        values = [v for v in range(-bound, bound + 1) if v != 0]
    else:
        values = range(-bound, bound + 1)
    values = list(values)

    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for triple in itertools.combinations_with_replacement(values, 3):
        key = (sum(triple), sum(v * v for v in triple))
        buckets.setdefault(key, []).append(triple)

    seen = set()
    out: list[TriplePair] = []
    for group in buckets.values():
        if len(group) < 2:
            continue
        for x, y in itertools.permutations(group, 2):
            if set(x) & set(y):
                continue
            canon = _canonical_pair(x, y)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(TriplePair.of(*canon))
    out.sort(key=lambda p: (p.x, p.y))
    return out


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
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    produced = 0
    while produced < count:
        a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7)))
        x1, x2 = a, b
        x3 = -x1 - x2
        x = (x1, x2, x3)
        if len(set(x)) < 2:
            continue
        t = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
        den = 1 + t + t * t  # positive definite, never zero
        w = -(2 * x1 + x2 + t * (x1 + 2 * x2)) / den
        if w == 0:
            continue
        y1 = x1 + w
        y2 = x2 + t * w
        y3 = -y1 - y2
        y = (y1, y2, y3)
        if set(x) & set(y):
            continue
        shift = Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5)))
        pair = TriplePair.of(x, y).translated(shift)
        if pair.hypothesis_violations():
            continue
        produced += 1
        yield pair
