"""Order-6 normal-form step: the sextic action part K, the resonant
cancellation, the sextic generator, and the sextuple small-divisor bound.

The sextic remainder splits as R6 = K + (resonant non-normal part) + Qtilde.
The resonant part must cancel identically; this module verifies that both
ways: every resonant monomial's coefficient in R6 is exactly zero, and the
independent nine-term kernel sum from the identities module vanishes for the
same index data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coeffs import ExactCoeff
from .identities import TriplePair, _images, enumerate_triple_pairs, nine_term_sums, tau
from .order4 import in_delta, iter_delta
from .poly import Monomial, PolyHamiltonian, homological_solve, split_normal
from .states import (
    alternating_sum,
    bound_audit,
    fortran_rows,
    int64_radius,
    leading_stars,
    mode_range,
    random_zero_momentum_rows,
    rejection_sample,
    zero_momentum_rows,
)


def build_K(M: int) -> PolyHamiltonian:
    """Closed-form sextic action part:

        -(1/8pi^2) sum_{j != k} (2j-k)/(j-k)^2 |q_j|^4 |q_k|^2
    """
    if M < 2:
        raise ValueError("need M >= 2")
    items = []
    for j in mode_range(M):
        for k in mode_range(M):
            if k == j or 2 * j - k == 0:
                continue
            mono = Monomial.of((j, j, k), (j, j, k))
            coeff = ExactCoeff.real(
                Fraction(-(2 * j - k), 8 * (j - k) ** 2), pi_power=2
            )
            items.append((mono, coeff))
    return PolyHamiltonian.from_terms(M, items)


# -- resonant set ----------------------------------------------------------------


def _resonant_classes(M: int):
    """Each resonant class once, as the sorted distinct images (x, y), (y, x),
    (-x, -y), (-y, -x) of one pair of sorted nonzero triples with |entries| <= M."""
    for pair in enumerate_triple_pairs(M):
        if 0 in pair.x or 0 in pair.y:
            continue
        x = tuple(int(v) for v in pair.x)
        y = tuple(int(v) for v in pair.y)
        yield sorted(set(_images(x, y)))


def iter_resonant_monomials(M: int):
    """Every degree-6 monomial on the resonant non-normal index set with
    |modes| <= M: zero momentum, zero square sum, disjoint plus/minus values.

    Conjugate and negated monomials are distinct monomials and are all
    yielded, each once.
    """
    for images in _resonant_classes(M):
        for x, y in images:
            yield Monomial.of(x, y)


def enumerate_resonant(M: int) -> list[tuple[int, int, int, int, int, int]]:
    """Canonical resonant sextuples (j1..j6, alternating slots), deduplicated
    up to permutations within slot parities, conjugation and global negation.

    The representative of a class is its smallest image.  The index set
    admits repeated entries within a parity class and mixed signs, so
    members exist from max index 2 on (plus {1,1,-2} against minus
    {-1,-1,2}); the smallest all-positive member is {1,4,4} against {2,2,5}
    at index 5, and the all-distinct positive ones start at 7.
    """
    out = []
    for images in _resonant_classes(M):
        px, py = images[0]
        out.append((px[0], py[0], px[1], py[1], px[2], py[2]))
    out.sort()
    return out


@dataclass
class KtildeReport:
    truncation: int
    checked: int
    coefficient_violations: list = field(default_factory=list)
    structural_violations: list = field(default_factory=list)
    tau_sum_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.coefficient_violations
            or self.structural_violations
            or self.tau_sum_failures
        )


def verify_Ktilde_zero(M: int, r6: PolyHamiltonian) -> KtildeReport:
    """The resonant non-normal part of R6 vanishes identically.

    Three independent checks: (a) each resonant monomial's coefficient in R6
    is exactly zero; (b) no stored non-normal term of R6 has zero square
    divisor (the structural converse of (a)); (c) the nine-term kernel sum
    vanishes for each resonant pair, via exact rational arithmetic.
    """
    report = KtildeReport(truncation=M, checked=0)
    for mono in iter_resonant_monomials(M):
        report.checked += 1
        c = r6.coefficient(mono)
        if not c.is_zero:
            report.coefficient_violations.append((mono, c))
        pair = TriplePair.of(mono.plus, mono.minus)
        _, II = nine_term_sums(pair)
        if II != 0:
            report.tau_sum_failures.append((mono, II))
    for mono, coeff in r6._coeffs.items():
        if not mono.is_normal() and mono.square_divisor() == 0:
            report.structural_violations.append((mono, coeff))
    return report


# -- the sextic generator -----------------------------------------------------------


def split_r6(r6: PolyHamiltonian) -> tuple[PolyHamiltonian, PolyHamiltonian]:
    """split_normal(r6): (action part, non-normal part) of R6.

    The pair is kept in r6's cache (a polynomial's terms never change after
    construction), so the split is computed once per R6 however many of
    build_F6, qtilde0_crosscheck and the callers ask for it.  A resonant
    survivor, a non-normal term of zero square divisor, stays in the
    non-normal part: verify_Ktilde_zero reports it, and build_F6 refuses it.
    """
    split = r6._cache.get("split_r6")
    if split is None:
        split = r6._cache["split_r6"] = split_normal(r6)
    return split


def build_F6(M: int, r6: PolyHamiltonian) -> PolyHamiltonian:
    """Sextic generator: i/(square divisor) times the non-resonant part.

    The homological solve of the non-normal part of R6 (split_r6, computed
    once per R6), so F6 solves {Lambda, F6} = -Qtilde term by term, the
    solve that gives F4 from Q.  Raises ValueError for an R6 of truncation
    above M, and ZeroDivisionError, an ArithmeticError naming the monomial,
    for a resonant survivor in R6's non-normal part.
    """
    if r6.truncation > M:
        raise ValueError(f"R6 of truncation {r6.truncation} exceeds M = {M}")
    _, qtilde = split_r6(r6)
    return homological_solve(qtilde, M)


# -- sextuple small-divisor bound ------------------------------------------------------


def in_delta_tilde(t) -> bool:
    return (
        len(t) == 6
        and all(v != 0 for v in t)
        and alternating_sum(t) == 0
        and alternating_sum(t, 2) != 0
    )


def sextuple_kernel(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(divisor, stars, excluded, holds) per row (j1, ..., j6) of a
    zero-momentum sextuple array, int64 or object of Python ints.

    stars holds each row's absolute values sorted decreasing.  A row is
    excluded when its leading star is a mode shared, with sign, by the
    unbarred and the barred slots and exceeds 100 j3*^2: those tuples are
    the reducible family handled by the explicit closed form, not by this
    bound.  For every row the bound

        |divisor| >= j1*^3 / (100 (j2* j3* j4* j5* j6*)^2)

    is evaluated exactly in integers; it is asserted only where the row is
    non-resonant (divisor != 0) and not excluded.  It is compared as
    min(tail^2, A) 100 |d| >= A, with A = j1*^3 and tail = j2* j3* j4* j5* j6*
    itself capped at A before it is squared: for integers u, v >= 0 and
    A >= 1, u v >= A exactly when min(u, A) v >= A.  So no intermediate
    exceeds max(max_abs^6, 300 max_abs^5), and a resonant row (d = 0) fails
    with no division.  Runs on the columns rows.T, contiguous for the chunks
    of zero_momentum_rows.
    """
    cols = rows.T
    d = alternating_sum(cols, 2)
    stars = leading_stars(cols, 6)
    top, s2, s3, s4, s5, s6 = stars
    shared = np.zeros(len(rows), dtype=bool)
    for v in (top, -top):
        shared |= _any_equal(cols[0::2], v) & _any_equal(cols[1::2], v)
    excluded = shared & (top > 100 * s3 * s3)
    cube = top * top * top
    # min(tail^2, A) 100 |d|, built in place: the exhaustive audit's peak
    # memory is set here
    capped = np.minimum(s2 * s3 * s4 * s5 * s6, cube)
    capped *= capped
    np.minimum(capped, cube, out=capped)
    capped *= 100 * np.abs(d)
    return d, stars.T, excluded, capped >= cube


def _any_equal(columns, v) -> np.ndarray:
    """Per row, whether any of the columns equals v."""
    hit = columns[0] == v
    for col in columns[1:]:
        hit |= col == v
    return hit


@dataclass(frozen=True)
class SextupleReport:
    tuple: tuple[int, ...]
    divisor: int
    stars: tuple[int, ...]
    excluded: bool
    holds: bool | None  # None for the excluded case


def sextuple_bound_check(t) -> SextupleReport:
    """Classify a non-resonant sextuple and check the small-divisor bound of
    sextuple_kernel exactly."""
    t = tuple(int(v) for v in t)
    if not in_delta_tilde(t):
        raise ValueError(f"{t} is not in the non-resonant sextuple set")
    [d], [stars], [excluded], [holds] = sextuple_kernel(np.array([t], dtype=object))
    return SextupleReport(t, d, tuple(stars), bool(excluded), None if excluded else bool(holds))


# Largest max_abs at which sextuple_kernel runs in int64: no intermediate of
# the kernel exceeds max(max_abs^6, 300 max_abs^5).
SEXTUPLE_INT64_MAX_ABS = int64_radius(lambda a: max(a**6, 300 * a**5))


def _sextuple_audit(blocks, max_abs: int) -> dict:
    """states.bound_audit of blocks of zero-momentum sextuples: the
    non-resonant rows (d != 0) are checked, those of them excluded counted,
    and the others' bound asserted, in int64 up to SEXTUPLE_INT64_MAX_ABS,
    each violation recorded by sextuple_bound_check."""

    def verdicts(rows):
        d, _, excluded, holds = sextuple_kernel(rows)
        nonresonant = d != 0
        counts = {"checked": int(nonresonant.sum()), "excluded": int((excluded & nonresonant).sum())}
        return counts, nonresonant & ~holds & ~excluded

    int64 = max_abs <= SEXTUPLE_INT64_MAX_ABS
    return bound_audit(
        blocks, verdicts, lambda t, _: sextuple_bound_check(t), max_abs, int64, ("checked", "excluded")
    )


def exhaustive_sextuple_audit(max_abs: int = 8) -> dict:
    """Bound check over all non-resonant sextuples within max_abs, one chunk
    of zero_momentum_rows per j1; the enumerator's radius 23 lies inside
    SEXTUPLE_INT64_MAX_ABS.  At desk scale the excluded case cannot occur
    (it needs a leading star above 100 j3*^2 >= 100), but the classification
    is still applied for fidelity.
    """
    return _sextuple_audit(zero_momentum_rows(6, max_abs), max_abs)


def random_sextuple_audit(n_samples: int, max_abs: int, seed: int) -> dict:
    """Random non-resonant sextuples at large sizes: int64 up to max_abs =
    SEXTUPLE_INT64_MAX_ABS (1448), Python ints beyond.  The draw keeps the
    rows of nonzero divisor, summed in Python ints past that radius.
    """
    if max_abs < 2:
        raise ValueError("every sextuple with entries bounded by max_abs < 2 is resonant")
    rng = np.random.default_rng(np.random.Philox(key=seed))

    def draw(n):
        cols = random_zero_momentum_rows(rng, n, 6, max_abs).T
        exact = cols if max_abs <= SEXTUPLE_INT64_MAX_ABS else cols.astype(object)
        return fortran_rows(cols, alternating_sum(exact, 2) != 0)

    return _sextuple_audit(rejection_sample(n_samples, draw), max_abs)


# -- reducible closed-form cross-check --------------------------------------------------


def build_Qtilde0(M: int, n: int) -> PolyHamiltonian:
    """Closed form of the |q_n|^2-reducible non-resonant terms:

        (1/16pi^2) sum over Delta quadruples (j,k,l,m) avoiding the value n of
        (4 tau(j,n,k) - tau(j,n,l) - tau(k,n,m)) q_j qbar_k q_l qbar_m |q_n|^2

    aggregated onto canonical monomials.  Valid whenever n is not among the
    quadruple values; the derivation needs no size condition on n, only the
    stated disjointness, so the comparison is exact at desk scale too.
    """
    if n == 0 or abs(n) > M:
        raise ValueError("designated mode must lie in the window")
    acc: dict[Monomial, Fraction] = {}
    for j, k, l, m in iter_delta(M):
        if n in (j, k, l, m):
            continue
        kernel = 4 * tau(j, n, k) - tau(j, n, l) - tau(k, n, m)
        mono = Monomial.of((j, l, n), (k, m, n))
        acc[mono] = acc.get(mono, Fraction(0)) + kernel
    items = [
        (mono, ExactCoeff.real(f / 16, pi_power=2)) for mono, f in acc.items()
    ]
    return PolyHamiltonian.from_terms(M, items)


@dataclass
class Qtilde0Report:
    truncation: int
    designated_mode: int
    n_compared: int
    mismatches: list
    regime_satisfied: bool  # paper-size regime |n| > 100 max(window modes)^2

    @property
    def passed(self) -> bool:
        return not self.mismatches


def qtilde0_crosscheck(M: int, n: int, r6: PolyHamiltonian) -> Qtilde0Report:
    """Term-by-term comparison of the closed-form reducible part against the
    subtraction-derived non-resonant part of R6, for shared mode n."""
    _, qtilde = split_r6(r6)
    extracted: dict[Monomial, ExactCoeff] = {}
    regime = True
    for mono, coeff in qtilde._coeffs.items():
        if mono.plus.count(n) == 1 and mono.minus.count(n) == 1:
            extracted[mono] = coeff
            window_max_sq = max(v * v for v in mono.plus + mono.minus if v != n)
            if not abs(n) > 100 * window_max_sq:
                regime = False
    constructed = build_Qtilde0(M, n)._coeffs
    mismatches = []
    for mono in sorted(
        set(extracted) | set(constructed), key=lambda m: (m.plus, m.minus)
    ):
        a = extracted.get(mono, ExactCoeff.zero())
        b = constructed.get(mono, ExactCoeff.zero())
        if a != b:
            mismatches.append((mono, a, b))
    return Qtilde0Report(
        truncation=M,
        designated_mode=n,
        n_compared=len(set(extracted) | set(constructed)),
        mismatches=mismatches,
        regime_satisfied=regime,
    )


def tau_bound_check(j: int, k: int, l: int, m: int, n: int) -> bool:
    """|tau(j,n,k)|, |tau(j,n,l)|, |tau(k,n,m)| < 2/|n|, exactly.

    Requires the size regime |n| > 100 max(j^2,k^2,l^2,m^2) of the reducible
    family; raises otherwise.
    """
    if not in_delta(j, k, l, m):
        raise ValueError("window quadruple must be non-resonant")
    if not abs(n) > 100 * max(j * j, k * k, l * l, m * m):
        raise ValueError("designated mode too small for the reducible regime")
    two_over_n = Fraction(2, abs(n))
    return all(
        abs(tau(a, n, b)) < two_over_n
        for a, b in ((j, k), (j, l), (k, m))
    )
