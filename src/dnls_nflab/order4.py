"""Order-4 normal-form step: small divisors, the quartic generator, and the
sextic remainder it produces.

The generator F has coefficients (i/4pi)/(j^2-k^2+l^2-m^2) on the non-resonant
quadruple set Delta, so {Lambda, F} + Q = 0 holds exactly.  The sextic
remainder

    R6 = {B, F} + (1/2) {Q, F}

is assembled by the symbolic bracket engine as one bracket,
{B + (1/2) Q, F}, by bilinearity.  A window-M coefficient of R6
involves contraction modes up to 3M (the contracted mode of a quartic pair
is a signed sum of three window modes), so the bracket runs on a mode set of
radius 3M and the result is restricted to the window.  In a product whose
result lies in the window, only the contracted mode may leave it, so Q and
F enter with every term that has at most one mode outside [1, M] (the
non-normal members of poly.quartets(M, 3M)).  Without the enlarged
intermediate set the resonant cancellations and the closed-form action part
would fail near the truncation edge.  r6_coefficient evaluates the known
closed form of one R6 coefficient with no window at all, the oracle the
engine's R6 is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .coeffs import ExactCoeff
from .identities import tau
from .poly import (
    Monomial,
    PolyHamiltonian,
    bracket,
    build_B_closed_form,
    build_Q,
    homological_solve,
)
from .states import (
    alternating_sum,
    bound_audit,
    fortran_rows,
    int64_radius,
    leading_stars,
    random_zero_momentum_rows,
    rejection_sample,
    zero_momentum_rows,
)


def in_delta(j: int, k: int, l: int, m: int) -> bool:
    """Membership in the non-resonant quadruple set."""
    if 0 in (j, k, l, m):
        return False
    return alternating_sum((j, k, l, m)) == 0 and j != k and j != m


def _stars(entries) -> list[int]:
    """Absolute values sorted decreasing: j1* >= j2* >= ..."""
    return sorted(map(abs, entries), reverse=True)


def quad_kernel(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(divisor, bound holds, factorization holds) per row (j, k, l, m) of
    Delta, for int64 rows or object rows of Python ints.

    The bound |d| >= sqrt(j1*)^3 / (2 sqrt(j2* j3* j4*)) is compared squared,
    as the integer inequality j1*^3 <= 4 d^2 j2* j3* j4*, so the check carries
    no floating error.  As d != 0 on Delta and j2* j3* j4* is an integer, that
    inequality is evaluated as ceil(j1*^3 / (4 d^2)) <= j2* j3* j4*, whose
    largest intermediate is 4 d^2 <= 16 max_abs^4.  The factorization is
    d = -2(m-j)(m-l) = -2(m-j)(j-k).  Runs on the columns rows.T, contiguous
    for the chunks of delta_rows.
    """
    cols = rows.T
    j, k, l, m = cols
    d = alternating_sum(cols, 2)
    s1, s2, s3, s4 = leading_stars(cols, 4)
    holds = -(-(s1 * s1 * s1) // (4 * d * d)) <= s2 * s3 * s4
    fact_ok = (d == -2 * (m - j) * (m - l)) & (d == -2 * (m - j) * (j - k))
    return d, holds, fact_ok


@dataclass(frozen=True)
class DivisorReport:
    tuple: tuple[int, int, int, int]
    divisor: int
    holds: bool
    factorization_ok: bool

    @property
    def lower_bound(self) -> float:
        """sqrt(j1*)^3 / (2 sqrt(j2* j3* j4*)), the bound on |divisor|."""
        stars = _stars(self.tuple)
        return math.sqrt(stars[0] ** 3 / (4 * stars[1] * stars[2] * stars[3]))


def divisor_bound_check(t: tuple[int, int, int, int]) -> DivisorReport:
    """Exact check of the quadruple small-divisor bound and its factorization."""
    if not in_delta(*t):
        raise ValueError(f"{t} is not in the non-resonant quadruple set")
    d, holds, fact_ok = quad_kernel(np.array([t], dtype=object))
    return DivisorReport(t, d[0], bool(holds[0]), bool(fact_ok[0]))


def _delta_only(rows: np.ndarray) -> np.ndarray:
    """The rows (j, k, l, m) of a zero-momentum array that lie in Delta:
    k != j and m != j."""
    cols = rows.T
    j, k, _, m = cols
    return fortran_rows(cols, (k != j) & (m != j))


def delta_rows(max_abs: int):
    """All quadruples in Delta with entries bounded by max_abs: one int64
    array of rows (j, k, l, m) per j ascending, in Fortran order (see
    fortran_rows), each in lexicographic order of (k, l), m being solved
    from zero momentum.  max_abs runs from 1 to zero_momentum_max_abs(4)
    (1058)."""
    return map(_delta_only, zero_momentum_rows(4, max_abs))


def iter_delta(max_abs: int):
    """The quadruples of delta_rows as tuples of ints, in lexicographic order."""
    for rows in delta_rows(max_abs):
        yield from map(tuple, rows.tolist())


# Largest max_abs at which quad_kernel runs in int64: every intermediate of
# the kernel is at most 4 d^2 <= 16 max_abs^4.
QUAD_INT64_MAX_ABS = int64_radius(lambda a: 16 * a**4)


def _quad_audit(blocks, max_abs: int) -> dict:
    """states.bound_audit of blocks of Delta rows: quad_kernel's bound and
    factorization, in int64 up to QUAD_INT64_MAX_ABS, each violation
    recorded by divisor_bound_check."""

    def verdicts(rows):
        _, holds, fact_ok = quad_kernel(rows)
        return {"checked": len(rows)}, ~(holds & fact_ok)

    int64 = max_abs <= QUAD_INT64_MAX_ABS
    return bound_audit(blocks, verdicts, lambda t, _: divisor_bound_check(t), max_abs, int64)


def exhaustive_divisor_audit(max_abs: int = 20) -> dict:
    """Bound and factorization over all of Delta within max_abs, one chunk
    of delta_rows per j; the enumerator's radius 1058 lies inside
    QUAD_INT64_MAX_ABS."""
    return _quad_audit(delta_rows(max_abs), max_abs)


def random_divisor_audit(n_samples: int, max_abs: int, seed: int) -> dict:
    """Random sampling of Delta at large index sizes: int64 up to max_abs =
    QUAD_INT64_MAX_ABS (27554), Python ints beyond."""
    if max_abs < 2:
        raise ValueError("Delta has no quadruple with entries bounded by max_abs < 2")
    rng = np.random.default_rng(np.random.Philox(key=seed))

    def draw(n):
        return _delta_only(random_zero_momentum_rows(rng, n, 4, max_abs))

    return _quad_audit(rejection_sample(n_samples, draw), max_abs)


# -- generator --------------------------------------------------------------------


def build_F4(M: int, Mx: int | None = None) -> PolyHamiltonian:
    """Quartic generator solving the homological equation at truncation M:
    the homological solve of Q, so {Lambda, F4} = -Q term by term.

    With Mx > M it also carries the generator terms with one mode in
    M < |n| <= Mx (see quartets), on a polynomial of truncation Mx.
    """
    Mx = M if Mx is None else Mx
    return homological_solve(build_Q(M, Mx), Mx)


# -- sextic remainder --------------------------------------------------------------


def compute_R6(M: int) -> PolyHamiltonian:
    """Exact degree-6 remainder of the order-4 step, windowed to |j| <= M.

    Every stored coefficient equals its untruncated value: the bracket runs
    with intermediate modes up to 3M before restriction.  Q at 3M is built
    once and gives both the partner and F4.  Raises ValueError for M < 2
    and, through build_Q, for M > 352, where 3M passes the enumerator's
    radius.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    # past the enumerator's radius build_Q raises before any bracket runs;
    # the 1/2 scales Q's terms, far fewer than the bracket's
    Qx = build_Q(M, 3 * M)
    partner = build_B_closed_form(M).with_truncation(3 * M) + Qx.scaled(Fraction(1, 2))
    return bracket(partner, homological_solve(Qx, 3 * M), support_bound=M)


# -- closed form of R6, one monomial at a time --------------------------------------
#
# The known closed forms of the two bracket pieces are sums of a kernel over
# the ways to read a monomial, or its conjugate, as an ordered tuple.  The
# contracted mode j-k+l is intrinsic to the monomial, so a coefficient needs
# no 3M window and does not depend on the truncation.


def _readings(mono: Monomial):
    """Ordered readings (plus, minus) of a zero-momentum monomial with three
    slots of each kind, and of its conjugate; none at nonzero momentum."""
    if mono.momentum() != 0:
        return
    for m in (mono, mono.conjugate()):
        for plus in set(permutations(m.plus)):
            for minus in set(permutations(m.minus)):
                yield plus, minus


def _bf_reading_sum(mono: Monomial) -> Fraction:
    """pi^2 times the {B, F} coefficient: -m/(4 divisor) summed over the
    readings (j, l, m | k, m, m) with (j, k, l, m) in Delta."""
    return sum(
        (
            Fraction(-m, 4 * alternating_sum((j, k, l, m), 2))
            for (j, l, m), (k, m1, m2) in _readings(mono)
            if m1 == m2 == m and in_delta(j, k, l, m)
        ),
        Fraction(0),
    )


def _qf_reading_sum(mono: Monomial) -> Fraction:
    """pi^2 times the (1/2){Q, F} coefficient: -tau(j, k, l)/16 summed over
    the readings (j, l, m2 | k, m1, m3) with k not in {j, l} and m2 not in
    {m1, m3}."""
    return sum(
        (
            -tau(j, k, l) / 16
            for (j, l, m2), (k, m1, m3) in _readings(mono)
            if k not in (j, l) and m2 not in (m1, m3)
        ),
        Fraction(0),
    )


def r6_coefficient(mono: Monomial) -> ExactCoeff:
    """Closed-form coefficient of R6 = {B, F} + (1/2){Q, F} on one sextic
    monomial, the oracle for compute_R6 at any truncation."""
    return ExactCoeff.real(_bf_reading_sum(mono) + _qf_reading_sum(mono), pi_power=2)


# -- coefficient audits ---------------------------------------------------------------


@dataclass
class AuditReport:
    degree: int
    n_terms: int
    constant_raw: float
    constant_per_r: float
    worst: tuple[Monomial, float, float] | None  # (monomial, |coeff|, shape value)


def coefficient_growth_audit(
    P: PolyHamiltonian,
    tail_exponent: Fraction | float,
    head_exponent: Fraction | float | None = None,
) -> AuditReport:
    """Smallest constant C with |c| <= C * (j2*...j_{2r}*)^tail / (j1*)^head
    over all stored coefficients of a homogeneous polynomial.

    head_exponent defaults to tail_exponent, giving the remainder-coefficient
    shape (ratio of star products).  constant_per_r reports C^(1/r) for
    bounds stated with a C^r prefactor.  Empirical, float-valued: these
    constants are regression values, not proved bounds.
    """
    if P.is_zero:
        return AuditReport(0, 0, 0.0, 0.0, None)
    degrees = P.degrees()
    if len(degrees) != 1:
        raise ValueError("audit requires a homogeneous polynomial")
    deg = degrees[0]
    r = deg // 2
    tail = float(tail_exponent)
    head = float(head_exponent) if head_exponent is not None else tail
    best = 0.0
    worst = None
    n = 0
    for mono, coeff in P.terms():
        n += 1
        stars = _stars(mono.plus + mono.minus)
        shape = math.prod(stars[1:]) ** tail / stars[0] ** head
        c_abs = coeff.abs_float()
        ratio = c_abs / shape
        if ratio > best:
            best = ratio
            worst = (mono, c_abs, shape)
    return AuditReport(deg, n, best, best ** (1.0 / r), worst)


def f4_coefficient_bound_audit(F: PolyHamiltonian) -> dict:
    """Exact per-ordered-coefficient bound for the quartic generator:

        |F_ordered| <= (1/2pi) (j1*)^(-3/2) (j2* j3* j4*)^(1/2)

    This is the quadruple divisor bound of quad_kernel, checked on the
    ordering (plus[0], minus[0], plus[1], minus[1]) of each term; also
    confirms |F_ordered| == (1/4pi)/|d| exactly.
    """
    terms = list(F.terms())
    rows = np.array(
        [(m.plus[0], m.minus[0], m.plus[1], m.minus[1]) for m, _ in terms], dtype=object
    ).reshape(-1, 4)
    d, holds, _ = quad_kernel(rows)
    violations = []
    for (mono, coeff), di, bound_ok in zip(terms, d, holds):
        arr = mono.arrangements()
        ordered_abs_sq = coeff.abs_squared_rational() / (arr * arr)
        value_ok = ordered_abs_sq == Fraction(1, 16) / (di * di) and coeff.pi_power == 1
        if not (value_ok and bound_ok):
            violations.append((mono, coeff))
    return {"checked": len(terms), "violations": violations}
