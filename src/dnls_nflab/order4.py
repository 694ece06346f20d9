"""Order-4 normal-form step: small divisors, the quartic generator, and the
sextic remainder it produces.

The generator F has coefficients (i/4pi)/(j^2-k^2+l^2-m^2) on the non-resonant
quadruple set Delta, so {Lambda, F} + Q = 0 holds exactly.  The sextic
remainder

    R6 = {B, F} + (1/2) {Q, F}

is assembled by the symbolic bracket engine.  A window-M coefficient of R6
involves contraction modes up to 3M (the contracted mode of a quartic pair
is a signed sum of three window modes), so the brackets run on a mode set of
radius 3M and the result is restricted to the window.  Without the enlarged
intermediate set the resonant cancellations and the closed-form action part
would fail near the truncation edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import ExactCoeff
from .identities import tau
from .poly import (
    Monomial,
    PolyHamiltonian,
    _nonnormal_quartets,
    bracket,
    build_B_closed_form,
    build_Q,
)
from .states import (
    alternating_sum,
    fortran_rows,
    leading_stars,
    mode_range,
    random_zero_momentum_rows,
    rejection_sample,
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
    no floating error; the factorization is d = -2(m-j)(m-l) = -2(m-j)(j-k).
    Runs on the columns rows.T, contiguous for the chunks of delta_rows.
    """
    cols = rows.T
    j, k, l, m = cols
    d = alternating_sum(cols, 2)
    s1, s2, s3, s4 = leading_stars(cols, 4)
    holds = s1**3 <= 4 * d * d * s2 * s3 * s4
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


def _divisor_violations(rows: np.ndarray) -> list[DivisorReport]:
    """Reports, in Python ints, for the rows of an array of Delta quadruples
    that fail the bound or the factorization."""
    d, holds, fact_ok = quad_kernel(rows)
    return [
        DivisorReport(tuple(rows[i].tolist()), int(d[i]), bool(holds[i]), bool(fact_ok[i]))
        for i in np.flatnonzero(~(holds & fact_ok))
    ]


def delta_rows(max_abs: int):
    """All quadruples in Delta with entries bounded by max_abs: one int64
    array of rows (j, k, l, m) per j ascending, in Fortran order (see
    fortran_rows), each in lexicographic order of (k, l), m being solved
    from zero momentum."""
    values = np.array(mode_range(max_abs), dtype=np.int64)
    k, l = (g.ravel() for g in np.meshgrid(values, values, indexing="ij"))
    for j in values:
        m = alternating_sum((j, k, l))
        ok = (k != j) & (m != 0) & (m != j) & (np.abs(m) <= max_abs)
        yield fortran_rows((j, k, l, m), ok)


def iter_delta(max_abs: int):
    """The quadruples of delta_rows as tuples of ints, in lexicographic order."""
    for rows in delta_rows(max_abs):
        yield from map(tuple, rows.tolist())


# Largest max_abs whose int64 bound check cannot overflow: |d| <= 2 max_abs^2,
# so 4 d^2 j2* j3* j4* <= 16 max_abs^7 <= int64 max.
QUAD_INT64_MAX_ABS = 344


def exhaustive_divisor_audit(max_abs: int = 20) -> dict:
    """Bound and factorization over all of Delta within max_abs, checked in
    int64, one chunk of delta_rows per j.  Raises OverflowError beyond
    QUAD_INT64_MAX_ABS."""
    if max_abs > QUAD_INT64_MAX_ABS:
        raise OverflowError(f"max_abs={max_abs} overflows the int64 bound check")
    checked = 0
    violations = []
    for rows in delta_rows(max_abs):
        checked += len(rows)
        violations += _divisor_violations(rows)
    return {"checked": checked, "violations": violations, "max_abs": max_abs}


def random_divisor_audit(n_samples: int, max_abs: int, seed: int) -> dict:
    """Random sampling of Delta at large index sizes; exact integer math."""
    if max_abs < 2:
        raise ValueError("Delta has no quadruple with entries bounded by max_abs < 2")
    rng = np.random.default_rng(np.random.Philox(key=seed))

    def draw(n):
        rows = random_zero_momentum_rows(rng, n, 4, max_abs)
        j, k, _, m = rows.T
        return rows[(j != k) & (j != m)]

    checked = 0
    violations = []
    for rows in rejection_sample(n_samples, draw):
        checked += len(rows)
        violations += _divisor_violations(rows)
    return {"checked": checked, "violations": violations, "max_abs": max_abs}


# -- generator --------------------------------------------------------------------


def build_F4(M: int, Mx: int | None = None) -> PolyHamiltonian:
    """Quartic generator solving the homological equation at truncation M.

    With Mx > M it also carries the generator terms with one mode in
    M < |n| <= Mx, the ones a window-supported sextic bracket can contract.
    """
    Mx = M if Mx is None else Mx
    items = [
        (mono, ExactCoeff.imag(Fraction(arr, 4) / mono.square_divisor(), pi_power=1))
        for mono, arr in _nonnormal_quartets(M, Mx)
    ]
    return PolyHamiltonian.from_terms(Mx, items)


# -- sextic remainder --------------------------------------------------------------


def r6_parts(M: int) -> tuple[PolyHamiltonian, PolyHamiltonian]:
    """({B,F}, (1/2){Q,F}) with window-complete coefficients at truncation M."""
    if M < 2:
        raise ValueError("need M >= 2")
    B = build_B_closed_form(M)
    F = build_F4(M)
    bf = bracket(B, F)
    # the 1/2 scales Q's terms, far fewer than the bracket's
    half_q = build_Q(M, 3 * M).scaled(Fraction(1, 2))
    return bf, bracket(half_q, build_F4(M, 3 * M), support_bound=M)


def compute_R6(M: int) -> PolyHamiltonian:
    """Exact degree-6 remainder of the order-4 step, windowed to |j| <= M.

    Every stored coefficient equals its untruncated value: the bracket runs
    with intermediate modes up to 3M before restriction.
    """
    bf, qf_half = r6_parts(M)
    return bf + qf_half


# -- closed forms of the two bracket pieces ---------------------------------------------
#
# Independent transcriptions of the known closed forms, used only as exact
# cross-checks of the engine-produced parts.  Both are ordered-tuple sums
# plus complex conjugate, aggregated onto canonical monomials.


def closed_form_bf(M: int) -> PolyHamiltonian:
    """{B, F} as -(1/4pi^2) sum over Delta of (m/divisor) q_j qbar_k q_l qbar_m |q_m|^2 + c.c."""
    acc: dict[Monomial, Fraction] = {}
    for j, k, l, m in iter_delta(M):
        kernel = Fraction(-m, 4 * alternating_sum((j, k, l, m), 2))
        mono = Monomial.of((j, l, m), (k, m, m))
        acc[mono] = acc.get(mono, Fraction(0)) + kernel
        conj = mono.conjugate()
        acc[conj] = acc.get(conj, Fraction(0)) + kernel
    return PolyHamiltonian.from_terms(
        M, ((mono, ExactCoeff.real(f, pi_power=2)) for mono, f in acc.items())
    )


def closed_form_qf_half(M: int) -> PolyHamiltonian:
    """(1/2){Q, F} as -(1/16pi^2) sum of tau(j,k,l) q_j qbar_k q_l qbar_m1 q_m2 qbar_m3 + c.c.

    The sum runs over zero-momentum sextuples with j,l != k and m1,m3 != m2;
    the contracted mode j-k+l is intrinsic (tau vanishes when it is zero), so
    this form is window-complete by construction and must agree exactly with
    the engine's enlarged-intermediate bracket.
    """
    window = mode_range(M)
    acc: dict[Monomial, Fraction] = {}
    for j in window:
        for k in window:
            if k == j:
                continue
            for l in window:
                if l == k:
                    continue
                t = tau(j, k, l)
                if t == 0:
                    continue
                for m1 in window:
                    for m2 in window:
                        if m1 == m2:
                            continue
                        m3 = alternating_sum((j, k, l, m1, m2))
                        if m3 == 0 or abs(m3) > M or m3 == m2:
                            continue
                        kernel = -t / 16
                        mono = Monomial.of((j, l, m2), (k, m1, m3))
                        acc[mono] = acc.get(mono, Fraction(0)) + kernel
                        conj = mono.conjugate()
                        acc[conj] = acc.get(conj, Fraction(0)) + kernel
    return PolyHamiltonian.from_terms(
        M, ((mono, ExactCoeff.real(f, pi_power=2)) for mono, f in acc.items())
    )


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
