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
from .poly import (
    Monomial,
    PolyHamiltonian,
    bracket,
    build_B_closed_form,
    _zero_momentum_quartets,
)
from .states import mode_range, rejection_sample


def quad_divisor(j: int, k: int, l: int, m: int) -> int:
    return j * j - k * k + l * l - m * m


def in_delta(j: int, k: int, l: int, m: int) -> bool:
    """Membership in the non-resonant quadruple set."""
    if 0 in (j, k, l, m):
        return False
    return j - k + l - m == 0 and j != k and j != m


@dataclass(frozen=True)
class DivisorReport:
    tuple: tuple[int, int, int, int]
    divisor: int
    lower_bound_squared: Fraction
    lower_bound: float
    holds: bool
    factorization_ok: bool


def divisor_bound_check(t: tuple[int, int, int, int]) -> DivisorReport:
    """Exact check of the quadruple small-divisor bound and its factorization.

    The bound sqrt(j1*)^3 / (2 sqrt(j2* j3* j4*)) is compared squared, in
    integers, so the check carries no floating error.
    """
    j, k, l, m = t
    if not in_delta(j, k, l, m):
        raise ValueError(f"{t} is not in the non-resonant quadruple set")
    d = quad_divisor(j, k, l, m)
    stars = sorted((abs(j), abs(k), abs(l), abs(m)), reverse=True)
    bound_sq = Fraction(stars[0] ** 3, 4 * stars[1] * stars[2] * stars[3])
    holds = d * d >= bound_sq
    fact_ok = d == -2 * (m - j) * (m - l) and d == -2 * (m - j) * (j - k)
    return DivisorReport(
        tuple=t,
        divisor=d,
        lower_bound_squared=bound_sq,
        lower_bound=math.sqrt(float(bound_sq)),
        holds=bool(holds),
        factorization_ok=bool(fact_ok),
    )


def iter_delta(max_abs: int):
    """All quadruples in Delta with entries bounded by max_abs."""
    values = [v for v in range(-max_abs, max_abs + 1) if v != 0]
    for j in values:
        for k in values:
            if k == j:
                continue
            for l in values:
                m = j - k + l
                if m == 0 or m == j or abs(m) > max_abs:
                    continue
                yield (j, k, l, m)


def exhaustive_divisor_audit(max_abs: int = 20) -> dict:
    """Bound and factorization over all of Delta within max_abs."""
    checked = 0
    violations = []
    for t in iter_delta(max_abs):
        rep = divisor_bound_check(t)
        checked += 1
        if not (rep.holds and rep.factorization_ok):
            violations.append(rep)
    return {"checked": checked, "violations": violations, "max_abs": max_abs}


def random_divisor_audit(n_samples: int, max_abs: int, seed: int) -> dict:
    """Random sampling of Delta at large index sizes; exact integer math."""
    if max_abs < 2:
        raise ValueError("Delta has no quadruple with entries bounded by max_abs < 2")
    rng = np.random.default_rng(np.random.Philox(key=seed))

    def draw():
        j, k, l = (int(v) for v in rng.integers(-max_abs, max_abs + 1, size=3))
        m = j - k + l
        if 0 in (j, k, l) or m == 0 or abs(m) > max_abs or j in (k, m):
            return None
        return (j, k, l, m)

    checked = 0
    violations = []
    for t in rejection_sample(n_samples, draw):
        rep = divisor_bound_check(t)
        checked += 1
        if not (rep.holds and rep.factorization_ok):
            violations.append(rep)
    return {"checked": checked, "violations": violations, "max_abs": max_abs}


# -- generator --------------------------------------------------------------------


def build_F4(M: int) -> PolyHamiltonian:
    """Quartic generator solving the homological equation at truncation M."""
    items = []
    for plus, minus in _zero_momentum_quartets(mode_range(M)):
        mono = Monomial.of(plus, minus)
        if mono.is_normal():
            continue
        d = mono.square_divisor()
        coeff = ExactCoeff.imag(
            Fraction(mono.arrangements(), 4) / d, pi_power=1
        )
        items.append((mono, coeff))
    return PolyHamiltonian.from_terms(M, items)


def _extended_nonnormal_items(M: int, Mx: int):
    """Canonical non-normal quartic monomials with at most one mode outside
    the window [1, M] in absolute value, all modes within Mx.

    Yields (monomial, arrangement count).  This is exactly the set of quartic
    terms that can contribute to a window-supported sextic bracket product:
    the out-of-window mode, if any, must be the contracted one.
    """
    window = mode_range(M)
    seen = set()
    for plus, minus in _zero_momentum_quartets(window):
        mono = Monomial.of(plus, minus)
        if not mono.is_normal():
            seen.add(mono)
            yield mono, mono.arrangements()
    for p in window:
        for i, m1 in enumerate(window):
            for m2 in window[i:]:
                n = m1 + m2 - p
                if M < abs(n) <= Mx:
                    mono = Monomial.of((p, n), (m1, m2))
                    if mono not in seen:
                        seen.add(mono)
                        yield mono, mono.arrangements()
                    # mirrored big mode in the barred slots
                    mono2 = Monomial.of((m1, m2), (p, n))
                    if mono2 not in seen:
                        seen.add(mono2)
                        yield mono2, mono2.arrangements()


def build_Q_extended(M: int, Mx: int) -> PolyHamiltonian:
    items = [
        (mono, ExactCoeff.real(Fraction(arr, 4), pi_power=1))
        for mono, arr in _extended_nonnormal_items(M, Mx)
    ]
    return PolyHamiltonian.from_terms(Mx, items)


def build_F4_extended(M: int, Mx: int) -> PolyHamiltonian:
    items = [
        (mono, ExactCoeff.imag(Fraction(arr, 4) / mono.square_divisor(), pi_power=1))
        for mono, arr in _extended_nonnormal_items(M, Mx)
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
    Mx = 3 * M
    Qx = build_Q_extended(M, Mx)
    Fx = build_F4_extended(M, Mx)
    qf = bracket(Qx, Fx, support_bound=M)
    return bf, qf.scaled(Fraction(1, 2))


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
        kernel = Fraction(-m, 4 * quad_divisor(j, k, l, m))
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
    from .identities import tau as tau_rat

    window = mode_range(M)
    acc: dict[Monomial, Fraction] = {}
    for j in window:
        for k in window:
            if k == j:
                continue
            for l in window:
                if l == k:
                    continue
                t = tau_rat(j, k, l)
                if t == 0:
                    continue
                for m1 in window:
                    for m2 in window:
                        if m1 == m2:
                            continue
                        m3 = j - k + l - m1 + m2
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
        stars = sorted((abs(v) for v in mono.plus + mono.minus), reverse=True)
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

    Squaring turns this into the integer inequality j1*^3 <= 4 d^2 j2* j3* j4*,
    checked exactly; also confirms |F_ordered| == (1/4pi)/|d| exactly.
    """
    checked = 0
    violations = []
    for mono, coeff in F.terms():
        d = mono.square_divisor()
        stars = sorted((abs(v) for v in mono.plus + mono.minus), reverse=True)
        arr = mono.arrangements()
        ordered_abs_sq = coeff.abs_squared_rational() / (arr * arr)
        expected = Fraction(1, 16) / (d * d)
        value_ok = ordered_abs_sq == expected and coeff.pi_power == 1
        bound_ok = stars[0] ** 3 <= 4 * d * d * stars[1] * stars[2] * stars[3]
        checked += 1
        if not (value_ok and bound_ok):
            violations.append((mono, coeff))
    return {"checked": checked, "violations": violations}
