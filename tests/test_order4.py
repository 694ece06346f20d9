import math
from fractions import Fraction

import pytest

from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.order4 import (
    build_F4,
    closed_form_bf,
    closed_form_qf_half,
    coefficient_growth_audit,
    compute_R6,
    divisor_bound_check,
    exhaustive_divisor_audit,
    f4_coefficient_bound_audit,
    in_delta,
    iter_delta,
    quad_divisor,
    r6_parts,
    random_divisor_audit,
)
from dnls_nflab.poly import (
    Monomial,
    PolyHamiltonian,
    bracket,
    build_lambda,
    build_Q,
    ordered_coefficient,
)


def test_delta_membership():
    assert in_delta(3, 1, 2, 4)
    assert not in_delta(2, 1, 1, 2)  # j == m
    assert not in_delta(1, 1, 2, 2)  # j == k
    assert not in_delta(1, 2, 1, 0)  # zero mode


def test_divisor_bound_example():
    rep = divisor_bound_check((3, 1, 2, 4))
    assert rep.divisor == -4
    assert rep.lower_bound == pytest.approx(8 / (2 * math.sqrt(6)))
    assert rep.holds and rep.factorization_ok


def test_divisor_bound_rejects_non_delta():
    with pytest.raises(ValueError):
        divisor_bound_check((2, 1, 1, 2))


def test_divisor_factorization_both_forms():
    for t in iter_delta(6):
        j, k, l, m = t
        d = quad_divisor(*t)
        assert d == -2 * (m - j) * (m - l) == -2 * (m - j) * (j - k)
        assert d != 0


def test_exhaustive_divisor_audit_small():
    rep = exhaustive_divisor_audit(12)
    assert rep["violations"] == []
    assert rep["checked"] > 4000


def test_random_divisor_audit():
    rep = random_divisor_audit(3000, 10_000, seed=5)
    assert rep["violations"] == []
    assert rep["checked"] == 3000


def test_random_divisor_audit_radius():
    # Delta has no quadruple with entries of modulus 1
    with pytest.raises(ValueError):
        random_divisor_audit(3, max_abs=1, seed=0)
    rep = random_divisor_audit(50, max_abs=2, seed=0)
    assert rep["checked"] == 50 and rep["violations"] == []


# -- generator -------------------------------------------------------------------


def test_f4_ordered_coefficient_example():
    F = build_F4(4)
    c = ordered_coefficient(F, (3, 1, 2, 4))
    assert c == ExactCoeff.imag(Fraction(-1, 16), pi_power=1)


def test_f4_real_valued_and_solves_homological_equation():
    for M in (2, 4, 6, 8):
        F = build_F4(M)
        assert F.is_real_valued()
        residual = bracket(build_lambda(M), F) + build_Q(M)
        assert residual.is_zero


def test_f4_coefficient_bound_exact():
    rep = f4_coefficient_bound_audit(build_F4(8))
    assert rep["violations"] == []


def test_lambda_eigenvalue_random_monomials():
    import numpy as np

    from dnls_nflab.states import mode_range

    rng = np.random.default_rng(3)
    lam = build_lambda(5)
    modes = mode_range(5)
    for _ in range(25):
        r = int(rng.integers(1, 4))
        plus = tuple(int(rng.choice(modes)) for _ in range(r))
        minus = tuple(int(rng.choice(modes)) for _ in range(r))
        mono = Monomial.of(plus, minus)
        P = PolyHamiltonian.from_terms(5, [(mono, ExactCoeff.real(1))])
        out = bracket(lam, P)
        expected = ExactCoeff.imag(mono.square_divisor())
        assert out.coefficient(mono) == expected


# -- sextic remainder ----------------------------------------------------------------


def test_r6_is_homogeneous_degree6_zero_momentum():
    r6 = compute_R6(4)
    assert r6.degrees() == [6]
    for mono, _ in r6.terms():
        assert mono.momentum() == 0
        assert mono.max_abs() <= 4


def test_r6_parts_match_closed_forms():
    for M in (3, 4):
        bf, qf = r6_parts(M)
        assert bf == closed_form_bf(M)
        assert qf == closed_form_qf_half(M)


def test_bf_reducible_coefficient_generic_tuple():
    # canonical coefficient of the {B,F} part on a generic quadruple with
    # |q_m|^2 attached: two orderings of the unbarred pair, kernel -m/divisor
    bf, _ = r6_parts(4)
    j, k, l, m = 3, 1, 2, 4
    mono = Monomial.of((j, l, m), (k, m, m))
    d = quad_divisor(j, k, l, m)
    expected = ExactCoeff.real(Fraction(-2 * m, 4 * d), pi_power=2)
    assert bf.coefficient(mono) == expected


def test_growth_audit_shapes():
    from dnls_nflab.poly import build_B_closed_form

    B = build_B_closed_form(8)
    rep = coefficient_growth_audit(B, Fraction(1, 2))
    assert 0 < rep.constant_per_r <= 1.0

    zero = PolyHamiltonian.zero(4)
    assert coefficient_growth_audit(zero, Fraction(1, 2)).constant_raw == 0.0


def test_growth_audit_r6_regression(r6_at_8):
    # empirical minimal remainder-coefficient constant at M=8, frozen as a
    # regression baseline
    rep = coefficient_growth_audit(r6_at_8, Fraction(1, 2))
    assert rep.degree == 6
    assert rep.constant_raw == pytest.approx(0.058497812650515214, rel=1e-9)
    assert rep.constant_per_r == pytest.approx(0.3881919654700681, rel=1e-9)


def test_growth_audit_rejects_mixed_degrees():
    from dnls_nflab.poly import build_G

    H = build_lambda(3) + build_G(3)
    with pytest.raises(ValueError):
        coefficient_growth_audit(H, Fraction(1, 2))
