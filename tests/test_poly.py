import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.poly import (
    Monomial,
    PolyHamiltonian,
    bracket,
    build_B_closed_form,
    build_G,
    build_lambda,
    build_Q,
    evaluate_at_state,
    evaluate_poly,
    is_normal_form,
    ordered_coefficient,
    poisson_bracket_numeric,
    poly_from_records,
    poly_to_records,
    split_normal,
    vector_field,
    vector_field_vec,
)
from dnls_nflab.states import FourierState, mode_range

GOLDEN = Path(__file__).parent / "golden"


# -- monomials -----------------------------------------------------------------


def test_monomial_canonical_sorting():
    m = Monomial.of((3, 1), (4, 2))
    assert m.plus == (1, 3) and m.minus == (2, 4)
    assert m.degree == 4
    assert m.momentum() == -2
    assert m.square_divisor() == 1 + 9 - 4 - 16


def test_monomial_zero_mode_rejected():
    with pytest.raises(ValueError):
        Monomial.of((0, 1), (1, 0))


def test_is_normal_form_examples():
    assert is_normal_form(Monomial.of((1, 3), (1, 3)))
    assert not is_normal_form(Monomial.of((2, 3), (1, 4)))
    assert not is_normal_form(Monomial.of((2, 2, 5), (2, 5, 5)))


def test_arrangements():
    assert Monomial.of((1, 2), (3, 4)).arrangements() == 4
    assert Monomial.of((1, 1), (2, 2)).arrangements() == 1
    assert Monomial.of((1, 2), (2, 2)).arrangements() == 2


# -- builders ------------------------------------------------------------------


def test_build_G_single_mode_reduction():
    G = build_G(1)
    assert G.coefficient(Monomial.of((1, 1), (1, 1))) == ExactCoeff.real(
        Fraction(1, 4), pi_power=1
    )


def test_build_G_ordering_count():
    G = build_G(4)
    assert G.coefficient(Monomial.of((1, 2), (1, 2))) == ExactCoeff.real(1, pi_power=1)


def test_build_G_zero_momentum():
    for mono, _ in build_G(3).terms():
        assert mono.momentum() == 0


def test_split_normal_reconstructs():
    G = build_G(4)
    normal, rest = split_normal(G)
    assert normal + rest == G
    assert normal == build_B_closed_form(4)
    assert rest == build_Q(4)
    # idempotence on the parts
    assert split_normal(normal) == (normal, PolyHamiltonian.zero(4))
    assert split_normal(rest)[0].is_zero


# -- bracket -------------------------------------------------------------------


def test_bracket_lambda_eigenvalue():
    lam = build_lambda(4)
    mono = Monomial.of((3, 2), (1, 4))
    P = PolyHamiltonian.from_terms(4, [(mono, ExactCoeff.real(1))])
    out = bracket(lam, P)
    assert out.coefficient(mono) == ExactCoeff.imag(-4)
    assert out.num_terms == 1


def test_bracket_antisymmetry_self():
    G = build_G(3)
    assert bracket(G, G).is_zero


def test_bracket_degree_arithmetic():
    from dnls_nflab.order4 import build_F4

    B = build_B_closed_form(4)
    F = build_F4(4)
    out = bracket(B, F)
    assert out.degrees() == [6]


def test_bracket_truncation_mismatch():
    with pytest.raises(ValueError):
        bracket(build_lambda(3), build_lambda(4))


def _random_poly(rng, M=3, max_terms=4, degrees=(2, 4)):
    modes = mode_range(M)
    items = []
    for _ in range(rng.integers(1, max_terms + 1)):
        d = int(rng.choice(degrees)) // 2
        plus = tuple(int(rng.choice(modes)) for _ in range(d))
        minus = tuple(int(rng.choice(modes)) for _ in range(d))
        coeff = ExactCoeff(
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
        )
        items.append((Monomial.of(plus, minus), coeff))
    return PolyHamiltonian.from_terms(M, items)


def test_bracket_antisymmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = _random_poly(rng)
        B = _random_poly(rng)
        assert (bracket(A, B) + bracket(B, A)).is_zero


def test_bracket_bilinearity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        A, B, C = (_random_poly(rng) for _ in range(3))
        left = bracket(A + B, C)
        right = bracket(A, C) + bracket(B, C)
        assert left == right


def test_jacobi_identity_exact():
    rng = np.random.default_rng(9)
    for _ in range(12):
        A, B, C = (_random_poly(rng, max_terms=3) for _ in range(3))
        total = (
            bracket(bracket(A, B), C)
            + bracket(bracket(B, C), A)
            + bracket(bracket(C, A), B)
        )
        assert total.is_zero


def test_bracket_preserves_zero_momentum():
    from dnls_nflab.order4 import build_F4

    out = bracket(build_Q(4), build_F4(4))
    for mono, _ in out.terms():
        assert mono.momentum() == 0


def test_bracket_preserves_reality():
    from dnls_nflab.order4 import build_F4

    B = build_B_closed_form(4)
    F = build_F4(4)
    assert B.is_real_valued() and F.is_real_valued()
    assert bracket(B, F).is_real_valued()


def test_mass_is_casimir_on_zero_momentum():
    # the mass functional commutes with every zero-momentum polynomial
    mass = PolyHamiltonian.from_terms(
        4, ((Monomial.of((j,), (j,)), ExactCoeff.real(1)) for j in mode_range(4))
    )
    assert bracket(mass, build_G(4)).is_zero
    assert bracket(mass, build_lambda(4)).is_zero


@pytest.mark.parametrize("M", [3, 4])
def test_bracket_support_bound_equals_restricted_full_bracket(M):
    from dnls_nflab.order4 import build_F4_extended, build_Q_extended

    Qx = build_Q_extended(M, 3 * M)
    Fx = build_F4_extended(M, 3 * M)
    windowed = bracket(Qx, Fx, support_bound=M)
    assert windowed.truncation == M
    assert not windowed.is_zero
    assert windowed == bracket(Qx, Fx).with_truncation(M)


def test_bracket_rejects_colliding_pi_powers():
    # {|q1|^2 + |q2|^2/pi, q1 q2 qbar3^2} = (i + 2i/pi) q1 q2 qbar3^2: the two
    # contractions meet on one monomial with pi powers 0 and 1
    H = PolyHamiltonian.from_terms(
        3,
        [
            (Monomial.of((1,), (1,)), ExactCoeff.real(1)),
            (Monomial.of((2,), (2,)), ExactCoeff.real(1, pi_power=1)),
        ],
    )
    F = PolyHamiltonian.from_terms(3, [(Monomial.of((1, 2), (3, 3)), ExactCoeff.real(1))])
    with pytest.raises(ValueError):
        bracket(H, F)
    # each contraction alone is fine
    assert bracket(H.filtered(lambda m: m.plus == (1,)), F).coefficient(
        Monomial.of((1, 2), (3, 3))
    ) == ExactCoeff.imag(1)


# -- numeric evaluation -----------------------------------------------------------


def _random_state(rng, M, scale=0.5):
    return FourierState(
        {
            j: scale * complex(rng.normal(), rng.normal())
            for j in mode_range(M)
        },
        M,
    )


def test_evaluate_matches_manual():
    P = PolyHamiltonian.from_terms(
        2, [(Monomial.of((1,), (2,)), ExactCoeff.real(Fraction(3, 2)))]
    )
    st = FourierState({1: 2j, 2: 1 + 1j}, 2)
    assert evaluate_at_state(P, st) == pytest.approx(1.5 * 2j * (1 - 1j))


def test_vector_field_linear_rotation():
    lam = build_lambda(3)
    st = FourierState({2: 0.5 + 0.1j}, 3)
    out = vector_field(lam, st)
    assert out.amplitude(2) == pytest.approx(-1j * 4 * (0.5 + 0.1j))


def test_vector_field_zero_state_quartic():
    G = build_G(3)
    out = vector_field(G, FourierState.zero(3))
    assert len(out) == 0


def test_vector_field_matches_finite_differences():
    G = build_G(4)
    rng = np.random.default_rng(12)
    modes = mode_range(4)
    for _ in range(20):
        st = _random_state(rng, 4)
        vec = st.to_vector()
        analytic = vector_field_vec(G, vec)
        h = 1e-6

        def g_at(v):
            return evaluate_poly(G, v).real

        for idx, j in enumerate(modes):
            e = np.zeros_like(vec)
            e[idx] = 1.0
            fd_re = (g_at(vec + h * e) - g_at(vec - h * e)) / (2 * h)
            fd_im = (g_at(vec + 1j * h * e) - g_at(vec - 1j * h * e)) / (2 * h)
            dbar = (fd_re + 1j * fd_im) / 2
            expect = -1j * j * dbar
            assert abs(analytic[idx] - expect) <= 1e-7 * max(1.0, abs(expect))


def test_poisson_bracket_numeric_antisymmetry_and_match():
    from dnls_nflab.order4 import build_F4

    G = build_G(4)
    F = build_F4(4)
    lam = build_lambda(4)
    rng = np.random.default_rng(13)
    for _ in range(5):
        st = _random_state(rng, 4)
        ab = poisson_bracket_numeric(G, F, st)
        ba = poisson_bracket_numeric(F, G, st)
        assert ab == pytest.approx(-ba, rel=1e-12, abs=1e-12)
        # symbolic oracle
        sym = evaluate_at_state(bracket(G, F), st).real
        assert ab == pytest.approx(sym, rel=1e-10, abs=1e-12)
        # action-only polynomials commute with Lambda
        assert poisson_bracket_numeric(
            lam, build_B_closed_form(4), st
        ) == pytest.approx(0.0, abs=1e-12)


def test_poisson_bracket_numeric_rejects_non_real():
    P = PolyHamiltonian.from_terms(
        2, [(Monomial.of((1,), (2,)), ExactCoeff.real(1))]
    )
    lam = build_lambda(2)
    with pytest.raises(ValueError):
        poisson_bracket_numeric(P, lam, FourierState.zero(2))


# -- serialization ------------------------------------------------------------------


def test_records_roundtrip():
    from dnls_nflab.order4 import build_F4

    F = build_F4(4)
    back = poly_from_records(poly_to_records(F), 4)
    assert back == F


def test_golden_quartic_records():
    expected = json.loads((GOLDEN / "quartic_energy_m3.json").read_text())
    assert poly_to_records(build_G(3)) == expected


def test_ordered_coefficient():
    G = build_G(4)
    c = ordered_coefficient(G, (1, 2, 4, 3))
    assert c == ExactCoeff.real(Fraction(1, 4), pi_power=1)
