import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from dnls_nflab import poly
from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.poly import (
    LONG_COMPLEX,
    Monomial,
    PolyHamiltonian,
    bracket,
    build_B_closed_form,
    build_G,
    build_lambda,
    build_Q,
    evaluate_poly,
    poly_to_records,
    quartets,
    split_normal,
    vector_field_vec,
)
from dnls_nflab.states import mode_range, state_vector
from helpers import mul_imag_int, ordered_coefficient

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


def test_monomial_is_a_named_sorted_pair():
    m = Monomial.of([4, -2, 1], (3, 3, -1))
    assert type(m.plus) is tuple and type(m.minus) is tuple
    assert m == ((-2, 1, 4), (-1, 3, 3)) and hash(m) == hash(((-2, 1, 4), (-1, 3, 3)))
    plus, minus = m
    assert (plus, minus) == (m.plus, m.minus)
    assert repr(m) == "Monomial(plus=(-2, 1, 4), minus=(-1, 3, 3))"
    assert str(m) == "q[-2, 1, 4]*qbar[-1, 3, 3]"
    with pytest.raises(ValueError):
        Monomial.of((1,), (2, 0))


def test_bracket_monomials_equal_and_hash_like_validated_ones():
    out = bracket(build_Q(3), build_B_closed_form(3))
    assert not out.is_zero
    for mono, coeff in out.terms():
        again = Monomial.of(reversed(mono.plus), reversed(mono.minus))
        assert type(mono) is Monomial and mono == again and hash(mono) == hash(again)
        assert out.coefficient(again) is coeff


def test_is_normal_form_examples():
    assert Monomial.of((1, 3), (1, 3)).is_normal()
    assert not Monomial.of((2, 3), (1, 4)).is_normal()
    assert not Monomial.of((2, 2, 5), (2, 5, 5)).is_normal()


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


@pytest.mark.parametrize("Mx", [3, 9, 12])
def test_quartets_match_brute_force(Mx):
    # the definition: nonzero entries within Mx, zero momentum, at most one
    # |entry| above the window M; each ordered tuple is one arrangement
    M = 3
    values = [v for v in range(-Mx, Mx + 1) if v != 0]
    expected = Counter(
        Monomial.of((j, l), (k, m))
        for j, k, l, m in itertools.product(values, repeat=4)
        if j - k + l - m == 0 and sum(abs(v) > M for v in (j, k, l, m)) <= 1
    )
    got = list(quartets(M, Mx))
    assert [mono for mono, _ in got] == sorted(expected, key=lambda m: (m.plus, m.minus))
    assert dict(got) == expected
    assert all(arr == mono.arrangements() and type(arr) is int for mono, arr in got)
    assert all(type(v) is int for mono, _ in got for v in mono.plus + mono.minus)


def test_quartets_refuse_a_window_past_the_enumerator(no_grid):
    with pytest.raises(ValueError, match="got M=4, Mx=3"):
        list(quartets(4, 3))
    # the enumerated radius is min(Mx, 3M): 1059 at M = 353
    with pytest.raises(ValueError, match="the limit at width 4 is 1058"):
        build_Q(353, 1059)


@pytest.mark.parametrize("M, Mx", [(10, 100), (3, 1059)])
def test_quartets_past_3m_add_no_terms(M, Mx):
    # the one mode outside the window is a signed sum of three inside it,
    # so a window past 3M only raises the truncation
    want = build_Q(M, 3 * M)
    got = build_Q(M, Mx)
    assert got.truncation == Mx
    assert dict(got.terms()) == dict(want.terms())
    assert got.num_terms == {10: 4090, 3: 114}[M]


def test_split_normal_reconstructs():
    G = build_G(4)
    normal, rest = split_normal(G)
    assert normal + rest == G
    assert normal == build_B_closed_form(4)
    assert rest == build_Q(4)
    # idempotence on the parts
    assert split_normal(normal) == (normal, PolyHamiltonian.zero(4))
    assert split_normal(rest)[0].is_zero


def test_from_terms_sums_cancels_and_checks_truncation():
    mono = Monomial.of((1,), (2,))
    c = ExactCoeff(Fraction(1, 3), Fraction(-2, 5))
    cancelled = PolyHamiltonian.from_terms(2, [(mono, c), (mono, -c)])
    assert cancelled.is_zero and cancelled.num_terms == 0 and cancelled.degrees() == []
    # a zero coefficient outside the truncation is skipped, not rejected
    outside = Monomial.of((3,), (3,))
    P = PolyHamiltonian.from_terms(2, [(mono, c), (outside, ExactCoeff.zero())])
    assert P == PolyHamiltonian.from_terms(2, [(mono, c)])
    assert P.num_terms == 1 and P.degrees() == [2]
    with pytest.raises(ValueError):
        PolyHamiltonian.from_terms(2, [(mono, c), (outside, ExactCoeff.real(1))])


def test_add_drops_cancelling_terms_and_rejects_mixed_pi_powers():
    mono, other = Monomial.of((1,), (2,)), Monomial.of((2,), (1,))
    c = ExactCoeff(Fraction(1, 3), Fraction(-2, 5), pi_power=1)
    d = ExactCoeff.imag(Fraction(7, 2), pi_power=1)
    P = PolyHamiltonian.from_terms(2, [(mono, c), (other, d)])
    total = P + PolyHamiltonian.from_terms(2, [(mono, -c)])
    assert total == PolyHamiltonian.from_terms(2, [(other, d)]) and total.num_terms == 1
    # only the real parts cancel: the imaginary part stays
    half = ExactCoeff(Fraction(-1, 3), Fraction(1, 5), pi_power=1)
    total = P + PolyHamiltonian.from_terms(2, [(mono, half)])
    assert total.coefficient(mono) == ExactCoeff.imag(Fraction(-1, 5), pi_power=1)
    # distinct pi powers raise the coefficient sum's error, cancelling or not
    for e in (ExactCoeff(-c.re, -c.im, pi_power=2), ExactCoeff.real(1, pi_power=2)):
        with pytest.raises(ValueError) as want:
            c + e
        with pytest.raises(ValueError, match="pi powers") as got:
            P + PolyHamiltonian.from_terms(2, [(mono, e)])
        assert str(got.value) == str(want.value)


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
    from dnls_nflab.order4 import build_F4

    Qx = build_Q(M, 3 * M)
    Fx = build_F4(M, 3 * M)
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


def _reference_bracket(H, F, support_bound=None):
    """{H, F} as a double loop over term pairs in ExactCoeff arithmetic:
    -i n (dH/dq_n dF/dqbar_n - dH/dqbar_n dF/dq_n) for every shared n."""

    def derivative(mono, slot, n):
        entries = list(getattr(mono, slot))
        mult = entries.count(n)
        entries.remove(n)
        return mult, (entries, mono.minus) if slot == "plus" else (mono.plus, entries)

    bound = H.truncation if support_bound is None else min(H.truncation, support_bound)
    items = []
    for hm, hc in H.terms():
        for fm, fc in F.terms():
            for h_slot, f_slot, sign in (("plus", "minus", -1), ("minus", "plus", 1)):
                for n in set(getattr(hm, h_slot)) & set(getattr(fm, f_slot)):
                    h_mult, (hp, hmi) = derivative(hm, h_slot, n)
                    f_mult, (fp, fmi) = derivative(fm, f_slot, n)
                    mono = Monomial.of(list(hp) + list(fp), list(hmi) + list(fmi))
                    if mono.max_abs() <= bound:
                        items.append((mono, mul_imag_int((hc * fc).scaled(h_mult * f_mult), sign * n)))
    return PolyHamiltonian.from_terms(bound, items)


def _times_i(P):
    return PolyHamiltonian(P.truncation, {m: mul_imag_int(c, 1) for m, c in P.terms()})


def _real_part(P):
    """P + conj(P): the real-valued polynomial 2 Re P."""
    conj = PolyHamiltonian(P.truncation, {m.conjugate(): c.conjugate() for m, c in P.terms()})
    return P + conj


@lru_cache(maxsize=None)
def _bracket_operands(name):
    from dnls_nflab.order4 import build_F4

    if name == "Qx":
        return build_Q(3, 9)
    if name == "F4x":
        return build_F4(3, 9)
    if name == "iF4x":
        return _times_i(build_F4(3, 9))
    if name == "B":
        return build_B_closed_form(3)
    if name == "F4":
        return build_F4(3)
    if name in ("lam3", "lam9"):
        return build_lambda(int(name[3:]))
    if name == "F6x":
        from dnls_nflab.order4 import compute_R6
        from dnls_nflab.order6 import build_F6

        return build_F6(9, compute_R6(3))
    if name in ("cube", "cube_real"):
        # q1^3 against q1 qbar1^3 and qbar1^4 fills an output slot with
        # three 1s, one below the code's base of 4; q1 q2 against qbar1^3
        # gives (2 | 1, 1), which a base of 3 would carry onto (1, 1, 1 | 1, 1)
        P = PolyHamiltonian.from_terms(
            2,
            [
                (Monomial.of((1, 1, 1), ()), ExactCoeff(Fraction(1, 3), Fraction(-2, 7))),
                (Monomial.of((1, 2), ()), ExactCoeff(Fraction(5, 2), Fraction(1, 9))),
            ],
        )
        return _real_part(P) if name == "cube_real" else P
    if name in ("qbar1_heavy", "qbar1_heavy_real"):
        P = PolyHamiltonian.from_terms(
            2,
            [
                (Monomial.of((1,), (1, 1, 1)), ExactCoeff(Fraction(-4, 5), Fraction(3, 11))),
                (Monomial.of((), (1, 1, 1, 1)), ExactCoeff(Fraction(7, 6), Fraction(0))),
                (Monomial.of((), (1, 1, 1)), ExactCoeff(Fraction(0), Fraction(-1, 13))),
            ],
        )
        return _real_part(P) if name == "qbar1_heavy_real" else P
    if name == "diag":
        # diagonal, mixed denominators, both parts nonzero, pi power 1
        return PolyHamiltonian.from_terms(
            3,
            [
                (Monomial.of((j,), (j,)), ExactCoeff(Fraction(j, 5 - j), Fraction(-1, j + 4), 1))
                for j in mode_range(3)
                if j != 1
            ],
        )
    # mixed denominators, both parts nonzero; real valued or not
    rng = np.random.default_rng(31)
    P = _random_poly(rng, M=3, max_terms=6, degrees=(2, 4, 6))
    P = P + PolyHamiltonian(3, {m: ExactCoeff(Fraction(1, 29 - i), Fraction(i, 7), 0)
                                for i, (m, _) in enumerate(P.terms())})
    return _real_part(P) if name == "random_real" else P


@pytest.mark.parametrize(
    "h, f, support_bound",
    [
        ("Qx", "F4x", 3),
        ("Qx", "F4x", None),
        ("Qx", "iF4x", 3),
        ("iF4x", "Qx", None),
        ("B", "F4", None),
        ("random_real", "F4", None),
        ("random_real", "B", 2),
        ("random", "random_real", None),
        ("random", "F4", 2),
        # output slots at the additive code's carry boundary
        ("cube", "qbar1_heavy", None),
        ("qbar1_heavy", "cube", 1),
        ("cube_real", "qbar1_heavy_real", None),
        # a real degree-6 generator against F4 on the 3M window, bounded
        ("F6x", "F4x", 3),
        # a diagonal operand takes the per-term path, on either side
        ("lam9", "F4x", None),
        ("lam9", "F4x", 3),
        ("F4x", "lam9", None),
        ("F4x", "lam9", 3),
        ("lam3", "random", None),
        ("lam3", "random", 2),
        ("random", "lam3", None),
        ("random", "lam3", 2),
        ("lam3", "random_real", None),
        ("lam3", "random_real", 2),
        ("random_real", "lam3", None),
        ("random_real", "lam3", 2),
        ("diag", "random", None),
        ("random_real", "diag", 2),
        ("diag", "F4", None),
        ("lam3", "lam3", None),
    ],
)
def test_bracket_matches_naive_reference(h, f, support_bound):
    H, F = _bracket_operands(h), _bracket_operands(f)
    got = bracket(H, F, support_bound=support_bound)
    want = _reference_bracket(H, F, support_bound)
    assert got == want and got.truncation == want.truncation
    # {P, P} = 0; every other case here has a nonzero bracket
    assert got.is_zero == (h == f)
    if H.is_real_valued() and F.is_real_valued():
        assert got.is_real_valued()


def test_bracket_of_real_degree_one_pair_is_a_real_constant():
    # {q1 + qbar1, i q1 - i qbar1} = -i (1 (-i) - 1 i) = -2, on the
    # self-conjugate constant monomial
    H = PolyHamiltonian.from_terms(
        1, [(Monomial.of((1,), ()), ExactCoeff.real(1)), (Monomial.of((), (1,)), ExactCoeff.real(1))]
    )
    F = PolyHamiltonian.from_terms(
        1, [(Monomial.of((1,), ()), ExactCoeff.imag(1)), (Monomial.of((), (1,)), ExactCoeff.imag(-1))]
    )
    assert H.is_real_valued() and F.is_real_valued()
    out = bracket(H, F)
    assert out == PolyHamiltonian.from_terms(1, [(Monomial.of((), ()), ExactCoeff.real(-2))])
    assert out == _reference_bracket(H, F)


def test_bracket_rejects_colliding_pi_powers_of_real_operands():
    # {|q1|^2 + |q2|^2/pi, q1 qbar2 + q2 qbar1}: q1 qbar2 collects i/pi from
    # the q2 contraction and -i from the q1 contraction
    H = PolyHamiltonian.from_terms(
        2,
        [
            (Monomial.of((1,), (1,)), ExactCoeff.real(1)),
            (Monomial.of((2,), (2,)), ExactCoeff.real(1, pi_power=1)),
        ],
    )
    F = PolyHamiltonian.from_terms(
        2, [(Monomial.of((1,), (2,)), ExactCoeff.real(1)), (Monomial.of((2,), (1,)), ExactCoeff.real(1))]
    )
    assert H.is_real_valued() and F.is_real_valued()
    with pytest.raises(ValueError, match="pi powers"):
        bracket(H, F)
    with pytest.raises(ValueError):
        _reference_bracket(H, F)


@pytest.mark.parametrize(
    "plus, minus",
    [
        ((1, 2), (3, 3)),  # weights 1 and 2/pi add up
        ((1, 2), (1, 2)),  # weights cancel, but both contractions still meet
        ((1, 3), (2, 2)),  # 1 and -4/pi
    ],
)
def test_diagonal_bracket_rejects_colliding_pi_powers_like_the_pair_loop(plus, minus):
    # H = |q1|^2 + |q2|^2/pi is diagonal; H + |q4|^4 is not, and its extra
    # term contracts with nothing in F, so it runs the pair loop on the
    # same contractions
    H = PolyHamiltonian.from_terms(
        4,
        [
            (Monomial.of((1,), (1,)), ExactCoeff.real(1)),
            (Monomial.of((2,), (2,)), ExactCoeff.real(1, pi_power=1)),
        ],
    )
    paired = H + PolyHamiltonian.from_terms(4, [(Monomial.of((4, 4), (4, 4)), ExactCoeff.real(1))])
    F = PolyHamiltonian.from_terms(4, [(Monomial.of(plus, minus), ExactCoeff(Fraction(1, 3), Fraction(2)))])
    for left, right in ((H, F), (F, H), (paired, F), (F, paired)):
        with pytest.raises(ValueError, match="pi powers"):
            bracket(left, right)
    if max(plus + minus) > 2:
        # outside the support bound no contraction is formed, so nothing meets
        assert bracket(H, F, support_bound=2).is_zero


@lru_cache(maxsize=None)
def _homological_pair(order, M=6):
    """(F, X) with {Lambda, F} = -X at truncation M: (F4, Q) or (F6, Qtilde)."""
    from dnls_nflab.order4 import build_F4, compute_R6
    from dnls_nflab.order6 import build_F6, split_r6

    if order == 4:
        return build_F4(M), build_Q(M)
    r6 = compute_R6(M)
    return build_F6(M, r6), split_r6(r6)[1]


@pytest.mark.parametrize("support_bound", [None, 2])
@pytest.mark.parametrize("order", [4, 6])
def test_lambda_brackets_form_no_pairs(monkeypatch, order, support_bound):
    F, X = _homological_pair(order)

    def refuse(*args):
        raise AssertionError("a contraction index was built")

    monkeypatch.setattr(poly, "_contraction_index", refuse)
    want = -X.with_truncation(6 if support_bound is None else support_bound)
    lam = build_lambda(6)
    for got in (bracket(lam, F, support_bound), -bracket(F, lam, support_bound)):
        assert got == want and got.truncation == want.truncation


@pytest.mark.parametrize(
    "weight",
    [
        lambda j: ExactCoeff.real(j, pi_power=1),  # int weights over pi
        lambda j: ExactCoeff(j, 1),  # complex weights
        lambda j: ExactCoeff.real(Fraction(j, 2)),  # rational weights
    ],
    ids=["pi", "complex", "rational"],
)
def test_other_diagonals_form_pairs(monkeypatch, weight):
    calls = []
    index = poly._contraction_index
    monkeypatch.setattr(poly, "_contraction_index", lambda *args: calls.append(args) or index(*args))
    D = PolyHamiltonian.from_terms(3, [(Monomial.of((j,), (j,)), weight(j)) for j in mode_range(3)])
    F = _bracket_operands("F4")
    for left, right in ((D, F), (F, D)):
        calls.clear()
        assert bracket(left, right) == _reference_bracket(left, right)
        assert calls


# -- numeric evaluation -----------------------------------------------------------


def _random_state(rng, M, scale=0.5):
    return state_vector({j: scale * complex(rng.normal(), rng.normal()) for j in mode_range(M)}, M)


def test_evaluate_matches_manual():
    P = PolyHamiltonian.from_terms(
        2, [(Monomial.of((1,), (2,)), ExactCoeff.real(Fraction(3, 2)))]
    )
    assert evaluate_poly(P, state_vector({1: 2j, 2: 1 + 1j}, 2)) == pytest.approx(1.5 * 2j * (1 - 1j))


def test_vector_field_linear_rotation():
    lam = build_lambda(3)
    out = vector_field_vec(lam, state_vector({2: 0.5 + 0.1j}, 3))
    assert out.tolist() == [0, 0, 0, 0, pytest.approx(-1j * 4 * (0.5 + 0.1j)), 0]


def test_vector_field_zero_state_quartic():
    G = build_G(3)
    out = vector_field_vec(G, np.zeros(6, dtype=complex))
    assert out.shape == (6,) and not out.any()


def test_vector_field_matches_finite_differences():
    G = build_G(4)
    rng = np.random.default_rng(12)
    modes = mode_range(4)
    for _ in range(20):
        vec = _random_state(rng, 4)
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


def _to_dtype_coeff(coeff, dtype):
    """A coefficient's prefactor, one term at a time: complex128 by
    to_complex, clongdouble from longdouble parts and pi power."""
    if np.dtype(dtype) == LONG_COMPLEX:
        scale = np.longdouble(math.pi) ** (-coeff.pi_power)
        re = np.longdouble(coeff.re.numerator) / np.longdouble(coeff.re.denominator)
        im = np.longdouble(coeff.im.numerator) / np.longdouble(coeff.im.denominator)
        return np.clongdouble(re * scale) + np.clongdouble(1j) * np.clongdouble(im * scale)
    return coeff.to_complex()


def _reference_rows(P, vec, field):
    """Rows (width, component, last, prefactor, factors) of the value
    (field=False) or the vector field (field=True) at vec, in term order.

    A field row is one qbar_n derivative of a term, in component n, with
    prefactor -i n times the complex128 coefficient times the multiplicity
    of n; a value row is one term in component 0, in clongdouble.
    The factors are q_j for the plus slots, then conj(q_j) for the minus
    slots, and last indexes the last of them in concatenate(vec, conj(vec)).
    """
    dtype = np.complex128 if field else LONG_COMPLEX
    v = vec.astype(dtype)
    index = {j: i for i, j in enumerate(mode_range(P.truncation))}
    rows = []
    for mono, coeff in P.terms():
        if field:
            derivs = []
            for n in sorted(set(mono.minus)):
                rest = list(mono.minus)
                rest.remove(n)
                pref = _to_dtype_coeff(coeff.scaled(mono.minus.count(n)), dtype)
                derivs.append((index[n], (np.array([pref]) * np.array([-1j * n]))[0], rest))
        else:
            derivs = [(0, _to_dtype_coeff(coeff, dtype), mono.minus)]
        for comp, pref, minus in derivs:
            factors = [v[index[j]] for j in mono.plus] + [np.conj(v[index[j]]) for j in minus]
            slots = [index[j] for j in mono.plus] + [len(v) + index[j] for j in minus]
            rows.append((len(factors), comp, tuple(slots[-1:]), pref, factors))
    return rows


def _reference_sums(P, vec, field):
    """Reference for the row kernel, in its association: per width and
    component, each (component, last factor) segment's prefactors times its
    head columns (every factor but the last, multiplied left to right as
    arrays with numpy's native complex multiply) are summed by
    np.add.reduceat, the segment sums times their last factors are summed
    per component, by np.add.reduceat for the field and np.sum for the
    value, and the widths are added in ascending order.
    """
    rows = _reference_rows(P, vec, field)
    dtype = np.complex128 if field else LONG_COMPLEX
    segments: dict[tuple, list] = {}
    for row in rows:
        segments.setdefault(row[:3], []).append(row)
    total = np.zeros(len(vec) if field else 1, dtype=dtype)
    for width in sorted({key[0] for key in segments}):
        group = np.zeros_like(total)
        for comp in sorted({key[1] for key in segments if key[0] == width}):
            keys = sorted(key for key in segments if key[:2] == (width, comp))
            sums = []
            for key in keys:
                vals = np.array([r[3] for r in segments[key]], dtype=dtype)
                if width > 1:
                    vals = vals * reduce(np.multiply, np.array([r[4][:-1] for r in segments[key]], dtype=dtype).T)
                sums.append(np.add.reduceat(vals, [0])[0])
            sums = np.array(sums, dtype=dtype)
            if width:
                sums = sums * np.array([segments[key][0][4][-1] for key in keys], dtype=dtype)
            group[comp] = np.add.reduceat(sums, [0])[0] if field else np.sum(sums)
        total = total + group
    return total


def _scalar_reference_gradient(P, vec):
    """Per-term complex128 reference for the qbar gradient, which the field
    weights by -i j: each row multiplies all its factors left to right as
    Python complex scalars, then its prefactor, and the rows of one
    component are summed.
    """
    index = {j: i for i, j in enumerate(mode_range(P.truncation))}
    out = np.zeros(len(vec), dtype=np.complex128)
    for mono, coeff in P.terms():
        for n in sorted(set(mono.minus)):
            rest = list(mono.minus)
            rest.remove(n)
            factors = [complex(vec[index[j]]) for j in mono.plus]
            factors += [complex(vec[index[j]]).conjugate() for j in rest]
            pref = _to_dtype_coeff(coeff.scaled(mono.minus.count(n)), np.complex128)
            out[index[n]] += pref * reduce(mul, factors, 1)
    return out


@lru_cache(maxsize=None)
def _kernel_poly(name):
    from dnls_nflab.order4 import build_F4, compute_R6
    from dnls_nflab.order6 import build_F6

    if name == "degree1":
        return PolyHamiltonian.from_terms(
            4,
            [
                (Monomial.of((), (1,)), ExactCoeff(Fraction(1, 3), Fraction(-2, 5))),
                (Monomial.of((), (-3,)), ExactCoeff.real(Fraction(7, 2), pi_power=1)),
                (Monomial.of((2,), ()), ExactCoeff.imag(Fraction(3, 7), pi_power=1)),
            ],
        )
    if name == "lambda":
        return build_lambda(4)
    if name == "F4":
        return build_F4(4)
    if name == "mixed":
        # three factor counts in one polynomial
        return _kernel_poly("degree1") + build_lambda(4) + build_F4(4)
    if name == "ladder_F6":
        # the ladder's own generator: M = 6, 12044 field rows of width 5
        from dnls_nflab.flows import normal_form_bundle

        return normal_form_bundle(6).F6
    return build_F6(4, compute_R6(4))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("name", ["degree1", "lambda", "F4", "F6", "mixed", "ladder_F6"])
def test_row_kernel_matches_per_term_reference(name, dtype):
    # the kernel and the reference take the same association, so the
    # result is bit-identical, not merely close.  Whatever the state's
    # dtype, the field is complex128, taken at the state rounded to
    # complex128, and the value is clongdouble.
    P = _kernel_poly(name)
    rng = np.random.default_rng(21)
    n = len(mode_range(P.truncation))
    base = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    vec = base.astype(dtype) / np.dtype(dtype).type(3)
    field = vector_field_vec(P, vec)
    value = evaluate_poly(P, vec)
    assert field.dtype == np.complex128
    assert value.dtype == LONG_COMPLEX
    assert value == _reference_sums(P, vec, field=False)[0]
    assert np.array_equal(field, _reference_sums(P, vec, field=True))
    # against a per-term product in Python's scalar complex multiply, whose
    # rounding and association the kernel need not share
    low = vec.astype(np.complex128)
    want = -1j * np.array(mode_range(P.truncation)) * _scalar_reference_gradient(P, low)
    assert np.linalg.norm(field - want) <= 1e-14 * np.linalg.norm(want)


def _reference_groups(P, field):
    """The width groups of a per-row loop over terms(): each term in turn,
    and for the field each distinct minus entry n of it, ascending, gives a
    row (component, prefactor, factors), the prefactor _to_dtype_coeff of
    the coefficient times the multiplicity of n.  Each width's rows are
    stably sorted by (component, last factor), the field's prefactors are
    multiplied by -i n, and _width_group forms the group.
    """
    from dnls_nflab.poly import _width_group

    dtype = np.complex128 if field else LONG_COMPLEX
    modes = mode_range(P.truncation)
    index = {j: i for i, j in enumerate(modes)}
    by_width = {}
    for mono, coeff in P.terms():
        derivs = [(0, 1, mono.minus)]
        if field:
            derivs = [
                (index[n], mono.minus.count(n), mono.minus[:k] + mono.minus[k + 1 :])
                for k, n in enumerate(mono.minus)
                if n not in mono.minus[:k]
            ]
        for comp, mult, minus in derivs:
            factors = [index[j] for j in mono.plus] + [len(modes) + index[j] for j in minus]
            pref = _to_dtype_coeff(coeff.scaled(mult), dtype)
            by_width.setdefault(len(factors), []).append((comp, pref, factors))
    groups = []
    for width, rows in sorted(by_width.items()):
        comp = np.array([r[0] for r in rows], dtype=np.intp)
        pref = np.array([r[1] for r in rows], dtype=dtype)
        factors = np.array([r[2] for r in rows], dtype=np.intp).reshape(len(rows), width)
        order = np.lexsort((factors[:, -1] if width else comp, comp))
        comp, pref, factors = comp[order], pref[order], factors[order]
        if field:
            pref *= -1j * np.array(modes)[comp]
        groups.append(_width_group(width, comp, pref, factors, len(modes) if field else 1))
    return groups


def _assert_same_arrays(got, want, path="groups"):
    """Equal nesting, equal scalars and slices, and arrays of one dtype and
    shape, equal bit for bit: a complex value also in its zeros' signs."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, path
        assert np.array_equal(got, want), path
        if want.dtype.kind == "c":
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part))), path
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same_arrays(a, b, f"{path}[{k}]")
    else:
        assert type(got) is type(want) and got == want, path


def _table_poly():
    """At M = 3, 400 random monomials of up to three plus and three minus
    slots, inserted in a shuffled order, with parts from 0 to numerators
    and denominators past 2**64 and pi powers 0, 1 and 2, and some chosen
    terms: width-0 rows of both forms, minus multiplicities 2 and 3, and two
    terms of one degree whose field rows share a segment while their plus
    slots, (-2,) and (-2, -1), sort by length."""
    rng = np.random.default_rng(29)
    parts = [
        Fraction(0),
        Fraction(1, 3),
        Fraction(-7, 2),
        # past 2**53 and 2**64, where float(num mult) / float(den) is off
        # for mult = 1, 2 and 3, and true division is not
        Fraction(8788444088577677, 16092568269997993),
        Fraction(-52285821743603973653, 82952357057965791015),
        Fraction(2**64 + 13, 2**65 + 7),
        Fraction(-(2**70) - 1, 11),
    ]
    modes = [j for j in range(-3, 4) if j]
    chosen = [((), ()), ((), (2,)), ((3,), ()), ((1,), (2, 2, 2)), ((), (-3, -3))]
    chosen += [((-2,), (-1, 1, 3)), ((-2, -1), (1, 3))]
    draws = [rng.integers(0, 4, size=2) for _ in range(400)]
    slots = [tuple(tuple(sorted(rng.choice(modes, k).tolist())) for k in ks) for ks in draws]
    coeffs = {}
    for plus, minus in chosen + slots:
        re, im = rng.integers(len(parts), size=2)
        coeffs[Monomial(plus, minus)] = ExactCoeff(parts[re], parts[im], int(rng.integers(3)))
    items = list(coeffs.items())
    rng.shuffle(items)
    return PolyHamiltonian(3, dict(items))


@pytest.mark.parametrize("field", [False, True])
@pytest.mark.parametrize("name", ["table", "mixed", "F6"])
def test_compiled_groups_match_the_per_row_loop(name, field):
    # the term-table compile reproduces every array of the per-row loop it
    # replaced: prefactors and their dtype, row order, segments and plan
    from dnls_nflab.poly import _compile_rows

    P = _table_poly() if name == "table" else _kernel_poly(name)
    groups, ext = _compile_rows(P, field)
    want = _reference_groups(P, field)
    assert ext.dtype == (np.complex128 if field else LONG_COMPLEX)
    _assert_same_arrays([g[:8] for g in groups], [w[:8] for w in want])
    assert [[(w.dtype, w.shape) for w in g[8]] for g in groups] == [[(w.dtype, w.shape) for w in g[8]] for g in want]
    if name == "table":
        # the shuffle leaves terms() order to the compile, and some segment
        # holds several rows, whose order the sums keep
        assert list(P._coeffs) != [m for m, _ in P.terms()]
        assert any(np.diff(np.r_[g[3], len(g[4])]).max() > 2 for g in groups)
        assert groups[0][0] == 0 and {g[0] for g in groups} >= {0, 1, 2, 3, 4, 5}


@pytest.mark.slow
def test_m8_f6_field_matches_per_term_reference_bitwise():
    from dnls_nflab.flows import normal_form_bundle
    from dnls_nflab.poly import _compile_rows

    P = normal_form_bundle(8).F6
    rng = np.random.default_rng(8)
    n = len(mode_range(8))
    vec = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    want = _reference_groups(P, field=True)
    _assert_same_arrays([g[:8] for g in _compile_rows(P, True)[0]], [w[:8] for w in want])
    field = vector_field_vec(P, vec)
    _assert_same_arrays(field, _reference_sums(P, vec, field=True))


@pytest.mark.parametrize("size", [10, 14])
def test_a_state_of_the_wrong_length_is_refused(size):
    # at M = 6 the state has 12 entries; a short or a long one must raise,
    # not be read through clipped indices into a field and a value
    from dnls_nflab.order4 import build_F4

    P = build_F4(6)
    vec = np.full(size, 0.1 + 0.2j)
    for kernel in (vector_field_vec, evaluate_poly):
        with pytest.raises(ValueError, match=rf"shape \({size},\).*truncation 6.*12 entries"):
            kernel(P, vec)
    with pytest.raises(ValueError, match=r"shape \(2, 12\)"):
        vector_field_vec(P, np.zeros((2, 12), dtype=complex))
    assert vector_field_vec(P, np.zeros(12)).shape == (12,)


# -- serialization ------------------------------------------------------------------


def poly_from_records(records: list[dict], truncation: int) -> PolyHamiltonian:
    """The polynomial of poly_to_records' rows, the inverse the round trips check."""
    items = []
    for row in records:
        mono = Monomial.of(row["plus"], row["minus"])
        coeff = ExactCoeff(Fraction(row["re"]), Fraction(row["im"]), int(row["pi_power"]))
        items.append((mono, coeff))
    return PolyHamiltonian.from_terms(truncation, items)


def test_records_roundtrip():
    from dnls_nflab.order4 import build_F4

    F = build_F4(4)
    back = poly_from_records(poly_to_records(F), 4)
    assert back == F


def test_constant_monomial_truncates_and_roundtrips():
    q1 = PolyHamiltonian.from_terms(1, [(Monomial.of((1,), ()), ExactCoeff.real(1))])
    qbar1 = PolyHamiltonian.from_terms(1, [(Monomial.of((), (1,)), ExactCoeff.real(1))])
    one = Monomial.of((), ())
    assert one.max_abs() == 0
    const = bracket(q1, qbar1).with_truncation(1)
    assert const == PolyHamiltonian.from_terms(1, [(one, ExactCoeff.imag(-1))])
    assert poly_from_records(poly_to_records(const), 1) == const


def test_golden_quartic_records():
    expected = json.loads((GOLDEN / "quartic_energy_m3.json").read_text())
    assert poly_to_records(build_G(3)) == expected


def test_ordered_coefficient():
    G = build_G(4)
    c = ordered_coefficient(G, (1, 2, 4, 3))
    assert c == ExactCoeff.real(Fraction(1, 4), pi_power=1)
