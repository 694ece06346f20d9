import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dnls_nflab import order6
from dnls_nflab.checks import action_part, order4_homological, order6_homological, resonant_cancellation
from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.identities import TriplePair, tau
from dnls_nflab.order4 import build_F4, coefficient_growth_audit, compute_R6
from dnls_nflab.order6 import (
    build_F6,
    build_K,
    build_Qtilde0,
    enumerate_resonant,
    exhaustive_sextuple_audit,
    iter_resonant_monomials,
    qtilde0_crosscheck,
    random_sextuple_audit,
    sextuple_bound_check,
    sextuple_kernel,
    split_r6,
    tau_bound_check,
    verify_Ktilde_zero,
)
from dnls_nflab.poly import (
    Monomial,
    PolyHamiltonian,
    build_G,
    build_Q,
    poly_to_records,
    split_normal,
)
from dnls_nflab.states import alternating_sum, zero_momentum_rows
from helpers import pair_matches

GOLDEN = Path(__file__).parent / "golden"


def _records_digest(P) -> str:
    text = json.dumps(poly_to_records(P), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_records_match_golden_digests(r6_at_8):
    golden = json.loads((GOLDEN / "exact_m6_sha256.json").read_text())
    M = golden["M"]
    r6 = compute_R6(M)
    built = {
        "compute_R6": r6,
        "build_F6": build_F6(M, r6),
        "build_K": build_K(M),
        "compute_R6_M8": r6_at_8,
        "build_F6_M8": build_F6(8, r6_at_8),
        "build_G": build_G(M),
        "build_Q": build_Q(M),
        "build_Q_3M": build_Q(M, 3 * M),
        "build_F4": build_F4(M),
        "build_F4_3M": build_F4(M, 3 * M),
    }
    assert set(built) == set(golden) - {"M", "digest"}
    assert {name: _records_digest(P) for name, P in built.items()} == {name: golden[name] for name in built}


# -- tau -------------------------------------------------------------------------


def test_tau_examples():
    assert tau(2, 1, 3) == 2
    assert tau(2, 1, 3) + tau(1, 3, 2) + tau(3, 2, 1) == 0


def test_tau_pole_guard():
    with pytest.raises(ZeroDivisionError):
        tau(1, 1, 3)
    with pytest.raises(ZeroDivisionError):
        tau(2, 3, 3)


def test_tau_two_forms_agree():
    for j, k, l in itertools.product(range(-6, 7), repeat=3):
        if 0 in (j, k) or j == k or l == k:
            continue
        m = j - k + l
        denom = j * j - k * k + l * l - m * m
        assert denom != 0
        assert tau(j, k, l) == Fraction(-2 * (j - k + l), denom)


def test_tau_kernel_form():
    # middle-slot repetition gives the closed sextic kernel
    for j, k in itertools.product(range(-5, 6), repeat=2):
        if 0 in (j, k) or j == k:
            continue
        assert tau(j, k, j) == Fraction(2 * j - k, (j - k) ** 2)


def test_tau_cyclic_identity_exhaustive():
    for j, k, l in itertools.product(range(-8, 9), repeat=3):
        if len({j, k, l}) < 3:
            continue
        assert tau(j, k, l) + tau(k, l, j) + tau(l, j, k) == 0


# -- K ----------------------------------------------------------------------------


def test_K_kernel_values():
    K = build_K(4)
    assert K.coefficient(Monomial.of((2, 2, 1), (2, 2, 1))) == ExactCoeff.real(
        Fraction(-3, 8), pi_power=2
    )
    # 2j - k = 0 kills the coefficient
    assert K.coefficient(Monomial.of((1, 1, 2), (1, 1, 2))).is_zero


def test_K_is_action_only():
    for mono, _ in build_K(5).terms():
        assert mono.is_normal()


# -- resonant set ------------------------------------------------------------------


def test_resonant_smallest_members():
    assert enumerate_resonant(1) == []
    # sign-mixed members exist from max index 2 on
    two = enumerate_resonant(2)
    assert any(
        pair_matches(TriplePair.of(t[0::2], t[1::2]), (1, 1, -2), (-1, -1, 2))
        for t in two
    )
    # the smallest all-positive member needs repeats and max index 5
    five = enumerate_resonant(5)
    assert any(
        pair_matches(TriplePair.of(t[0::2], t[1::2]), (1, 4, 4), (2, 2, 5))
        for t in five
    )
    for t in five:
        assert alternating_sum(t, 2) == 0
        with pytest.raises(ValueError):
            sextuple_bound_check(t)  # resonants are outside the bound's domain


def test_resonant_contains_known_member_at_seven():
    assert any(
        pair_matches(TriplePair.of(t[0::2], t[1::2]), (1, 5, 6), (2, 3, 7))
        for t in enumerate_resonant(7)
    )


# classes and monomials of the resonant set for M = 1..8
RESONANT_COUNTS = [(0, 0), (1, 2), (2, 4), (4, 8), (9, 24), (17, 50), (29, 92), (47, 156)]


@pytest.mark.parametrize("M", range(1, 9))
def test_resonant_counts(M):
    classes, monomials = RESONANT_COUNTS[M - 1]
    assert len(enumerate_resonant(M)) == classes
    monos = list(iter_resonant_monomials(M))
    assert len(monos) == len(set(monos)) == monomials
    # each class contributes its representative as a monomial
    assert {Monomial.of(t[0::2], t[1::2]) for t in enumerate_resonant(M)} <= set(monos)


def test_resonant_monomials_disjoint_slots():
    for mono in iter_resonant_monomials(6):
        assert not set(mono.plus) & set(mono.minus)
        assert mono.momentum() == 0
        assert mono.square_divisor() == 0


def test_ktilde_zero_small(r6_at_8):
    rep = verify_Ktilde_zero(8, r6_at_8)
    assert rep.passed
    assert rep.checked > 50


def test_ktilde_example_monomial(r6_at_8):
    mono = Monomial.of((1, 5, 6), (2, 3, 7))
    assert r6_at_8.coefficient(mono).is_zero


# -- negative controls: one wrong coefficient in R6 is caught -------------------------


def _with_term(r6, mono, coeff):
    return r6 + PolyHamiltonian.from_terms(r6.truncation, [(mono, coeff)])


def test_resonant_check_names_a_resonant_term_added_to_r6(r6_at_8):
    mono = Monomial.of((1, 5, 6), (2, 3, 7))
    coeff = ExactCoeff.real(Fraction(1, 10**9), pi_power=2)
    rep = verify_Ktilde_zero(8, _with_term(r6_at_8, mono, coeff))
    assert not rep.passed
    assert rep.coefficient_violations == [(mono, coeff)]
    assert rep.structural_violations == [(mono, coeff)]
    assert rep.tau_sum_failures == []
    assert not resonant_cancellation(8, _with_term(r6_at_8, mono, coeff)).passed


def test_action_part_check_fails_on_a_normal_term_added_to_r6(r6_at_8):
    mono = Monomial.of((1, 1, 3), (1, 1, 3))
    assert not r6_at_8.coefficient(mono).is_zero
    bad = _with_term(r6_at_8, mono, ExactCoeff.real(Fraction(1, 10**9), pi_power=2))
    check = action_part(8, bad)
    assert action_part(8, r6_at_8).passed and not check.passed
    normal, _, K = check.report
    assert [m for m, c in normal.terms() if K.coefficient(m) != c] == [mono]


def test_reducible_crosscheck_fails_on_one_changed_coefficient(r6_at_8):
    M = n = 8
    _, qtilde = split_r6(r6_at_8)
    mono = next(m for m, _ in qtilde.terms() if m.plus.count(n) == 1 and m.minus.count(n) == 1)
    delta = ExactCoeff.real(Fraction(1, 10**9), pi_power=2)
    rep = qtilde0_crosscheck(M, n, _with_term(r6_at_8, mono, delta))
    assert not rep.passed
    assert rep.mismatches == [(mono, qtilde.coefficient(mono) + delta, qtilde.coefficient(mono))]


# -- generator --------------------------------------------------------------------


def test_f6_supported_off_resonance(r6_at_8):
    F6 = build_F6(8, r6_at_8)
    assert F6.is_real_valued()
    for mono, _ in F6.terms():
        assert mono.square_divisor() != 0
        assert not mono.is_normal()


@pytest.mark.slow
def test_criteria_1_to_3_at_m12():
    # the homological equations, the resonant cancellation and the closed
    # action part at a truncation beyond the acceptance suite's M = 10
    M = 12
    r6 = compute_R6(M)
    assert r6.num_terms == 136_872
    assert order4_homological(M).passed
    assert order6_homological(M, r6).passed
    rep = resonant_cancellation(M, r6).report
    assert rep.passed and rep.checked == 712
    assert action_part(M, r6).passed


def test_build_F6_refuses_resonant_survivor():
    bad = PolyHamiltonian.from_terms(
        8,
        [
            (Monomial.of((1, 5, 6), (2, 3, 7)), ExactCoeff.real(1, pi_power=2)),
        ],
    )
    with pytest.raises(ArithmeticError, match=r"q\[1, 5, 6\]\*qbar\[2, 3, 7\]"):
        build_F6(8, bad)
    # the cached split still holds the survivor, so a second build refuses it too
    with pytest.raises(ArithmeticError):
        build_F6(8, bad)


def test_build_F6_rejects_r6_beyond_its_truncation():
    with pytest.raises(ValueError):
        build_F6(3, compute_R6(4))


def test_split_r6_is_computed_once_and_equals_split_normal(r6_at_8):
    split = split_r6(r6_at_8)
    assert split_r6(r6_at_8) is split
    assert split == split_normal(r6_at_8)


def test_f6_growth_audit_regression(r6_at_8):
    # empirical minimal constant for the steep-head coefficient shape at M=8,
    # frozen as a regression baseline (the bound only claims existence)
    rep = coefficient_growth_audit(build_F6(8, r6_at_8), Fraction(5, 2), Fraction(7, 2))
    assert rep.constant_raw == pytest.approx(0.06478175736883228, rel=1e-9)


# -- sextuple bound ----------------------------------------------------------------


def test_sextuple_bound_example():
    rep = sextuple_bound_check((5, 4, 2, 3, 1, 1))
    assert rep.divisor == 4
    assert not rep.excluded
    assert rep.holds
    # bound value: 125 / (100 * (4*3*2*1*1)^2) vs divisor 4
    assert 100 * 4 * (4 * 3 * 2 * 1 * 1) ** 2 >= 125


def test_sextuple_excluded_case():
    n = 10**6
    rep = sextuple_bound_check((n, n, 1, 2, 3, 2))
    assert rep.excluded
    assert rep.holds is None


def test_sextuple_rejects_resonant():
    with pytest.raises(ValueError):
        sextuple_bound_check((1, 2, 4, 2, 4, 5))


def test_exhaustive_sextuple_bound_small():
    rep = exhaustive_sextuple_audit(6)
    assert rep["violations"] == []
    assert rep["excluded"] == 0
    assert rep["checked"] == 111324


def test_exhaustive_sextuple_audit_overflow_guard(no_grid):
    # the enumerator refuses a radius whose chunk of one j1 would hold more
    # than 46^4 candidate rows, before it builds its grid
    with pytest.raises(ValueError, match="max_abs=24: one chunk of width 6 would hold 5308416 candidate rows"):
        exhaustive_sextuple_audit(24)


def test_random_sextuple_bound():
    rep = random_sextuple_audit(2000, 500, seed=3)
    assert rep["violations"] == []


def test_random_sextuple_audit_radius():
    # entries of modulus 1 only give resonant sextuples: nothing to sample
    with pytest.raises(ValueError):
        random_sextuple_audit(3, max_abs=1, seed=0)
    assert random_sextuple_audit(50, max_abs=2, seed=0)["checked"] == 50


def _sextuple_reference(t):
    """Divisor, stars, exclusion and bound of one sextuple, in scalar form."""
    d = sum((1 if i % 2 == 0 else -1) * v * v for i, v in enumerate(t))
    plus, minus = t[0::2], t[1::2]
    stars = tuple(sorted((abs(v) for v in t), reverse=True))
    top = stars[0]
    shared = any(v in plus and v in minus for v in (top, -top))
    excluded = shared and top > 100 * stars[2] ** 2
    tail = stars[1] * stars[2] * stars[3] * stars[4] * stars[5]
    holds = 100 * abs(d) * tail * tail >= top**3
    return d, stars, excluded, holds


def _kernel_rows(kernel):
    d, stars, excluded, holds = kernel
    return [
        (int(d[i]), tuple(int(v) for v in stars[i]), bool(excluded[i]), bool(holds[i]))
        for i in range(len(d))
    ]


def test_sextuple_kernel_matches_scalar_reference():
    rows = np.concatenate(list(zero_momentum_rows(6, 5)))
    expected = [_sextuple_reference(tuple(int(v) for v in row)) for row in rows]
    assert _kernel_rows(sextuple_kernel(rows)) == expected
    assert _kernel_rows(sextuple_kernel(rows.astype(object))) == expected
    # the reducible family and its neighbours, at sizes past int64
    big = [(n, n, 1, 2, 3, 2) for n in (10**6, 10**20, -(10**20))]
    big += [(n, n, 2, 1, 1, 2) for n in (401, 400)]
    big += [(n, 1, 2, n, 3, 4) for n in (10**6, 10**20)]
    got = _kernel_rows(sextuple_kernel(np.array(big, dtype=object)))
    assert got == [_sextuple_reference(t) for t in big]
    assert [row[2] for row in got] == [True, True, True, True, False, True, True]


def _per_candidate_sextuples(n_samples, max_abs, seed):
    """The accepted draws of a loop that draws one candidate per rng call."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    out = []
    while len(out) < n_samples:
        vals = [int(v) for v in rng.integers(-max_abs, max_abs + 1, size=5)]
        if any(v == 0 for v in vals):
            continue
        j6 = vals[0] - vals[1] + vals[2] - vals[3] + vals[4]
        if j6 == 0 or abs(j6) > max_abs:
            continue
        t = (*vals, j6)
        if alternating_sum(t, 2) != 0:
            out.append(t)
    return out


@pytest.mark.parametrize(
    "n_samples,max_abs,seed", [(50, 2, 0), (6000, 2, 4), (2000, 500, 3), (10_000, 1000, 11)]
)
def test_random_sextuple_audit_checks_the_per_candidate_draws(
    monkeypatch, n_samples, max_abs, seed
):
    checked = []

    def recording(rows):
        checked.extend(tuple(row) for row in rows)
        return sextuple_kernel(rows)

    monkeypatch.setattr(order6, "sextuple_kernel", recording)
    rep = random_sextuple_audit(n_samples, max_abs, seed=seed)
    assert rep["checked"] == n_samples
    assert checked == _per_candidate_sextuples(n_samples, max_abs, seed)


# -- reducible closed form ------------------------------------------------------------


def test_qtilde0_crosscheck_exact(r6_at_8):
    rep = qtilde0_crosscheck(8, 8, r6_at_8)
    assert rep.passed
    assert rep.n_compared > 100
    assert rep.regime_satisfied is False  # desk scale cannot reach the regime


def test_qtilde0_crosscheck_negative_mode(r6_at_8):
    rep = qtilde0_crosscheck(8, -8, r6_at_8)
    assert rep.passed


def test_qtilde0_symmetric_window_tuple():
    # window quadruples with a repeated unbarred mode engage the degenerate
    # multiplicity weights; agreement must still be exact
    M, n = 6, 6
    r6 = compute_R6(M)
    rep = qtilde0_crosscheck(M, n, r6)
    assert rep.passed
    q0 = build_Qtilde0(M, n)
    sym = [
        mono
        for mono, _ in q0.terms()
        if len(set(mono.plus)) < 3 or len(set(mono.minus)) < 3
    ]
    assert sym, "symmetric window tuples must occur in the comparison"


def test_tau_bound_examples():
    assert tau_bound_check(3, 1, 2, 4, 10**4)
    assert tau_bound_check(3, 1, 2, 4, 10**6)
    assert tau_bound_check(3, 1, 2, 4, -(10**4))
    with pytest.raises(ValueError):
        tau_bound_check(3, 1, 2, 4, 100)  # regime violated


def test_tau_bound_values_small():
    n = 10**4
    for a, b in ((3, 1), (3, 2), (1, 4)):
        assert abs(tau(a, n, b)) < Fraction(2, n)
