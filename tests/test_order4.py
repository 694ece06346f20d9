import math
from fractions import Fraction

import numpy as np
import pytest

from dnls_nflab import order4
from dnls_nflab.checks import order4_homological
from dnls_nflab.coeffs import ExactCoeff
from dnls_nflab.order4 import (
    build_F4,
    closed_form_bf,
    closed_form_qf_half,
    coefficient_growth_audit,
    compute_R6,
    divisor_bound_check,
    QUAD_INT64_MAX_ABS,
    delta_rows,
    exhaustive_divisor_audit,
    f4_coefficient_bound_audit,
    in_delta,
    iter_delta,
    quad_kernel,
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
from dnls_nflab.states import alternating_sum


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
        d = alternating_sum(t, 2)
        assert d == -2 * (m - j) * (m - l) == -2 * (m - j) * (j - k)
        assert d != 0


def test_iter_delta_matches_brute_force():
    for max_abs in (1, 2, 5):
        values = [v for v in range(-max_abs, max_abs + 1) if v != 0]
        expected = [
            (j, k, l, j - k + l)
            for j in values
            for k in values
            for l in values
            if abs(j - k + l) <= max_abs and in_delta(j, k, l, j - k + l)
        ]
        got = list(iter_delta(max_abs))
        assert got == expected
        assert all(type(v) is int for t in got for v in t)
        # one chunk per j, each int64 in Fortran order: the columns are contiguous
        chunks = list(delta_rows(max_abs))
        assert [tuple(r) for c in chunks for r in c.tolist()] == expected
        assert all(c.dtype == np.int64 and c.flags.f_contiguous for c in chunks)


def test_exhaustive_divisor_audit_small():
    rep = exhaustive_divisor_audit(12)
    assert rep["violations"] == []
    assert rep["checked"] > 4000


def test_exhaustive_divisor_audit_runs_int64_chunks_per_j(monkeypatch):
    chunks = []

    def recording(rows):
        chunks.append(rows)
        return quad_kernel(rows)

    monkeypatch.setattr(order4, "quad_kernel", recording)
    rep = exhaustive_divisor_audit(20)
    assert rep["checked"] == 38000 and rep["violations"] == []
    assert len(chunks) == 40 and all(c.dtype == np.int64 for c in chunks)
    assert [c[0, 0] for c in chunks] == [j for j in range(-20, 21) if j]
    assert [tuple(r) for c in chunks for r in c.tolist()] == list(iter_delta(20))


def test_exhaustive_divisor_violations_hold_python_ints(monkeypatch):
    # flag every third row as failing to reach the report path
    def failing(rows):
        d, holds, fact_ok = quad_kernel(rows)
        holds = holds.copy()
        holds[::3] = False
        return d, holds, fact_ok

    monkeypatch.setattr(order4, "quad_kernel", failing)
    rep = exhaustive_divisor_audit(4)
    assert rep["violations"]
    for v in rep["violations"]:
        assert all(type(x) is int for x in v.tuple) and type(v.divisor) is int
        assert v.divisor == alternating_sum(v.tuple, 2)
        assert not v.holds and v.factorization_ok


def test_exhaustive_divisor_audit_int64_guard():
    int64_max = np.iinfo(np.int64).max
    assert 16 * QUAD_INT64_MAX_ABS**7 <= int64_max < 16 * (QUAD_INT64_MAX_ABS + 1) ** 7
    with pytest.raises(OverflowError):
        exhaustive_divisor_audit(QUAD_INT64_MAX_ABS + 1)
    # rows at the guard radius compute in int64 what Python ints give
    rows = next(delta_rows(QUAD_INT64_MAX_ABS))[-50:]
    got = quad_kernel(rows)
    want = quad_kernel(rows.astype(object))
    assert all(np.array_equal(a.astype(object), b) for a, b in zip(got, want))


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


def _quad_reference(t):
    """Divisor, bound and factorization of one quadruple, in scalar form."""
    j, k, l, m = t
    d = j * j - k * k + l * l - m * m
    stars = sorted(map(abs, t), reverse=True)
    holds = stars[0] ** 3 <= 4 * d * d * stars[1] * stars[2] * stars[3]
    fact_ok = d == -2 * (m - j) * (m - l) and d == -2 * (m - j) * (j - k)
    return d, holds, fact_ok


def test_quad_kernel_matches_scalar_reference():
    tuples = list(iter_delta(10))
    expected = [_quad_reference(t) for t in tuples]
    for dtype in (np.int64, object):
        d, holds, fact_ok = quad_kernel(np.array(tuples, dtype=dtype))
        assert [(int(a), bool(b), bool(c)) for a, b, c in zip(d, holds, fact_ok)] == expected
    # object rows stay exact far beyond int64
    big = [(3 * 10**12, 10**12, 2 * 10**12, 4 * 10**12), (10**20, 1, -(10**20) + 2, 1)]
    d, holds, fact_ok = quad_kernel(np.array(big, dtype=object))
    assert [(a, bool(b), bool(c)) for a, b, c in zip(d, holds, fact_ok)] == [
        _quad_reference(t) for t in big
    ]


def _per_candidate_quadruples(n_samples, max_abs, seed):
    """The accepted draws of a loop that draws one candidate per rng call."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    out = []
    while len(out) < n_samples:
        j, k, l = (int(v) for v in rng.integers(-max_abs, max_abs + 1, size=3))
        m = j - k + l
        if 0 in (j, k, l) or m == 0 or abs(m) > max_abs or j in (k, m):
            continue
        out.append((j, k, l, m))
    return out


@pytest.mark.parametrize(
    "n_samples,max_abs,seed", [(50, 2, 0), (9000, 2, 4), (3000, 10_000, 5), (10_000, 37, 11)]
)
def test_random_divisor_audit_checks_the_per_candidate_draws(monkeypatch, n_samples, max_abs, seed):
    checked = []

    def recording(rows):
        checked.extend(tuple(row) for row in rows)
        return quad_kernel(rows)

    monkeypatch.setattr(order4, "quad_kernel", recording)
    rep = random_divisor_audit(n_samples, max_abs, seed=seed)
    assert rep["checked"] == n_samples
    assert checked == _per_candidate_quadruples(n_samples, max_abs, seed)


# -- generator -------------------------------------------------------------------


def test_f4_ordered_coefficient_example():
    F = build_F4(4)
    c = ordered_coefficient(F, (3, 1, 2, 4))
    assert c == ExactCoeff.imag(Fraction(-1, 16), pi_power=1)


def test_f4_real_valued_and_solves_homological_equation():
    for M in (2, 4, 6, 8):
        assert build_F4(M).is_real_valued()
        assert order4_homological(M).passed


@pytest.mark.parametrize("M", [3, 4])
def test_window_builders_are_restricted_extended_builders(M):
    # the enlarged-window terms all carry one mode outside [1, M]
    Qx = build_Q(M, 3 * M)
    Fx = build_F4(M, 3 * M)
    assert Qx.truncation == Fx.truncation == 3 * M
    assert build_Q(M) == Qx.with_truncation(M)
    assert build_F4(M) == Fx.with_truncation(M)
    assert Qx.num_terms > build_Q(M).num_terms


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
    d = alternating_sum((j, k, l, m), 2)
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
