import itertools
import json
import math
from functools import partial

import numpy as np
import pytest

from dnls_nflab import order4, order6, stability
from dnls_nflab.flows import FlowConfig, evolve_vec, spectral_model
from dnls_nflab.order4 import delta_rows, iter_delta, quad_kernel
from dnls_nflab.order6 import sextuple_kernel
from dnls_nflab.stability import omega_kernel
from dnls_nflab.states import (
    INT64_MAX,
    MAX_VIOLATIONS,
    SAMPLE_BLOCK,
    alternating_sum,
    eval_physical,
    hamiltonian_physical,
    int64_radius,
    leading_stars,
    mode_range,
    random_zero_momentum_rows,
    rejection_sample,
    state_from_json,
    state_to_json,
    state_vector,
    zero_momentum_max_abs,
    zero_momentum_rows,
)

TWO_PI = 2 * math.pi


def test_mode_zero_rejected():
    with pytest.raises(ValueError, match="mode 0 is not part of the phase space"):
        state_vector({0: 1.0}, 4)


def test_truncation_enforced():
    with pytest.raises(ValueError, match="mode 5 exceeds truncation 4"):
        state_vector({5: 1.0}, 4)
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        state_vector({}, 0)
    with pytest.raises(TypeError):
        state_vector({1.5: 1.0}, 4)


def test_zero_amplitudes_dropped():
    vec = state_vector({1: 0.0, 2: 1.0}, 4)
    assert json.loads(state_to_json(vec)) == [{"j": 2, "re": 1.0, "im": 0.0}]


def _s_norm(vec, s):
    return math.sqrt(spectral_model(len(vec) // 2).sobolev_sq(vec, s))


def test_sobolev_examples():
    assert _s_norm(np.zeros(8, dtype=complex), 2.0) == 0.0
    assert _s_norm(state_vector({1: 1.0}, 4), 7.3) == pytest.approx(1.0)
    assert _s_norm(state_vector({1: 1.0, -2: 2j}, 4), 1.0) == pytest.approx(math.sqrt(17))


def test_sobolev_monotone_in_s():
    vec = state_vector({1: 0.3, -2: 0.1j, 3: 0.05}, 4)
    values = [_s_norm(vec, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sobolev_rejects_negative_s():
    with pytest.raises(ValueError, match="Sobolev index must be nonnegative"):
        _s_norm(np.zeros(4, dtype=complex), -1.0)


def test_eval_physical_examples():
    assert eval_physical(state_vector({1: math.sqrt(TWO_PI)}, 2), 0.0) == pytest.approx(1.0)
    assert eval_physical(np.zeros(4, dtype=complex), 1.234) == 0
    st2 = state_vector({1: 1.0, -1: 1.0}, 2)
    assert abs(eval_physical(st2, math.pi / 2)) == pytest.approx(0.0, abs=1e-15)


def test_eval_physical_periodic():
    vec = state_vector({1: 0.5, -2: 0.25j, 3: 0.125}, 4)
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(
        eval_physical(vec, xs), eval_physical(vec, xs + TWO_PI), rtol=0, atol=1e-12
    )


def _channels(vec):
    """The conserved channels of vec, the t = 0 record of evolve_vec."""
    _, channels, _, _ = evolve_vec(vec, len(vec) // 2, FlowConfig(t_end=0.0))
    return {name: float(values[0]) for name, values in channels.items()}


def test_lambda_examples():
    # the momentum channel is Lambda = sum of j |q_j|^2
    assert _channels(state_vector({1: 1.0, -2: 2j}, 4))["momentum"] == pytest.approx(-7.0)
    assert _channels(np.zeros(8, dtype=complex))["momentum"] == 0.0
    assert _channels(state_vector({3: 0.5j}, 4))["momentum"] == pytest.approx(3 * 0.25)


def test_hamiltonian_single_mode():
    assert hamiltonian_physical(state_vector({1: 1.0}, 1), 5) == pytest.approx(1 + 1 / (4 * math.pi), rel=1e-12)


def test_hamiltonian_quadratic_dominance():
    eps = 1e-4
    h = hamiltonian_physical(state_vector({1: eps}, 1), 5)
    assert h == pytest.approx(eps**2, rel=1e-7)


def test_hamiltonian_matches_coefficient_space():
    # the energy channel, momentum + SpectralModel.quartic_energy, against the
    # physical-space integrals
    rng = np.random.default_rng(0)
    for M in (4, 8, 16):
        vec = 0.4 * (rng.normal(size=2 * M) + 1j * rng.normal(size=2 * M))
        h_phys = hamiltonian_physical(vec, 4 * M + 1)
        assert h_phys == pytest.approx(_channels(vec)["energy"], rel=1e-10, abs=1e-12)


def test_hamiltonian_quadrature_precondition():
    with pytest.raises(ValueError, match="need at least 17 quadrature points"):
        hamiltonian_physical(state_vector({1: 1.0}, 4), 4 * 4)


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros(5), np.zeros((2, 4))], ids=["empty", "odd", "2d"])
def test_physical_space_and_json_refuse_a_non_state_vector(bad):
    for call in (partial(eval_physical, x=0.0), partial(hamiltonian_physical, quadrature_points=25), state_to_json):
        with pytest.raises(ValueError, match="is not a state vector"):
            call(bad)


def test_grid_roundtrip_exact():
    # samples on 4M+1 points determine the coefficients exactly
    rng = np.random.default_rng(1)
    M = 6
    vec = rng.normal(size=2 * M) + 1j * rng.normal(size=2 * M)
    N = 4 * M + 1
    x = np.arange(N) * TWO_PI / N
    u = eval_physical(vec, x)
    for j, v in zip(mode_range(M), vec):
        coeff = np.sum(u * np.exp(-1j * j * x)) * (TWO_PI / N) / math.sqrt(TWO_PI)
        assert abs(coeff - v) < 1e-12


def test_json_roundtrip():
    vec = state_vector({1: 1 + 2j, -3: 0.5j, 2: 3.7e-23 - 1.2e-23j, -4: 5e-324}, 4)
    text = state_to_json(vec)
    assert [row["j"] for row in json.loads(text)] == [-4, -3, 1, 2]
    back = state_from_json(text, 4)
    assert back.dtype == complex and np.array_equal(back, vec)


def test_json_rejects_mode_zero_and_duplicates():
    with pytest.raises(ValueError, match="mode 0"):
        state_from_json('[{"j": 0, "re": 1, "im": 0}]', 4)
    with pytest.raises(ValueError, match="duplicate mode 1"):
        state_from_json(
            '[{"j": 1, "re": 1, "im": 0}, {"j": 1, "re": 2, "im": 0}]', 4
        )


def test_vector_roundtrip():
    # state_vector puts each amplitude at its mode's index in mode_range(M)
    amplitudes = {2: 1j, -1: 0.25}
    vec = state_vector(amplitudes, 3)
    assert vec.dtype == complex and vec.tolist() == [0, 0, 0.25, 0, 1j, 0]
    assert {j: v for j, v in zip(mode_range(3), vec.tolist()) if v} == amplitudes


# -- index sets and sampling ------------------------------------------------------------


@pytest.mark.parametrize("width", [4, 6])
def test_zero_momentum_rows_match_brute_force(width):
    modes = mode_range(2)
    expected = [
        t + (alternating_sum(t),)
        for t in itertools.product(modes, repeat=width - 1)
        if alternating_sum(t) in modes
    ]
    chunks = list(zero_momentum_rows(width, 2))
    assert len(chunks) == len(modes)
    got = [tuple(int(v) for v in row) for chunk in chunks for row in chunk]
    assert got == expected
    # one chunk per j1, each int64 in Fortran order: the columns are contiguous
    assert [chunk[0, 0] for chunk in chunks] == modes
    assert all(chunk.dtype == np.int64 and chunk.flags.f_contiguous for chunk in chunks)


def test_zero_momentum_radii_keep_the_exhaustive_kernels_in_int64():
    # a chunk holds (2 max_abs)^(width - 2) candidate rows, at most 46^4
    assert (zero_momentum_max_abs(4), zero_momentum_max_abs(6)) == (1058, 23)
    for width in (4, 6, 8):
        L = zero_momentum_max_abs(width)
        assert (2 * L) ** (width - 2) <= 46**4 < (2 * L + 2) ** (width - 2)
    assert zero_momentum_max_abs(4) <= order4.QUAD_INT64_MAX_ABS
    assert zero_momentum_max_abs(6) <= order6.SEXTUPLE_INT64_MAX_ABS


@pytest.mark.parametrize(
    "audit",
    [order4.exhaustive_divisor_audit, order6.exhaustive_sextuple_audit, stability.exhaustive_omega_audit],
    ids=["quad", "sextuple", "omega"],
)
def test_exhaustive_audits_refuse_a_radius_below_1(audit):
    with pytest.raises(ValueError, match="max_abs must be at least 1, got 0"):
        audit(0)


def test_leading_stars_match_sorted_absolute_values():
    rng = np.random.default_rng(0)
    for width in range(1, 11):
        rows = rng.integers(-9, 10, size=(300, width))
        want = (-np.sort(-np.abs(rows), axis=1)).T.tolist()
        for k in range(1, 7):
            for r in (rows, rows.astype(object)):
                before = r.copy()
                got = leading_stars(r.T, k)
                assert [c.tolist() for c in got] == want[:k]
                assert np.array_equal(r, before)


@pytest.mark.parametrize(
    "kernel, chunks",
    [
        (quad_kernel, partial(delta_rows, 7)),
        (sextuple_kernel, partial(zero_momentum_rows, 6, 4)),
        (partial(omega_kernel, s_values=(1, 2, 3, 1.5)), partial(zero_momentum_rows, 6, 4)),
    ],
    ids=["quad", "sextuple", "omega"],
)
def test_kernels_agree_on_c_order_f_order_and_object_rows(kernel, chunks):
    def outputs(rows):
        out = kernel(rows)
        return [a for triple in out for a in triple] if isinstance(out, list) else list(out)

    for rows in chunks():
        f_order = outputs(rows)
        c_order = outputs(np.ascontiguousarray(rows))
        objects = outputs(rows.astype(object))
        for f, c, o in zip(f_order, c_order, objects, strict=True):
            assert f.dtype == c.dtype and np.array_equal(f, c)
            assert f.tolist() == o.tolist()


def test_rejection_sample_is_bounded():
    draws = iter(range(100))

    def even(k):
        return [v for v in itertools.islice(draws, k) if v % 2 == 0]

    assert [v for block in rejection_sample(3, even) for v in block] == [0, 2, 4]
    # the sampler draws no further once it has enough
    assert next(draws) == 5
    with pytest.raises(RuntimeError):
        list(rejection_sample(2, lambda k: []))


@pytest.mark.parametrize("n_samples", [1, 2, 7])
def test_rejection_sample_raises_after_1000_candidates_per_sample(n_samples):
    asked = []

    def none_accepted(k):
        asked.append(k)
        return []

    with pytest.raises(RuntimeError):
        list(rejection_sample(n_samples, none_accepted))
    assert sum(asked) == 1000 * n_samples


def test_rejection_sample_accepts_in_the_last_candidate():
    asked = []

    def last_accepted(k):
        asked.append(k)
        return ["x"] if sum(asked) == 1000 else []

    assert list(rejection_sample(1, last_accepted)) == [["x"]]


def test_rejection_sample_blocks_are_bounded():
    blocks = list(rejection_sample(3 * SAMPLE_BLOCK + 5, lambda k: list(range(k))))
    assert [len(b) for b in blocks] == [SAMPLE_BLOCK] * 3 + [5]


@pytest.mark.parametrize("width", [4, 6, 8, 10])
def test_alternating_sum_matches_scalar_formulas(width):
    def momentum(t):
        return sum(t[0::2]) - sum(t[1::2])

    def divisor(t):
        return sum(v * v for v in t[0::2]) - sum(v * v for v in t[1::2])

    rng = np.random.default_rng(np.random.Philox(key=width))
    rows = rng.integers(-50, 51, size=(300, width))
    tuples = [tuple(int(v) for v in row) for row in rows]
    big = [
        tuple((-1) ** i * (10**20 + 7 * i) for i in range(width)),
        tuple(2**63 + i for i in range(width)),
    ]
    for t in tuples + big:
        assert alternating_sum(t) == momentum(t)
        assert alternating_sum(t, 2) == divisor(t)
    for dtype in (np.int64, object):
        arr = rows.astype(dtype)
        assert [int(v) for v in alternating_sum(arr.T)] == [momentum(t) for t in tuples]
        assert [int(v) for v in alternating_sum(arr.T, 2)] == [divisor(t) for t in tuples]
    # object rows stay exact past int64
    arr = np.array(big, dtype=object)
    assert list(alternating_sum(arr.T)) == [momentum(t) for t in big]
    assert list(alternating_sum(arr.T, 2)) == [divisor(t) for t in big]


# at 2^62 the partial sums of the last entry leave int64; the rows do not
@pytest.mark.parametrize("width,max_abs", [(2, 3), (4, 1), (6, 4), (10, 1000), (6, 2**62)])
def test_random_zero_momentum_rows_keeps_the_valid_rows_of_one_draw(width, max_abs):
    rows = random_zero_momentum_rows(np.random.default_rng(np.random.Philox(key=3)), 500, width, max_abs)
    heads = np.random.default_rng(np.random.Philox(key=3)).integers(
        -max_abs, max_abs + 1, size=(500, width - 1)
    )
    expected = []
    for head in heads:
        head = [int(v) for v in head]
        last = sum(head[0::2]) - sum(head[1::2])
        if 0 not in head and last != 0 and abs(last) <= max_abs:
            expected.append((*head, last))
    assert rows.dtype == np.int64 and rows.flags.f_contiguous and rows.shape == (len(expected), width)
    assert [tuple(row) for row in rows.tolist()] == expected


def _six_audits():
    return [
        order4.exhaustive_divisor_audit(6),
        order4.random_divisor_audit(500, 50, seed=1),
        order6.exhaustive_sextuple_audit(3),
        order6.random_sextuple_audit(500, 50, seed=2),
        stability.exhaustive_omega_audit(3, (1, 2)),
        stability.random_omega_audit(500, max_abs=50, r_values=(3, 4), s_values=(1, 2), seed=3),
    ]


def test_audits_list_only_their_first_violations(monkeypatch):
    # every kernel fails every row: each audit still checks every row but
    # lists only its first MAX_VIOLATIONS violations, in row order and by s
    # within a row, as one record type per kernel
    passing = _six_audits()

    def quad_failing(rows):
        d, holds, fact_ok = quad_kernel(rows)
        return d, holds & False, fact_ok

    def sextuple_failing(rows):
        d, stars, excluded, holds = sextuple_kernel(rows)
        return d, stars, excluded & False, holds & False

    def omega_failing(rows, s_values):
        return [(value, bound, holds & False) for value, bound, holds in omega_kernel(rows, s_values)]

    monkeypatch.setattr(order4, "quad_kernel", quad_failing)
    monkeypatch.setattr(order6, "sextuple_kernel", sextuple_failing)
    monkeypatch.setattr(stability, "omega_kernel", omega_failing)
    failing = _six_audits()
    assert [r["checked"] for r in failing] == [r["checked"] for r in passing]
    assert all(r["violations"] == [] for r in passing)
    n = MAX_VIOLATIONS
    assert [len(r["violations"]) for r in failing] == [n] * 6
    assert [r["arithmetic"] for r in failing] == ["int64"] * 6
    assert all({"checked", "violations", "max_abs", "arithmetic"} <= set(r) for r in failing)
    quad, sextuple, omega = failing[0:2], failing[2:4], failing[4:6]
    sextuples = [t for rows in zero_momentum_rows(6, 3) for t in map(tuple, rows.tolist())]
    assert [v.tuple for v in quad[0]["violations"]] == list(iter_delta(6))[:n]
    assert [v.tuple for v in sextuple[0]["violations"]] == [t for t in sextuples if alternating_sum(t, 2)][:n]
    assert [v.entries for v in omega[0]["violations"]] == [t for t in sextuples[: n // 2] for _ in (1, 2)]
    # the reports hold Python ints and the exact bound
    for v in (v for r in quad for v in r["violations"]):
        assert type(v) is order4.DivisorReport
        assert all(type(x) is int for x in (*v.tuple, v.divisor))
    for v in (v for r in sextuple for v in r["violations"]):
        assert type(v) is order6.SextupleReport
        assert all(type(x) is int for x in (*v.tuple, v.divisor, *v.stars))
    # each listed violation is the single-tuple record of its row and s
    for v in (v for r in quad for v in r["violations"]):
        assert v == order4.divisor_bound_check(v.tuple)
    for v in (v for r in sextuple for v in r["violations"]):
        assert v == order6.sextuple_bound_check(v.tuple)
    for v in (v for r in omega for v in r["violations"]):
        assert v == stability.omega_bound_check(v.entries, v.s)
    for r in omega:
        assert [v.s for v in r["violations"]] == [1, 2] * (n // 2)
        assert [v.entries for v in r["violations"][::2]] == [v.entries for v in r["violations"][1::2]]
        for v in r["violations"]:
            assert type(v) is stability.OmegaReport
            assert all(type(x) is int for x in (*v.entries, v.value, v.bound))
            assert (v.value, v.bound) == _omega_value_and_bound(v.entries, v.s)


def test_random_audits_of_no_samples_report_zero_counts():
    assert order4.random_divisor_audit(0, 50, seed=1) == {
        "checked": 0, "violations": [], "max_abs": 50, "arithmetic": "int64"
    }
    assert order6.random_sextuple_audit(0, 50, seed=1) == {
        "checked": 0, "excluded": 0, "violations": [], "max_abs": 50, "arithmetic": "int64"
    }
    assert stability.random_omega_audit(0, max_abs=50, seed=1) == {
        "checked": 0, "violations": [], "max_abs": 50, "arithmetic": "int64"
    }


def _omega_value_and_bound(t, s):
    """Omega_s and its bound for one tuple, in Python ints."""
    value = sum((1 if i % 2 == 0 else -1) * v * abs(v) ** (2 * s) for i, v in enumerate(t))
    stars = sorted((abs(v) for v in t), reverse=True)
    return value, (2 * s + 1) * len(t) ** (s + 2) * stars[0] ** s * stars[1] ** s * stars[2]


def test_int64_radius_is_the_largest_fitting_radius():
    assert int64_radius(lambda a: a * a) == math.isqrt(INT64_MAX)
    for bound in (lambda a: 16 * a**4, lambda a: max(a**6, 300 * a**5), lambda a: 7 * 10**5 * a**6):
        radius = int64_radius(bound)
        assert bound(radius) <= INT64_MAX < bound(radius + 1)


def _rows_at_radius(max_abs, width, seed):
    """Zero-momentum rows at radius max_abs as int tuples: a drawn block,
    every row of +-max_abs entries, and rows whose square divisor is +-2, the
    smallest nonzero one (width >= 4)."""
    L = max_abs
    rng = np.random.default_rng(np.random.Philox(key=seed))
    drawn = [tuple(t) for t in random_zero_momentum_rows(rng, 2000, width, L).tolist()]
    extreme = [t for t in itertools.product((L, -L), repeat=width) if alternating_sum(t) == 0]
    pad = (1,) * (width - 4)
    small = [(L, L - 1, L - 2, L - 1, *pad)] if width >= 4 else []
    small += [(L, L, 3, 2, 1, 2, *pad[2:])] if width >= 6 else []
    small += [tuple(-v for v in t) for t in small]
    assert all(alternating_sum(t, 2) in (2, -2) for t in small)
    return drawn + extreme + small


def _int64_and_object(kernel, rows, *args):
    """Each output of kernel on int64 rows and on object rows, as lists."""
    return [
        [a.tolist() for a in kernel(np.array(rows, dtype=dtype), *args)] for dtype in (np.int64, object)
    ]


def test_quad_kernel_is_exact_in_int64_at_the_random_audit_limit():
    L = order4.QUAD_INT64_MAX_ABS
    assert 16 * L**4 <= INT64_MAX < 16 * (L + 1) ** 4
    # Delta has no row of four +-L entries; these have the largest divisor
    rows = _rows_at_radius(L, 4, seed=1) + [(L, 1, -L, -1), (-L, -1, L, 1)]
    rows = [t for t in rows if order4.in_delta(*t)]
    assert max(abs(alternating_sum(t, 2)) for t in rows) == 2 * L * L - 2
    got, want = _int64_and_object(quad_kernel, rows)
    assert got == want


def test_sextuple_kernel_is_exact_in_int64_at_the_random_audit_limit():
    L = order6.SEXTUPLE_INT64_MAX_ABS
    assert max(L**6, 300 * L**5) <= INT64_MAX < (L + 1) ** 6
    got, want = _int64_and_object(sextuple_kernel, _rows_at_radius(L, 6, seed=2))
    assert got == want
    _, _, excluded, holds = want
    assert any(excluded) and not all(holds)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_omega_kernel_verdicts_are_exact_in_int64_at_the_random_audit_limit(r):
    for s in (1, 2, 3):
        L = stability.omega_int64_max_abs(2 * r, s)

        def kernel(rows):
            [out] = omega_kernel(rows, (s,))
            return out

        got, want = _int64_and_object(kernel, _rows_at_radius(L, 2 * r, seed=r))
        assert got == want


def _flag_by_value(kernel):
    """kernel with its last verdict turned to a violation on the rows whose
    divisor (Omega_s for omega_kernel) is divisible by 3: the same rows on
    int64 and on object rows."""

    def flagged(rows, *args):
        out = kernel(rows, *args)
        if isinstance(out, list):
            return [(value, bound, holds & (value % 3 != 0)) for value, bound, holds in out]
        return (*out[:-1], out[-1] & (out[0] % 3 != 0))

    return flagged


@pytest.mark.parametrize(
    "audit", ["quad", "sextuple", "omega", "quad-exhaustive", "sextuple-exhaustive", "omega-exhaustive"]
)
def test_random_audits_one_past_the_int64_limit_give_the_same_report_in_python_ints(monkeypatch, audit):
    # every audit, exhaustive or random, runs in int64 exactly when max_abs
    # is at most its kernel's int64 radius
    checked = 300
    if audit == "quad":
        module, limit_name, kernel = order4, "QUAD_INT64_MAX_ABS", "quad_kernel"
        L = order4.QUAD_INT64_MAX_ABS
        run = partial(order4.random_divisor_audit, 300, L, seed=5)
    elif audit == "sextuple":
        module, limit_name, kernel = order6, "SEXTUPLE_INT64_MAX_ABS", "sextuple_kernel"
        L = order6.SEXTUPLE_INT64_MAX_ABS
        run = partial(order6.random_sextuple_audit, 300, L, seed=5)
    elif audit == "omega":
        module, limit_name, kernel = stability, "omega_int64_max_abs", "omega_kernel"
        L = min(stability.omega_int64_max_abs(2 * r, s) for r in (3, 4) for s in (1, 2))
        run = partial(stability.random_omega_audit, 300, max_abs=L, r_values=(3, 4), s_values=(1, 2), seed=5)
    else:
        # the exhaustive radii stop far inside the int64 limit, so the limit
        # is moved to the radius instead
        L = 3
        if audit == "quad-exhaustive":
            module, limit_name, kernel = order4, "QUAD_INT64_MAX_ABS", "quad_kernel"
            run = partial(order4.exhaustive_divisor_audit, L)
            checked = len(list(iter_delta(L)))
        elif audit == "sextuple-exhaustive":
            module, limit_name, kernel = order6, "SEXTUPLE_INT64_MAX_ABS", "sextuple_kernel"
            run = partial(order6.exhaustive_sextuple_audit, L)
            checked = sum(1 for rows in zero_momentum_rows(6, L) for t in rows.tolist() if alternating_sum(t, 2))
        else:
            module, limit_name, kernel = stability, "omega_int64_max_abs", "omega_kernel"
            run = partial(stability.exhaustive_omega_audit, L, (1, 2))
            checked = 2 * sum(len(rows) for rows in zero_momentum_rows(6, L))
        monkeypatch.setattr(module, limit_name, (lambda width, s: L) if module is stability else L)
    monkeypatch.setattr(module, kernel, _flag_by_value(getattr(module, kernel)))
    at_limit = run()
    limit = (lambda width, s: L - 1) if module is stability else L - 1
    monkeypatch.setattr(module, limit_name, limit)
    past = run()
    assert (at_limit["arithmetic"], past["arithmetic"]) == ("int64", "python int")
    assert at_limit["violations"] and at_limit["checked"] == checked
    assert {**at_limit, "arithmetic": None} == {**past, "arithmetic": None}
