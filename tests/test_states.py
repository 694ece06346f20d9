import itertools
import math
from functools import partial

import numpy as np
import pytest

from dnls_nflab.order4 import delta_rows, quad_kernel
from dnls_nflab.order6 import sextuple_kernel
from dnls_nflab.stability import omega_kernel
from dnls_nflab.states import (
    SAMPLE_BLOCK,
    FourierState,
    alternating_sum,
    eval_physical,
    hamiltonian_coefficients,
    hamiltonian_physical,
    lambda_energy,
    leading_stars,
    mode_range,
    random_zero_momentum_rows,
    rejection_sample,
    sobolev_norm,
    state_from_json,
    state_to_json,
    zero_momentum_sextuples,
)

TWO_PI = 2 * math.pi


def test_mode_zero_rejected():
    with pytest.raises(ValueError):
        FourierState({0: 1.0}, 4)


def test_truncation_enforced():
    with pytest.raises(ValueError):
        FourierState({5: 1.0}, 4)


def test_zero_amplitudes_dropped():
    st = FourierState({1: 0.0, 2: 1.0}, 4)
    assert st.support() == (2,)


def test_sobolev_examples():
    assert sobolev_norm(FourierState.zero(4), 2.0) == 0.0
    assert sobolev_norm(FourierState({1: 1.0}, 4), 7.3) == pytest.approx(1.0)
    st = FourierState({1: 1.0, -2: 2j}, 4)
    assert sobolev_norm(st, 1.0) == pytest.approx(math.sqrt(17))


def test_sobolev_monotone_in_s():
    st = FourierState({1: 0.3, -2: 0.1j, 3: 0.05}, 4)
    values = [sobolev_norm(st, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sobolev_rejects_negative_s():
    with pytest.raises(ValueError):
        sobolev_norm(FourierState.zero(2), -1.0)


def test_eval_physical_examples():
    st = FourierState({1: math.sqrt(TWO_PI)}, 2)
    assert eval_physical(st, 0.0) == pytest.approx(1.0)
    assert eval_physical(FourierState.zero(2), 1.234) == 0
    st2 = FourierState({1: 1.0, -1: 1.0}, 2)
    assert abs(eval_physical(st2, math.pi / 2)) == pytest.approx(0.0, abs=1e-15)


def test_eval_physical_periodic():
    st = FourierState({1: 0.5, -2: 0.25j, 3: 0.125}, 4)
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(
        eval_physical(st, xs), eval_physical(st, xs + TWO_PI), rtol=0, atol=1e-12
    )


def test_lambda_examples():
    assert lambda_energy(FourierState({1: 1.0, -2: 2j}, 4)) == pytest.approx(-7.0)
    assert lambda_energy(FourierState.zero(4)) == 0.0
    assert lambda_energy(FourierState({3: 0.5j}, 4)) == pytest.approx(3 * 0.25)


def test_hamiltonian_single_mode():
    st = FourierState({1: 1.0}, 1)
    assert hamiltonian_physical(st, 5) == pytest.approx(1 + 1 / (4 * math.pi), rel=1e-12)


def test_hamiltonian_quadratic_dominance():
    eps = 1e-4
    st = FourierState({1: eps}, 1)
    h = hamiltonian_physical(st, 5)
    assert h == pytest.approx(eps**2, rel=1e-7)


def test_hamiltonian_matches_coefficient_space():
    rng = np.random.default_rng(0)
    for M in (4, 8, 16):
        amp = {
            j: complex(rng.normal(), rng.normal()) * 0.4 for j in mode_range(M)
        }
        st = FourierState(amp, M)
        h_phys = hamiltonian_physical(st, 4 * M + 1)
        h_coef = hamiltonian_coefficients(st)
        assert h_phys == pytest.approx(h_coef, rel=1e-10, abs=1e-12)


def test_hamiltonian_quadrature_precondition():
    st = FourierState({1: 1.0}, 4)
    with pytest.raises(ValueError):
        hamiltonian_physical(st, 4 * 4)


def test_grid_roundtrip_exact():
    # samples on 4M+1 points determine the coefficients exactly
    rng = np.random.default_rng(1)
    M = 6
    amp = {j: complex(rng.normal(), rng.normal()) for j in mode_range(M)}
    st = FourierState(amp, M)
    N = 4 * M + 1
    x = np.arange(N) * TWO_PI / N
    u = eval_physical(st, x)
    for j in mode_range(M):
        coeff = np.sum(u * np.exp(-1j * j * x)) * (TWO_PI / N) / math.sqrt(TWO_PI)
        assert abs(coeff - amp[j]) < 1e-12


def test_json_roundtrip():
    st = FourierState({1: 1 + 2j, -3: 0.5j}, 4)
    text = state_to_json(st)
    back = state_from_json(text, 4)
    assert back == st


def test_json_rejects_mode_zero_and_duplicates():
    with pytest.raises(ValueError):
        state_from_json('[{"j": 0, "re": 1, "im": 0}]', 4)
    with pytest.raises(ValueError):
        state_from_json(
            '[{"j": 1, "re": 1, "im": 0}, {"j": 1, "re": 2, "im": 0}]', 4
        )


def test_vector_roundtrip():
    st = FourierState({2: 1j, -1: 0.25}, 3)
    assert FourierState.from_vector(st.to_vector(), 3) == st


# -- index sets and sampling ------------------------------------------------------------


def test_zero_momentum_sextuples_match_brute_force():
    modes = mode_range(2)
    expected = [
        t + (t[0] - t[1] + t[2] - t[3] + t[4],)
        for t in itertools.product(modes, repeat=5)
        if t[0] - t[1] + t[2] - t[3] + t[4] in modes
    ]
    chunks = list(zero_momentum_sextuples(2))
    assert len(chunks) == len(modes)
    got = [tuple(int(v) for v in row) for chunk in chunks for row in chunk]
    assert got == expected
    # one chunk per j1, each int64 in Fortran order: the columns are contiguous
    assert [chunk[0, 0] for chunk in chunks] == modes
    assert all(chunk.dtype == np.int64 and chunk.flags.f_contiguous for chunk in chunks)


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
        (sextuple_kernel, partial(zero_momentum_sextuples, 4)),
        (partial(omega_kernel, s_values=(1, 2, 3, 1.5)), partial(zero_momentum_sextuples, 4)),
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


@pytest.mark.parametrize("width,max_abs", [(2, 3), (4, 1), (6, 4), (10, 1000)])
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
    assert rows.dtype == object and rows.shape == (len(expected), width)
    assert [tuple(row) for row in rows] == expected
    assert all(type(v) is int for v in rows.ravel())
