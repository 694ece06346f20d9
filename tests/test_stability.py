import math

import numpy as np
import pytest

from dnls_nflab import stability
from dnls_nflab.flows import FlowConfig, StepBudgetError, _random_profile, evolve_vec, normal_form_bundle, spectral_model
from dnls_nflab.stability import (
    StabilityRun,
    exhaustive_omega_audit,
    norm_derivative_audit,
    omega_bound_check,
    omega_int64_max_abs,
    omega_kernel,
    omega_s,
    random_omega_audit,
    stability_ensemble,
)
from dnls_nflab.states import random_zero_momentum_rows, state_vector, zero_momentum_rows


# -- weighted frequency sums ----------------------------------------------------


def test_omega_example():
    assert omega_s((1, 2, 5, 3, 6, 7), 1) == -36


def test_omega_telescoping():
    assert omega_s((3, 3, -5, -5, 2, 2), 2) == 0
    assert omega_s((1, 1, 4, 4), 1) == 0


def test_omega_sign_flip():
    t = (1, 2, 5, 3, 6, 7)
    neg = tuple(-v for v in t)
    for s in (1, 2):
        assert omega_s(neg, s) == -omega_s(t, s)


def test_omega_integer_exactness():
    v = omega_s((1, 2, 5, 3, 6, 7), 2)
    assert isinstance(v, int)
    assert v == 1 - 32 + 5**5 - 3**5 + 6**5 - 7**5


def test_omega_precondition_checks():
    with pytest.raises(ValueError):
        omega_s((1, 2, 3, 5), 1)  # nonzero momentum
    with pytest.raises(ValueError):
        omega_s((1, 2, 3), 1)  # odd length
    with pytest.raises(ValueError):
        omega_s((1, 0, 2, 3), 1)  # zero index


def test_omega_bound_example():
    rep = omega_bound_check((1, 2, 5, 3, 6, 7), 1)
    assert rep.value == -36
    assert rep.bound == 3 * 6**3 * 7 * 6 * 5
    assert rep.holds


def test_omega_bound_requires_s_geq_1():
    with pytest.raises(ValueError):
        omega_bound_check((1, 2, 5, 3, 6, 7), 0.5)


def test_exhaustive_omega_audit_small():
    rep = exhaustive_omega_audit(6, (1, 2, 3))
    assert rep["violations"] == []


def test_random_omega_audit_small():
    rep = random_omega_audit(2000, seed=3)
    assert rep["violations"] == []
    assert rep["checked"] == 2000


def test_random_omega_audit_radius():
    with pytest.raises(ValueError):
        random_omega_audit(3, max_abs=0, seed=0)
    assert random_omega_audit(50, max_abs=1, seed=0)["checked"] == 50


def _omega_reference(t, s):
    """Omega_s, its bound and the verdict for one tuple, in scalar form."""
    value = sum((1 if i % 2 == 0 else -1) * v * abs(v) ** (2 * s) for i, v in enumerate(t))
    stars = sorted((abs(v) for v in t), reverse=True)
    bound = (2 * s + 1) * len(t) ** (s + 2) * stars[0] ** s * stars[1] ** s * stars[2]
    return value, bound, abs(value) <= bound


def test_omega_kernel_matches_scalar_reference():
    rows = np.concatenate(list(zero_momentum_rows(6, 5)))
    tuples = [tuple(int(v) for v in row) for row in rows]
    # wider tuples and entries past int64, object dtype only
    wide = [(10**9, 1, 2, 3, 4, 5, 6, 10**9 + 3), (3, 1, 2, 4, 7, 7, 5, 5, 9, 9)]
    # the kernel returns the scale; the bound is scale j3*, formed in Python ints
    j3 = [sorted(map(abs, t), reverse=True)[2] for t in tuples]
    for s in (1, 2, 3):
        expected = [_omega_reference(t, s) for t in tuples]
        for dtype in (np.int64, object):
            [(value, scale, holds)] = omega_kernel(rows.astype(dtype), (s,))
            got = [(int(a), int(b) * c, bool(h)) for a, b, c, h in zip(value, scale, j3, holds)]
            assert got == expected
        for t in wide:
            [(value, scale, holds)] = omega_kernel(np.array([t], dtype=object), (s,))
            j3_wide = sorted(map(abs, t), reverse=True)[2]
            assert (value[0], scale[0] * j3_wide, bool(holds[0])) == _omega_reference(t, s)


def test_exhaustive_omega_audit_overflow_guard(no_grid):
    # the enumerator refuses a radius whose chunk of one j1 would hold more
    # than 46^4 candidate rows, at every s, before it builds its grid
    for s_values in ((1,), (3,), (1, 2, 3)):
        with pytest.raises(ValueError, match="max_abs=24: one chunk of width 6 would hold 5308416 candidate rows"):
            exhaustive_omega_audit(24, s_values)


def test_exhaustive_omega_audit_guard_keeps_the_kernel_in_int64(monkeypatch):
    # omega_kernel runs in int64 up to omega_int64_max_abs(6, s) for every s
    # and in Python ints past it: at s = 5 that radius, 17, lies inside the
    # enumerator's 23.  The enumerator is replaced by one small chunk.
    dtypes = []

    def recording(rows, s_values):
        dtypes.append(rows.dtype)
        return omega_kernel(rows, s_values)

    chunk = np.asfortranarray(np.concatenate(list(zero_momentum_rows(6, 2))))
    monkeypatch.setattr(stability, "zero_momentum_rows", lambda width, max_abs: [chunk])
    monkeypatch.setattr(stability, "omega_kernel", recording)
    assert omega_int64_max_abs(6, 5) == 17
    reports = [exhaustive_omega_audit(a, s_values) for a, s_values in ((17, (1, 5)), (18, (1, 5)), (18, (1, 4)))]
    assert [r["arithmetic"] for r in reports] == ["int64", "python int", "int64"]
    assert dtypes == [np.int64, object, np.int64]
    assert all(r["checked"] == reports[0]["checked"] and r["violations"] == [] for r in reports)


def test_exhaustive_omega_audit_calls_the_kernel_once_per_chunk(monkeypatch):
    calls = []

    def recording(rows, s_values):
        calls.append((len(rows), tuple(s_values)))
        return omega_kernel(rows, s_values)

    monkeypatch.setattr(stability, "omega_kernel", recording)
    rep = exhaustive_omega_audit(4, (1, 2, 3))
    chunks = [len(chunk) for chunk in zero_momentum_rows(6, 4)]
    assert calls == [(n, (1, 2, 3)) for n in chunks]
    assert rep["checked"] == 3 * sum(chunks)


def _per_candidate_omega_rows(n_samples, max_abs, seed, r_values):
    """The accepted draws of a loop that takes the widths in order, each its
    share of n_samples, and draws one candidate per rng call."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    share, extra = divmod(n_samples, len(r_values))
    out = []
    for w, r in enumerate(r_values):
        wanted = len(out) + share + (1 if w < extra else 0)
        while len(out) < wanted:
            head = [int(v) for v in rng.integers(-max_abs, max_abs + 1, size=2 * r - 1)]
            last = sum(head[0::2]) - sum(head[1::2])
            if 0 in head or last == 0 or abs(last) > max_abs:
                continue
            out.append((*head, last))
    return out


@pytest.mark.parametrize(
    "n_samples,max_abs,seed,r_values",
    [
        (50, 1, 0, (3, 4, 5)),
        (3001, 100, 3, (3, 4, 5)),
        (14_000, 7, 11, (3, 4, 5)),
        (301, 2, 5, (5, 1, 2)),
    ],
)
def test_random_omega_audit_checks_the_per_candidate_draws(
    monkeypatch, n_samples, max_abs, seed, r_values
):
    checked = []

    def recording(rows, s_values):
        checked.extend(tuple(row) for row in rows)
        return omega_kernel(rows, s_values)

    monkeypatch.setattr(stability, "omega_kernel", recording)
    rep = random_omega_audit(n_samples, max_abs=max_abs, r_values=r_values, seed=seed)
    assert rep["checked"] == n_samples and rep["violations"] == []
    assert checked == _per_candidate_omega_rows(n_samples, max_abs, seed, r_values)


def test_random_omega_audit_lists_violations_by_width_then_sample_then_s(monkeypatch):
    drawn = []

    def recording(*args, **kwargs):
        rows = random_zero_momentum_rows(*args, **kwargs)
        drawn.extend(tuple(row) for row in rows.tolist())
        return rows

    def failing(rows, s_values):
        return [(value, bound, holds & False) for value, bound, holds in omega_kernel(rows, s_values)]

    monkeypatch.setattr(stability, "random_zero_momentum_rows", recording)
    monkeypatch.setattr(stability, "omega_kernel", failing)
    rep = random_omega_audit(5, max_abs=9, r_values=(3, 2), s_values=(2, 1), seed=4)
    assert [len(t) for t in drawn] == [6, 6, 6, 4, 4]
    assert [(v.entries, v.s) for v in rep["violations"]] == [(t, s) for t in drawn for s in (2, 1)]
    assert all(v.value == omega_s(v.entries, v.s) and not v.holds for v in rep["violations"])


# -- experiment harness ----------------------------------------------------------


# hs_random_state(M, s, eps, seed) is the profile _random_profile(M, seed, s + 1, eps, s)


def test_hs_random_state_norm_exact():
    vec = _random_profile(16, 2, 4.0, 0.25, 3.0)
    assert math.sqrt(spectral_model(16).sobolev_sq(vec, 3.0)) == pytest.approx(0.25, rel=1e-12)


def test_hs_random_state_deterministic():
    a = _random_profile(8, 5, 3.0, 0.1, 2.0)
    b = _random_profile(8, 5, 3.0, 0.1, 2.0)
    assert np.array_equal(a, b) and a is not b


def test_epsilon_validation():
    with pytest.raises(ValueError):
        StabilityRun(s=3.0, epsilon=1.5, M=8)


def test_short_nonlinear_sweep_passes():
    run = StabilityRun(s=3.0, epsilon=0.35, M=16, horizon_exponent=2.0, seed=1, dt=2e-3)
    rep = stability_ensemble(run, (run.seed,))[0]
    assert rep.passed
    assert rep.max_ratio < 1.5
    assert np.max(rep.mass_drift) < 1e-10


def test_ensemble_matches_single():
    run = StabilityRun(s=3.0, epsilon=0.35, M=8, horizon_exponent=1.0, seed=1, dt=2e-3)
    single = stability_ensemble(run, (run.seed,))[0]
    batch = stability_ensemble(run, (1, 2))
    assert batch[0].max_ratio == pytest.approx(single.max_ratio, rel=1e-14)
    assert batch[0].run.seed == 1 and batch[1].run.seed == 2


def test_step_budget_reported():
    run = StabilityRun(s=3.0, epsilon=0.1, M=8, horizon_exponent=6.0, dt=1e-3)
    with pytest.raises(StepBudgetError, match="budget"):
        stability_ensemble(run, (run.seed,))


@pytest.mark.parametrize(
    "eps, r, message",
    [
        (1e-300, 4.0, "horizon 1e-300^-4 overflows a float"),
        (0.5, 2000.0, "horizon 0.5^-2000 overflows a float"),
        # eps^-r is finite, but not eps^-r / dt
        (1e-300, 1.02, "inf steps needed, budget is 20000000"),
    ],
    ids=["eps", "r", "steps"],
)
def test_overflowing_horizon_is_over_the_step_budget(eps, r, message):
    run = StabilityRun(s=3.0, epsilon=eps, M=4, horizon_exponent=r)
    with pytest.raises(StepBudgetError) as err:
        stability_ensemble(run, (run.seed,))
    assert str(err.value) == message


def test_ratio_trend_with_epsilon():
    # smaller data stays closer to linear: the ratio should not grow as eps
    # shrinks (5% violations tolerated as noise, none expected here)
    ratios = []
    for eps in (0.4, 0.3, 0.2):
        run = StabilityRun(s=3.0, epsilon=eps, M=12, horizon_exponent=1.5, seed=2, dt=2e-3)
        ratios.append(stability_ensemble(run, (run.seed,))[0].max_ratio)
    assert all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))


# -- norm derivative audit ----------------------------------------------------------


def test_single_mode_norm_derivative_tiny():
    # one-mode dynamics is a pure phase rotation; the s-norm is frozen
    M = 1
    nf = normal_form_bundle(M)
    assert nf.F4.is_zero  # no non-normal quartics on a single mode pair
    vec = state_vector({1: 0.4}, M)
    delta = 1e-3
    out = {}
    for sign in (+1, -1):
        cfg = FlowConfig(dt=delta / 8, t_end=sign * delta)
        _, _, moved, _ = evolve_vec(vec, M, cfg)
        out[sign] = float(np.sum(np.abs(moved) ** 2 * 1.0))
    deriv = (out[+1] - out[-1]) / (2 * delta)
    assert abs(deriv) < 1e-10


def test_norm_derivative_audit_slope(bundle8):
    rep = norm_derivative_audit(M=8, s=3.0, amplitudes=(0.4, 0.28, 0.2))
    assert 5.6 <= rep["slope"] <= 6.4
    assert rep["C3"] > 0
    for row in rep["rows"]:
        assert row["rate"] <= rep["C3"] * row["norm_s"] ** 6 * (1 + 1e-9)
