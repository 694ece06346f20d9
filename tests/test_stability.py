import numpy as np
import pytest

from dnls_nflab.flows import FlowConfig, evolve_vec, normal_form_bundle
from dnls_nflab.stability import (
    StabilityRun,
    exhaustive_omega_audit,
    hs_random_state,
    norm_derivative_audit,
    omega_bound_check,
    omega_s,
    random_omega_audit,
    stability_ensemble,
    stability_sweep,
)
from dnls_nflab.states import FourierState, sobolev_norm


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


def test_exhaustive_omega_audit_overflow_guard():
    with pytest.raises(OverflowError):
        exhaustive_omega_audit(1000, (3,))


# -- experiment harness ----------------------------------------------------------


def test_hs_random_state_norm_exact():
    st = hs_random_state(16, 3.0, 0.25, seed=2)
    assert sobolev_norm(st, 3.0) == pytest.approx(0.25, rel=1e-12)


def test_hs_random_state_deterministic():
    a = hs_random_state(8, 2.0, 0.1, seed=5)
    b = hs_random_state(8, 2.0, 0.1, seed=5)
    assert a == b


def test_epsilon_validation():
    with pytest.raises(ValueError):
        StabilityRun(s=3.0, epsilon=1.5, M=8)


def test_linear_flow_calibration():
    run = StabilityRun(s=3.0, epsilon=0.3, M=16, horizon_exponent=2.0, seed=1, dt=2e-3)
    rep = stability_sweep(run, nonlinear=False)
    assert abs(rep.max_ratio - 1.0) < 1e-9


def test_short_nonlinear_sweep_passes():
    run = StabilityRun(s=3.0, epsilon=0.35, M=16, horizon_exponent=2.0, seed=1, dt=2e-3)
    rep = stability_sweep(run)
    assert rep.passed
    assert rep.max_ratio < 1.5
    assert np.max(rep.mass_drift) < 1e-10


def test_ensemble_matches_single():
    run = StabilityRun(s=3.0, epsilon=0.35, M=8, horizon_exponent=1.0, seed=1, dt=2e-3)
    single = stability_sweep(run)
    batch = stability_ensemble(run, (1, 2))
    assert batch[0].max_ratio == pytest.approx(single.max_ratio, rel=1e-14)
    assert batch[0].run.seed == 1 and batch[1].run.seed == 2


def test_step_budget_reported():
    run = StabilityRun(s=3.0, epsilon=0.3, M=8, horizon_exponent=4.0, seed=1, dt=1e-4)
    rep = stability_sweep(run, max_steps=100)
    assert rep.budget_exhausted
    assert not rep.passed
    assert "budget" in rep.message


def test_ratio_trend_with_epsilon():
    # smaller data stays closer to linear: the ratio should not grow as eps
    # shrinks (5% violations tolerated as noise, none expected here)
    ratios = []
    for eps in (0.4, 0.3, 0.2):
        run = StabilityRun(s=3.0, epsilon=eps, M=12, horizon_exponent=1.5, seed=2, dt=2e-3)
        ratios.append(stability_sweep(run).max_ratio)
    assert all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))


# -- norm derivative audit ----------------------------------------------------------


def test_single_mode_norm_derivative_tiny():
    # one-mode dynamics is a pure phase rotation; the s-norm is frozen
    M = 1
    nf = normal_form_bundle(M)
    assert nf.F4.is_zero  # no non-normal quartics on a single mode pair
    vec = FourierState({1: 0.4}, M).to_vector()
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
