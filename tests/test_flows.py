import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dnls_nflab.flows import (
    BlowupError,
    FlowConfig,
    FlowConvergenceError,
    StepBudgetError,
    coordinate_change,
    evolve_vec,
    flow_time_one_vec,
    _random_profile,
    residual_scaling,
    spectral_model,
    transformed_hamiltonian_residual,
)
from dnls_nflab.poly import PolyHamiltonian, build_lambda
from dnls_nflab.states import TWO_PI, mode_range, state_vector

CFG = FlowConfig(dt=0.05, tolerance=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dt", 0.0),
        ("dt", math.nan),
        ("dt", math.inf),
        ("dt", -math.inf),
        ("tolerance", 0.0),
        ("tolerance", -1e-12),
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("t_end", math.nan),
        ("t_end", math.inf),
        ("t_end", -math.inf),
        ("max_refinements", 0),
        ("max_refinements", -1),
        ("record_interval", 0.0),
        ("record_interval", -0.5),
        ("record_interval", math.nan),
        ("record_interval", math.inf),
    ],
)
def test_config_rejects_invalid_values(field, value):
    # NaN, which fails every comparison, was accepted for dt and tolerance;
    # max_refinements = 0 ended flow_time_one_vec in an UnboundLocalError
    with pytest.raises(ValueError, match=field):
        FlowConfig(**{field: value})


def test_evolve_vec_at_t_end_zero_returns_the_initial_record():
    q0 = state_vector({1: 0.3, -2: 0.1j}, 3)
    times, channels, q_final, snapshots = evolve_vec(q0, 3, FlowConfig(t_end=0.0), track_s=(1.0,))
    assert times.tolist() == [0.0]
    assert all(values.shape == (1,) for values in channels.values())
    assert np.array_equal(q_final, q0) and q_final is not q0
    assert len(snapshots) == 1 and np.array_equal(snapshots[0], q0)


def test_zero_generator_is_identity():
    vec = state_vector({1: 0.3, -2: 0.1j}, 3)
    assert np.array_equal(flow_time_one_vec(PolyHamiltonian.zero(3), vec, CFG), vec)


def test_lambda_flow_is_linear_rotation():
    M = 4
    vec = state_vector({1: 0.5 + 0.2j, -3: 0.1j}, M)
    out = flow_time_one_vec(build_lambda(M), vec, CFG)
    np.testing.assert_allclose(out, vec * np.exp(-1j * np.array(mode_range(M)) ** 2), rtol=0, atol=1e-11)


@pytest.mark.parametrize("order", [4, 6])
def test_flow_group_property(bundle8, order):
    # Phi^-1 is the same call at t_end = -1, the flows backwards in reverse order
    vec = _random_profile(8, 3, 2.0, 0.4)
    fwd = coordinate_change(vec, order, CFG, bundle8)
    back = coordinate_change(fwd, order, replace(CFG, t_end=-CFG.t_end), bundle8)
    assert np.linalg.norm(fwd - vec) > 1e3 * CFG.tolerance
    assert np.linalg.norm(back - vec) < 10 * CFG.tolerance


def test_action_preservation_under_action_only_flow(bundle8):
    # B depends on actions only, so |q_j| is constant along its exact flow
    vec = _random_profile(8, 4, 2.0, 0.5)
    out = flow_time_one_vec(bundle8.B, vec, CFG)
    np.testing.assert_allclose(np.abs(out), np.abs(vec), rtol=0, atol=1e-10)


def test_scaling_base_state_refuses_an_empty_support():
    # a radius of 0 is no shorthand for full support
    for radius in (0, -1):
        with pytest.raises(ValueError, match=f"support_radius must be at least 1, got {radius}"):
            _random_profile(8, 4, 2.0, 1.0, support_radius=radius)
    vec = _random_profile(8, 4, 2.0, 0.5, support_radius=2)
    assert np.array(mode_range(8))[np.flatnonzero(vec)].tolist() == [-2, -1, 1, 2]
    assert math.fsum(abs(v) ** 2 for v in vec.tolist()) == pytest.approx(0.25, rel=1e-15)


def _scalar_profile(M, seed, decay, norm, s=0.0, support_radius=None):
    """_random_profile built mode by mode in Python scalars: each amplitude a
    Python complex, the s-norm a Python float sum in ascending mode order."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    modes = mode_range(min(M, support_radius or M))
    phases = rng.uniform(0.0, TWO_PI, size=len(modes))
    amp = {j: complex(abs(j) ** -decay * np.exp(1j * p)) for j, p in zip(modes, phases)}
    scale = norm / math.sqrt(sum(abs(v) ** 2 * abs(j) ** (2.0 * s) for j, v in amp.items()))
    return state_vector({j: v * scale for j, v in amp.items()}, M)


@pytest.mark.parametrize(
    "M, seed, decay, norm, s, support_radius",
    [
        (6, 20200523, 2.0, 1.0, 0.0, 2),  # the residual ladder's base
        (8, 11, 4.0, 1.0, 3.0, None),  # norm_derivative_audit's base
        (8, 4, 2.0, 0.5, 0.0, 2),
        *[(32, seed, 4.0, 0.2, 3.0, None) for seed in range(1, 7)],  # criterion 8
        *[(32, seed, 6.0, 0.3, 5.0, None) for seed in range(1, 7)],
    ],
)
def test_profiles_are_bit_identical_to_the_scalar_construction(M, seed, decay, norm, s, support_radius):
    # np.abs rounds some complex128 moduli one ulp away from abs: an s-norm
    # of np.abs moduli moves 6 of these 15 profiles in the last bit
    vec = _random_profile(M, seed, decay, norm, s, support_radius)
    assert vec.dtype == complex and np.array_equal(vec, _scalar_profile(M, seed, decay, norm, s, support_radius))


def test_flow_convergence_error():
    cfg = FlowConfig(dt=0.5, tolerance=1e-30, max_refinements=2)
    from dnls_nflab.poly import build_G

    with pytest.raises(FlowConvergenceError):
        flow_time_one_vec(build_G(2), state_vector({1: 1.0}, 2), cfg)


# -- PDE evolution ------------------------------------------------------------------


def test_plane_wave_dispersion():
    # u = A e^{i(kx - omega t)} with omega = k^2 + |A|^2 k
    k, A = 2, 0.35
    M = 8
    q0 = state_vector({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=3.0)
    _, _, qf, _ = evolve_vec(q0, M, cfg)
    omega = k * k + A * A * k
    expected = q0 * np.exp(-1j * omega * cfg.t_end)
    rel = np.linalg.norm(qf - expected) / np.linalg.norm(expected)
    assert rel < 1e-10


def _lawson(nonlinear, q, M, h, n_steps):
    """The integrating-factor RK4 step written out plainly: every product
    formed where it is used."""
    jsq = np.array(mode_range(M), dtype=float) ** 2
    E = np.exp(-1j * jsq * h)
    Eh = np.exp(-1j * jsq * (h / 2))
    for _ in range(n_steps):
        k1 = nonlinear(q)
        k2 = nonlinear(Eh * (q + (h / 2) * k1))
        k3 = nonlinear(Eh * q + (h / 2) * k2)
        k4 = nonlinear(E * q + h * Eh * k3)
        q = E * q + (h / 6) * (E * k1 + 2 * Eh * (k2 + k3) + k4)
    return q


def _plain_nonlinear(M):
    """The library's formula written out plainly: a fresh scatter buffer per
    transform, the unscaled inverse DFT S = sqrt(2 pi) u, |S|^2 as
    re^2 + im^2 and the folded weight -i j / (2 pi n)."""
    model = spectral_model(M)
    n = model.n_grid
    bins = np.mod(model.modes, n)
    weight = -1j * model.modes / (TWO_PI * n)

    def nonlinear(q):
        buf = np.zeros(q.shape[:-1] + (n,), dtype=complex)
        buf[..., bins] = q
        S = np.fft.ifft(buf, axis=-1, norm="forward")
        S *= S.real**2 + S.imag**2
        return np.fft.fft(S, axis=-1)[..., bins] * weight

    return nonlinear


def _power_of_two_nonlinear(M):
    """The formula before the 5-smooth grid: 4M+2 rounded up to a power of
    two, u scaled onto the grid, |u|^2 from np.abs and both scales applied
    separately."""
    n = 1 << (4 * M + 1).bit_length()
    modes = np.array(mode_range(M))
    bins = np.mod(modes, n)

    def nonlinear(q):
        buf = np.zeros(q.shape[:-1] + (n,), dtype=complex)
        buf[..., bins] = q
        u = np.fft.ifft(buf, axis=-1) * (n / math.sqrt(TWO_PI))
        w = (np.abs(u) ** 2) * u
        w_hat = np.fft.fft(w, axis=-1)[..., bins] * (math.sqrt(TWO_PI) / n)
        return -1j * modes * w_hat

    return nonlinear


def _criterion_8_batch(M, seed):
    rng = np.random.default_rng(seed)
    modes = np.abs(np.array(mode_range(M)))
    return 0.3 * (rng.normal(size=(3, 2 * M)) + 1j * rng.normal(size=(3, 2 * M))) / modes**2


def test_lawson_step_is_bit_identical_to_the_plain_step():
    # criterion 8's size and batch: M = 32, three members, dt = 1e-3
    M, n_steps = 32, 500
    q0 = _criterion_8_batch(M, 11)
    cfg = FlowConfig(dt=1e-3, t_end=n_steps * 1e-3, record_interval=0.1)
    _, _, q_final, _ = evolve_vec(q0, M, cfg)
    h = cfg.t_end / n_steps
    assert np.array_equal(q_final, _lawson(_plain_nonlinear(M), q0.astype(complex), M, h, n_steps))


def test_lawson_step_matches_the_power_of_two_grid_formula():
    # the grid and the folded constants change rounding only
    M, n_steps = 32, 500
    q0 = _criterion_8_batch(M, 11)
    assert spectral_model(M).n_grid == 135
    cfg = FlowConfig(dt=1e-3, t_end=n_steps * 1e-3, record_interval=0.1)
    _, _, q_final, _ = evolve_vec(q0, M, cfg)
    h = cfg.t_end / n_steps
    old = _lawson(_power_of_two_nonlinear(M), q0.astype(complex), M, h, n_steps)
    rel = np.linalg.norm(q_final - old, axis=-1) / np.linalg.norm(old, axis=-1)
    assert rel.shape == (3,) and np.all(rel <= 1e-13)


@pytest.mark.parametrize("M", [1, 6, 32])
def test_nonlinear_is_bit_identical_to_the_plain_formula(M):
    # nonlinear(q) is the stepper's grid-layout kernel between a scatter
    # and a gather, so the two share one definition
    plain = _plain_nonlinear(M)
    model = spectral_model(M)
    for q in (_criterion_8_batch(M, M), _criterion_8_batch(M, M + 1)[0]):
        got = model.nonlinear(q)
        assert got.shape == q.shape and np.array_equal(got, plain(q))


def test_evolve_vec_buffers_carry_nothing_from_one_call_to_the_next(monkeypatch):
    # batch 3, then 1, then 3 on one model, each against a fresh model
    from dnls_nflab import flows

    M = 8
    cfg = FlowConfig(dt=1e-3, t_end=0.05, record_interval=0.01)
    batches = [_criterion_8_batch(M, 5), _criterion_8_batch(M, 6)[:1], _criterion_8_batch(M, 7)]
    runs = [evolve_vec(q0, M, cfg, track_s=(2.0,)) for q0 in batches]
    for q0, (times, channels, q_final, snapshots) in zip(batches, runs):
        monkeypatch.setattr(flows, "_models", {})
        fresh_times, fresh_channels, fresh_final, fresh_snapshots = evolve_vec(q0, M, cfg, track_s=(2.0,))
        assert np.array_equal(times, fresh_times)
        assert all(np.array_equal(channels[k], fresh_channels[k]) for k in fresh_channels)
        assert q_final.shape == q0.shape and np.array_equal(q_final, fresh_final)
        assert len(snapshots) == 6
        assert all(np.array_equal(a, b) for a, b in zip(snapshots, fresh_snapshots))


def test_mutating_returned_states_leaves_a_second_run_unchanged():
    M = 8
    cfg = FlowConfig(dt=1e-3, t_end=0.02, record_interval=0.01)
    q0 = _criterion_8_batch(M, 3)
    kept = q0.copy()
    _, _, q_final, snapshots = evolve_vec(q0, M, cfg)
    want_final, want_snapshots = q_final.copy(), [s.copy() for s in snapshots]
    q_final[...] = np.nan
    for s in snapshots:
        s[...] = np.nan
    _, _, again_final, again_snapshots = evolve_vec(q0, M, cfg)
    assert np.array_equal(q0, kept)
    assert np.array_equal(again_final, want_final)
    assert all(np.array_equal(a, b) for a, b in zip(again_snapshots, want_snapshots))


def _direct_nonlinear(q, M):
    """-i j / (2 pi) * sum over a - b + c = j of q_a conj(q_b) q_c, in mode space."""
    modes = np.array(mode_range(M))
    a, b, c = np.meshgrid(modes, modes, modes, indexing="ij")
    j = (a - b + c).ravel()
    terms = np.einsum("a,b,c->abc", q, np.conj(q), q).ravel()
    inside = np.abs(j) <= M
    total = np.zeros(4 * M + 1, dtype=complex)
    np.add.at(total, j[inside] + 2 * M, terms[inside])
    return -1j * modes / TWO_PI * total[modes + 2 * M]


def _pair_sum_quartic_energy(q, M):
    """(1/4pi) * sum over zero-momentum quadruples of q_a q_b conj(q_c q_d), in
    mode space: through the pair sums A_t = sum over a + b = t of q_a q_b it
    is the manifestly nonnegative (1/4pi) * sum_t |A_t|^2."""
    modes = np.array(mode_range(M))
    pair = np.zeros(4 * M + 1, dtype=complex)
    np.add.at(pair, np.add.outer(modes, modes).ravel() + 2 * M, np.outer(q, q).ravel())
    return float(np.sum(np.abs(pair) ** 2)) / (4 * math.pi)


@pytest.mark.parametrize("M", [1, 2, 3, 5, 6, 8])
def test_nonlinear_and_quartic_energy_match_mode_space_sums(M):
    # independent of the grid: odd sizes (25 at M = 6) and the smallest ones
    model = spectral_model(M)
    rng = np.random.default_rng(M)
    q = rng.normal(size=(2, 2 * M)) + 1j * rng.normal(size=(2, 2 * M))
    got = model.nonlinear(q)
    energy = model.quartic_energy(q)
    for member in range(2):
        want = _direct_nonlinear(q[member], M)
        assert np.linalg.norm(got[member] - want) <= 1e-13 * np.linalg.norm(want)
        assert energy[member] == pytest.approx(_pair_sum_quartic_energy(q[member], M), rel=1e-13)


def test_grid_is_the_smallest_5_smooth_size_of_at_least_4m_plus_1():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for M in range(1, 65):
        n = spectral_model(M).n_grid
        assert n >= 4 * M + 1 and smooth(n)
        assert not any(smooth(k) for k in range(4 * M + 1, n))
    assert spectral_model(6).n_grid == 25


def test_conservation_drift_small():
    M = 8
    rng = np.random.default_rng(2)
    amp = {j: 0.3 * complex(rng.normal(), rng.normal()) / abs(j) for j in mode_range(M)}
    cfg = FlowConfig(dt=1e-3, t_end=5.0, record_interval=0.5)
    _, channels, _, _ = evolve_vec(state_vector(amp, M), M, cfg, track_s=(2.0,))
    mass = channels["mass"]
    energy = channels["energy"]
    assert np.max(np.abs(mass - mass[0])) < 1e-9
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8


def test_momentum_conserved_for_plane_wave():
    k, A = 1, 0.4
    M = 4
    q0 = state_vector({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=2.0, record_interval=0.25)
    _, channels, _, _ = evolve_vec(q0, M, cfg)
    mom = channels["momentum"]
    assert np.max(np.abs(mom - mom[0])) < 1e-11


def test_zero_mean_structural():
    # the grid transform never populates a zero mode: modes are nonzero ints
    model = spectral_model(4)
    assert 0 not in model.modes


def test_blowup_guard():
    M = 16
    q0 = state_vector({1: 2.0}, M)
    cfg = FlowConfig(dt=0.3, t_end=60.0, record_interval=0.3)
    with pytest.raises(BlowupError):
        evolve_vec(q0, M, cfg)


def test_step_budget():
    q0 = state_vector({1: 0.1}, 2)
    cfg = FlowConfig(dt=1e-6, t_end=100.0)
    with pytest.raises(StepBudgetError):
        evolve_vec(q0, 2, cfg)


# -- residuals -----------------------------------------------------------------------


def test_residual_zero_state(bundle8):
    cfg = FlowConfig(dt=0.05, tolerance=1e-12)
    vec = np.zeros(16, dtype=complex)
    assert transformed_hamiltonian_residual(vec, 4, cfg, bundle8) == 0.0
    assert transformed_hamiltonian_residual(vec, 6, cfg, bundle8) == 0.0


def test_residual_rejects_bad_order(bundle8):
    vec = np.zeros(16, dtype=complex)
    with pytest.raises(ValueError, match="order must be 4 or 6"):
        transformed_hamiltonian_residual(vec, 5, CFG, bundle8)
    with pytest.raises(ValueError, match="order must be 4 or 6"):
        coordinate_change(vec, 2, CFG, bundle8)


def test_residual_scaling_two_rungs(bundle8):
    rep = residual_scaling(
        8,
        orders=(4,),
        lambdas=(0.25, 0.125),
        cfg=FlowConfig(dt=0.02, tolerance=1e-15, max_refinements=8),
    )
    assert 5.7 <= rep["slopes"][4] <= 6.3


def test_ladder_residuals_match_the_extended_precision_field(monkeypatch):
    """Criterion 6's ladder at M = 6 with the benchmark's settings, pinned.

    tests/golden/ladder_m6.json holds the ten residuals and both slopes as
    computed at commit 116d240, where the generator fields were evaluated in
    clongdouble; they are now evaluated in complex128 under a clongdouble
    state.  The two agree to 3.1e-12 relative at most (seven of the ten
    residuals to every float64 digit).  Applying each row's last factor
    after the per-(component, last factor) sums moved a residual by at
    most 2.0e-10 relative (order 6, lambda = 2**-3 and 2**-5).  rtol 1e-8
    leaves room for another platform's rounding of the complex128 field,
    while a change to the generators, the flow or the normal form moves a
    residual by far more: neighbouring rungs differ by factors of 64 to
    256.  Every time-1 map must still stop at its first doubling,
    n = 100 -> 200 steps.
    """
    from dnls_nflab import flows

    golden = json.loads((Path(__file__).parent / "golden" / "ladder_m6.json").read_text())
    steps = []
    rk4 = flows._rk4_poly

    def recording(F, vec, t_end, n_steps):
        steps.append(n_steps)
        return rk4(F, vec, t_end, n_steps)

    monkeypatch.setattr(flows, "_rk4_poly", recording)
    cfg = FlowConfig(dt=golden["flow_dt"], tolerance=golden["flow_tolerance"],
                     max_refinements=golden["max_refinements"])
    rep = residual_scaling(golden["M"], orders=(4, 6), lambdas=tuple(golden["lambdas"]),
                           cfg=cfg, seed=golden["seed"])
    assert [(r["order"], r["lambda"]) for r in rep["rows"]] == [
        (r["order"], r["lambda"]) for r in golden["rows"]
    ]
    for got, want in zip(rep["rows"], golden["rows"]):
        assert got["residual"] == pytest.approx(want["residual"], rel=1e-8, abs=0)
    assert 5.7 <= rep["slopes"][4] <= 6.3 and 7.6 <= rep["slopes"][6] <= 8.4
    # one map per order-4 rung, two (F6, then F4) per order-6 rung
    assert steps == [100, 200] * 15
