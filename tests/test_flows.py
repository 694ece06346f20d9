import math

import numpy as np
import pytest

from dnls_nflab.flows import (
    BlowupError,
    FlowConfig,
    FlowConvergenceError,
    StepBudgetError,
    dnls_evolve,
    evolve_vec,
    flow_time_one_vec,
    residual_scaling,
    scaling_base_state,
    spectral_model,
    transformed_hamiltonian_residual,
)
from dnls_nflab.poly import PolyHamiltonian, build_lambda
from dnls_nflab.states import TWO_PI, FourierState, mode_range

CFG = FlowConfig(dt=0.05, tolerance=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(scheme="leapfrog")


def test_zero_generator_is_identity():
    vec = FourierState({1: 0.3, -2: 0.1j}, 3).to_vector()
    assert np.array_equal(flow_time_one_vec(PolyHamiltonian.zero(3), vec, CFG), vec)


def test_lambda_flow_is_linear_rotation():
    M = 4
    st = FourierState({1: 0.5 + 0.2j, -3: 0.1j}, M)
    out = FourierState.from_vector(flow_time_one_vec(build_lambda(M), st.to_vector(), CFG), M)
    for j, v in st.items():
        assert out.amplitude(j) == pytest.approx(v * np.exp(-1j * j * j), abs=1e-11)


def test_flow_group_property(bundle8):
    vec = scaling_base_state(8, seed=3, norm=0.4).to_vector()
    fwd = flow_time_one_vec(bundle8.F4, vec, CFG)
    back = flow_time_one_vec(bundle8.F4, fwd, CFG, t_end=-1.0)
    err = np.linalg.norm(back - vec)
    assert err < 10 * CFG.tolerance


def test_action_preservation_under_action_only_flow(bundle8):
    # B depends on actions only, so |q_j| is constant along its exact flow
    st = scaling_base_state(8, seed=4, norm=0.5)
    out = FourierState.from_vector(flow_time_one_vec(bundle8.B, st.to_vector(), CFG), 8)
    for j, v in st.items():
        assert abs(out.amplitude(j)) == pytest.approx(abs(v), abs=1e-10)


def test_flow_convergence_error():
    st = FourierState({1: 1.0}, 2)
    cfg = FlowConfig(dt=0.5, tolerance=1e-30, max_refinements=2)
    from dnls_nflab.poly import build_G

    with pytest.raises(FlowConvergenceError):
        flow_time_one_vec(build_G(2), st.to_vector(), cfg)


# -- PDE evolution ------------------------------------------------------------------


def test_plane_wave_dispersion():
    # u = A e^{i(kx - omega t)} with omega = k^2 + |A|^2 k
    k, A = 2, 0.35
    M = 8
    q0 = FourierState({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=3.0)
    _, _, qf, _ = evolve_vec(q0.to_vector(), M, cfg)
    omega = k * k + A * A * k
    expected = q0.to_vector() * np.exp(-1j * omega * cfg.t_end)
    rel = np.linalg.norm(qf - expected) / np.linalg.norm(expected)
    assert rel < 1e-10


def _reference_lawson(q, M, h, n_steps):
    """The integrating-factor RK4 step written out plainly: a fresh scatter
    buffer per transform and every product formed where it is used."""
    model = spectral_model(M)

    def nonlinear(q):
        buf = np.zeros(q.shape[:-1] + (model.n_grid,), dtype=complex)
        buf[..., model.bins] = q
        u = np.fft.ifft(buf, axis=-1) * (model.n_grid / math.sqrt(TWO_PI))
        w = (np.abs(u) ** 2) * u
        w_hat = np.fft.fft(w, axis=-1)[..., model.bins] * (math.sqrt(TWO_PI) / model.n_grid)
        return -1j * model.modes * w_hat

    E = np.exp(-1j * model.jsq * h)
    Eh = np.exp(-1j * model.jsq * (h / 2))
    for _ in range(n_steps):
        k1 = nonlinear(q)
        k2 = nonlinear(Eh * (q + (h / 2) * k1))
        k3 = nonlinear(Eh * q + (h / 2) * k2)
        k4 = nonlinear(E * q + h * Eh * k3)
        q = E * q + (h / 6) * (E * k1 + 2 * Eh * (k2 + k3) + k4)
    return q


def test_lawson_step_is_bit_identical_to_the_plain_step():
    # criterion 8's size and batch: M = 32, three members, dt = 1e-3
    M, n_steps = 32, 500
    rng = np.random.default_rng(11)
    modes = np.abs(np.array(mode_range(M)))
    q0 = 0.3 * (rng.normal(size=(3, 2 * M)) + 1j * rng.normal(size=(3, 2 * M))) / modes**2
    cfg = FlowConfig(dt=1e-3, t_end=n_steps * 1e-3, record_interval=0.1)
    _, _, q_final, _ = evolve_vec(q0, M, cfg)
    h = cfg.t_end / n_steps
    assert np.array_equal(q_final, _reference_lawson(q0.astype(complex), M, h, n_steps))


def test_conservation_drift_small():
    M = 8
    rng = np.random.default_rng(2)
    amp = {j: 0.3 * complex(rng.normal(), rng.normal()) / abs(j) for j in mode_range(M)}
    q0 = FourierState(amp, M)
    cfg = FlowConfig(dt=1e-3, t_end=5.0, record_interval=0.5)
    rec = dnls_evolve(q0, cfg, track_s=(2.0,))
    mass = rec.channel("mass")
    energy = rec.channel("energy")
    assert np.max(np.abs(mass - mass[0])) < 1e-9
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8


def test_drift_shrinks_with_dt():
    # plain RK4 drift scales like dt^4; halving dt cuts it ~16x
    M = 6
    rng = np.random.default_rng(4)
    amp = {j: 0.6 * complex(rng.normal(), rng.normal()) / abs(j) for j in mode_range(M)}
    q0 = FourierState(amp, M).to_vector()
    drifts = []
    for dt in (0.02, 0.01):
        cfg = FlowConfig(dt=dt, t_end=4.0, scheme="rk4-plain", record_interval=4.0)
        _, ch, _, _ = evolve_vec(q0, M, cfg)
        drifts.append(abs(ch["mass"][-1] - ch["mass"][0]))
    factor = drifts[0] / drifts[1]
    assert 8 < factor < 32


def test_momentum_conserved_for_plane_wave():
    k, A = 1, 0.4
    M = 4
    q0 = FourierState({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=2.0, record_interval=0.25)
    rec = dnls_evolve(q0, cfg)
    mom = rec.channel("momentum")
    assert np.max(np.abs(mom - mom[0])) < 1e-11


def test_zero_mean_structural():
    # the grid transform never populates a zero mode: modes are nonzero ints
    model = spectral_model(4)
    assert 0 not in model.modes


def test_blowup_guard():
    M = 16
    q0 = FourierState({1: 2.0}, M)
    cfg = FlowConfig(dt=0.3, t_end=60.0, scheme="rk4-plain", record_interval=0.3)
    with pytest.raises(BlowupError):
        evolve_vec(q0.to_vector(), M, cfg)


def test_step_budget():
    q0 = FourierState({1: 0.1}, 2)
    cfg = FlowConfig(dt=1e-6, t_end=10.0, max_steps=1000)
    with pytest.raises(StepBudgetError):
        evolve_vec(q0.to_vector(), 2, cfg)


def test_linear_scheme_is_isometry():
    M = 8
    rng = np.random.default_rng(5)
    amp = {j: complex(rng.normal(), rng.normal()) for j in mode_range(M)}
    q0 = FourierState(amp, M)
    cfg = FlowConfig(dt=1e-2, t_end=7.0, record_interval=1.0)
    rec = dnls_evolve(q0, cfg, track_s=(3.0,), nonlinear=False)
    norms = rec.channel("norm_s3")
    assert np.max(np.abs(norms / norms[0] - 1.0)) < 1e-9


# -- residuals -----------------------------------------------------------------------


def test_residual_zero_state(bundle8):
    cfg = FlowConfig(dt=0.05, tolerance=1e-12)
    st = FourierState.zero(8)
    assert transformed_hamiltonian_residual(st, 4, cfg, bundle8) == 0.0
    assert transformed_hamiltonian_residual(st, 6, cfg, bundle8) == 0.0


def test_residual_rejects_bad_order(bundle8):
    with pytest.raises(ValueError):
        transformed_hamiltonian_residual(FourierState.zero(8), 5, CFG, bundle8)


def test_residual_scaling_two_rungs(bundle8):
    rep = residual_scaling(
        8,
        orders=(4,),
        lambdas=(0.25, 0.125),
        cfg=FlowConfig(dt=0.02, tolerance=1e-15, max_refinements=8),
    )
    assert 5.7 <= rep["slopes"][4] <= 6.3
