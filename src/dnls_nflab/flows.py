"""Numerical Hamiltonian flows: generator time-1 maps and the Galerkin
evolution of the derivative NLS with conservation tracking.

Two integrators: a fixed-step classic RK4 with Richardson step-halving for
the polynomial generator flows (the time-1 maps need accuracy, not long-time
structure), and a Lawson (integrating-factor) RK4 for the PDE evolution,
which applies the stiff linear phases exp(-i j^2 t) exactly and integrates
only the nonlinearity.  The cubic term is evaluated pseudospectrally on a
grid of at least 4M+1 points, which makes its window coefficients exact
(alias images of a 3M-band product land outside the window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .order4 import build_F4, compute_R6
from .order6 import build_F6, build_K
from .poly import (
    PolyHamiltonian,
    build_B_closed_form,
    build_G,
    build_lambda,
    evaluate_poly,
    vector_field_vec,
)
from .states import TWO_PI, FourierState, mode_range


class FlowError(RuntimeError):
    pass


class FlowConvergenceError(FlowError):
    pass


class BlowupError(FlowError):
    pass


class StepBudgetError(FlowError):
    pass


# the most Lawson steps one PDE integration may take
MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 0.02
    t_end: float = 1.0
    tolerance: float = 1e-12
    max_refinements: int = 14
    record_interval: float | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


# -- polynomial generator flows ------------------------------------------------------


def _rk4_step(f, v: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of v' = f(v)."""
    k1 = f(v)
    k2 = f(v + (h / 2) * k1)
    k3 = f(v + (h / 2) * k2)
    k4 = f(v + h * k3)
    return v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_poly(F: PolyHamiltonian, vec: np.ndarray, t_end: float, n_steps: int) -> np.ndarray:
    h = t_end / n_steps
    field = partial(vector_field_vec, F)
    v = vec
    for _ in range(n_steps):
        v = _rk4_step(field, v, h)
    return v


def flow_time_one_vec(
    F: PolyHamiltonian, vec: np.ndarray, cfg: FlowConfig, t_end: float | None = None
) -> np.ndarray:
    """Flow of the Hamiltonian vector field of F, on a dense state vector.

    Classic RK4 with step doubling until two successive refinements agree to
    cfg.tolerance in l2.  The dtype of vec is respected, so extended
    precision states integrate in extended precision.
    """
    t = cfg.t_end if t_end is None else t_end
    if t == 0 or F.is_zero:
        return vec.copy()
    n = max(1, round(abs(t) / cfg.dt))
    current = _rk4_poly(F, vec, t, n)
    for _ in range(cfg.max_refinements):
        n *= 2
        finer = _rk4_poly(F, vec, t, n)
        err = float(np.linalg.norm((finer - current).astype(np.complex128)))
        current = finer
        if err < cfg.tolerance:
            return current
    raise FlowConvergenceError(
        f"flow did not reach tolerance {cfg.tolerance} after "
        f"{cfg.max_refinements} refinements (last error {err:.3e})"
    )


# -- spectral model of the PDE ----------------------------------------------------------


class SpectralModel:
    """Pseudospectral machinery for one truncation M."""

    def __init__(self, M: int):
        self.M = M
        self.modes = np.array(mode_range(M), dtype=np.int64)
        self.minus_i_modes = -1j * self.modes
        need = 4 * M + 2
        n = 1
        while n < need:
            n *= 2
        self.n_grid = n
        self.bins = np.mod(self.modes, self.n_grid)
        self.jsq = (self.modes**2).astype(float)
        self._scatter = np.zeros(0, dtype=complex)

    def to_grid(self, q: np.ndarray) -> np.ndarray:
        # one zero buffer per batch shape: only the window bins are ever written
        shape = q.shape[:-1] + (self.n_grid,)
        if self._scatter.shape != shape:
            self._scatter = np.zeros(shape, dtype=complex)
        self._scatter[..., self.bins] = q
        return np.fft.ifft(self._scatter, axis=-1) * (self.n_grid / math.sqrt(TWO_PI))

    def nonlinear(self, q: np.ndarray) -> np.ndarray:
        """Derivative nonlinearity in mode coordinates: -i j (|u|^2 u)^_j."""
        u = self.to_grid(q)
        w = (np.abs(u) ** 2) * u
        w_hat = np.fft.fft(w, axis=-1)[..., self.bins] * (math.sqrt(TWO_PI) / self.n_grid)
        return self.minus_i_modes * w_hat

    def quartic_energy(self, q: np.ndarray) -> np.ndarray:
        u = self.to_grid(q)
        return 0.5 * (TWO_PI / self.n_grid) * np.sum(np.abs(u) ** 4, axis=-1)

    def sobolev_sq(self, q: np.ndarray, s: float) -> np.ndarray:
        return np.sum(np.abs(q) ** 2 * np.abs(self.modes) ** (2.0 * s), axis=-1)


_models: dict[int, SpectralModel] = {}


def spectral_model(M: int) -> SpectralModel:
    if M not in _models:
        _models[M] = SpectralModel(M)
    return _models[M]


def _channel_values(model, q, track_s):
    out = {
        "mass": np.sum(np.abs(q) ** 2, axis=-1),
        "momentum": np.sum(model.modes * np.abs(q) ** 2, axis=-1),
        "energy": np.sum(model.modes * np.abs(q) ** 2, axis=-1) + model.quartic_energy(q),
    }
    for s in track_s:
        out[f"norm_s{s:g}"] = np.sqrt(model.sobolev_sq(q, s))
    return out


def evolve_vec(
    q0: np.ndarray,
    M: int,
    cfg: FlowConfig,
    track_s: tuple[float, ...] = (),
):
    """Integrate the Galerkin system from a dense (possibly batched) vector
    with the Lawson RK4 step.

    Returns (times, channels, q_final, snapshots): channel arrays have shape
    (n_records, *batch) and snapshots holds a copy of the state at each
    record point.  Raises BlowupError if the l2 norm exceeds 1000x its
    initial value or is not finite, and StepBudgetError if the step count
    exceeds MAX_STEPS.
    """
    model = spectral_model(M)
    q = np.array(q0, dtype=complex)
    t_end = cfg.t_end
    n_steps = max(1, round(abs(t_end) / cfg.dt))
    if n_steps > MAX_STEPS:
        raise StepBudgetError(
            f"{n_steps} steps needed, budget is {MAX_STEPS}"
        )
    h = t_end / n_steps
    interval = cfg.record_interval
    if interval is None:
        interval = max(abs(h), abs(t_end) / 1024)
    stride = max(1, round(interval / abs(h)))

    E = np.exp(-1j * model.jsq * h)
    Eh = np.exp(-1j * model.jsq * (h / 2))
    h_Eh, two_Eh = h * Eh, 2 * Eh

    def step(q):
        # E q + (h/6)(E k1 + 2 Eh (k2 + k3) + k4) with the stages
        #   k2 = N(Eh (q + (h/2) k1)), k3 = N(Eh q + (h/2) k2),
        #   k4 = N(E q + h Eh k3),
        # reusing temporaries.  Only additions are swapped: the complex
        # products keep their operand order, which can set the last bit.
        Eq = E * q
        k1 = model.nonlinear(q)
        x = (h / 2) * k1
        x += q
        k2 = model.nonlinear(np.multiply(Eh, x, out=x))
        x = Eh * q
        x += (h / 2) * k2
        k3 = model.nonlinear(x)
        x = h_Eh * k3
        x += Eq
        k4 = model.nonlinear(x)
        k2 += k3
        x = E * k1
        x += np.multiply(two_Eh, k2, out=k2)
        x += k4
        np.multiply(h / 6, x, out=x)
        x += Eq
        return x

    initial_l2 = np.sqrt(np.max(np.sum(np.abs(q) ** 2, axis=-1)))
    times = [0.0]
    recs = [_channel_values(model, q, track_s)]
    snapshots = [q.copy()]
    for i in range(1, n_steps + 1):
        q = step(q)
        if i % stride == 0 or i == n_steps:
            t = i * h
            l2 = np.sqrt(np.max(np.sum(np.abs(q) ** 2, axis=-1)))
            if not l2 <= 1e3 * max(initial_l2, 1e-300):
                raise BlowupError(
                    f"norm grew to {l2:.3e} at t={t:.6g} "
                    f"(initial {initial_l2:.3e}); aborting"
                )
            times.append(t)
            recs.append(_channel_values(model, q, track_s))
            snapshots.append(q.copy())
    channels = {
        name: np.array([r[name] for r in recs]) for name in recs[0]
    }
    return np.array(times), channels, q, snapshots


# -- normal-form machinery bundle ----------------------------------------------------------


class NormalFormBundle:
    """Lazily built generators and Hamiltonians at one truncation."""

    def __init__(self, M: int):
        self.M = M

    @cached_property
    def lam(self) -> PolyHamiltonian:
        return build_lambda(self.M)

    @cached_property
    def G(self) -> PolyHamiltonian:
        return build_G(self.M)

    @cached_property
    def B(self) -> PolyHamiltonian:
        return build_B_closed_form(self.M)

    @cached_property
    def F4(self) -> PolyHamiltonian:
        return build_F4(self.M)

    @cached_property
    def r6(self) -> PolyHamiltonian:
        return compute_R6(self.M)

    @cached_property
    def K(self) -> PolyHamiltonian:
        return build_K(self.M)

    @cached_property
    def F6(self) -> PolyHamiltonian:
        return build_F6(self.M, self.r6)

    @cached_property
    def H(self) -> PolyHamiltonian:
        return self.lam + self.G

    @cached_property
    def lam_B(self) -> PolyHamiltonian:
        return self.lam + self.B

    @cached_property
    def lam_B_K(self) -> PolyHamiltonian:
        return self.lam + self.B + self.K


_bundles: dict[int, NormalFormBundle] = {}


def normal_form_bundle(M: int) -> NormalFormBundle:
    if M not in _bundles:
        _bundles[M] = NormalFormBundle(M)
    return _bundles[M]


# -- transformed-Hamiltonian residuals ---------------------------------------------------------


def transformed_hamiltonian_residual(
    q0: FourierState,
    order: int,
    cfg: FlowConfig,
    bundle: NormalFormBundle | None = None,
) -> float:
    """|H(transformed state) - normal form at q0|.

    Order 4 evaluates H after the quartic generator's time-1 map and
    subtracts Lambda + B; order 6 applies the sextic map first, then the
    quartic one, and subtracts Lambda + B + K.  The state is integrated in
    clongdouble, which keeps the cancellation floor below the smallest
    residuals on the scaling ladder.
    """
    if order not in (4, 6):
        raise ValueError("order must be 4 or 6")
    M = q0.truncation
    nf = bundle or normal_form_bundle(M)
    vec = q0.to_vector().astype(np.clongdouble)
    moved = vec
    if order == 6:
        moved = flow_time_one_vec(nf.F6, moved, cfg)
    moved = flow_time_one_vec(nf.F4, moved, cfg)
    h_val = evaluate_poly(nf.H, moved)
    ref_poly = nf.lam_B if order == 4 else nf.lam_B_K
    ref = evaluate_poly(ref_poly, vec)
    return float(abs(complex(h_val - ref)))


def scaling_base_state(
    M: int,
    seed: int,
    norm: float = 1.0,
    support_radius: int | None = None,
) -> FourierState:
    """Reproducible smooth profile: |j|^-2 with random phases, l2-normalized.

    support_radius restricts the populated modes to |j| <= radius inside the
    larger truncation M.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    radius = min(M, support_radius or M)
    modes = mode_range(radius)
    phases = rng.uniform(0.0, TWO_PI, size=len(modes))
    amp = {
        j: abs(j) ** (-2.0) * np.exp(1j * p) for j, p in zip(modes, phases)
    }
    scale = norm / math.sqrt(sum(abs(v) ** 2 for v in amp.values()))
    return FourierState({j: v * scale for j, v in amp.items()}, M)


def residual_scaling(
    M: int,
    orders: tuple[int, ...] = (4, 6),
    lambdas: tuple[float, ...] = (2**-2, 2**-3, 2**-4, 2**-5, 2**-6),
    cfg: FlowConfig | None = None,
    seed: int = 20200523,
) -> dict:
    """Residual magnitude along an amplitude ladder, with fitted slopes.

    The log-log slope against the scaling factor is the dynamical check that
    the residual after each step vanishes to the advertised order.

    The base data is supported on modes |j| <= max(1, M // 3).  Degree-6
    coefficients of the truncated system agree with the untruncated ones only
    when every contraction mode fits inside the truncation; restricting the
    data support makes that exact, so no spurious sixth-order term leaks into
    the order-6 residual from the truncation edge.
    """
    cfg = cfg or FlowConfig(dt=0.01, tolerance=1e-16, max_refinements=10)
    nf = normal_form_bundle(M)
    radius = max(1, M // 3)
    base = scaling_base_state(M, seed=seed, support_radius=radius)
    base_vec = base.to_vector()
    rows = []
    slopes = {}
    for order in orders:
        residuals = []
        for lam in lambdas:
            state = FourierState.from_vector(lam * base_vec, M)
            r = transformed_hamiltonian_residual(state, order, cfg, nf)
            residuals.append(r)
            rows.append({"order": order, "lambda": lam, "residual": r})
        logs = np.log2(np.array(residuals))
        xs = np.log2(np.array(lambdas))
        slope = float(np.polyfit(xs, logs, 1)[0])
        slopes[order] = slope
    return {
        "rows": rows,
        "slopes": slopes,
        "lambdas": list(lambdas),
        "M": M,
        "seed": seed,
        "data_radius": radius,
        "flow_dt": cfg.dt,
        "flow_tolerance": cfg.tolerance,
    }
