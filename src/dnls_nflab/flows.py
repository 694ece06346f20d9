"""Numerical Hamiltonian flows: generator time-1 maps and the Galerkin
evolution of the derivative NLS with conservation tracking.

Two integrators: a fixed-step classic RK4 with Richardson step-halving for
the polynomial generator flows (the time-1 maps need accuracy, not long-time
structure), and a Lawson (integrating-factor) RK4 for the PDE evolution,
which applies the stiff linear phases exp(-i j^2 t) exactly and integrates
only the nonlinearity.  The cubic term is evaluated pseudospectrally on the
smallest grid of at least 4M+1 points whose size has no prime factor above
5 (a fast FFT size; 135 at M = 32).  At least 4M+1 points make its window
coefficients exact (alias images of a 3M-band product land outside the
window) and the trapezoid sum of |u|^4, a 4M-band integrand, exact too.
The Lawson step is grid-resident: the state stays in the grid's bins, zero
outside the window, and every stage, product and FFT writes into buffers
allocated once per evolve_vec call, so only the records are gathered back
to the window.  SpectralModel.grid_kernel(shape) returns the one kernel
N(Q, out) of the nonlinearity, which owns its S and |S|^2 buffers.  It
calls numpy's pocketfft ufuncs, the ones np.fft.fft and np.fft.ifft
dispatch to, with the scale factor 1 that both wrappers pass here.  The
wrappers' argument handling (norm lookup, shape checks, array-function
dispatch) adds about 2.5 us to a 4 us transform on the 135-point grid at
batch 3 (2-CPU VM, numpy 2.4), and the step makes eight transforms.  The
results are the wrappers' bit for bit.

A generator flow keeps its state in the caller's dtype, and
vector_field_vec casts the state to complex128 and returns a complex128
field: a clongdouble state accumulates every RK4 stage and step in
clongdouble, while its field costs complex128 multiplies.  A
field rounded to eps64 relative moves the state by about eps64 |X_F| h per
stage, so the time-1 map carries an error of about eps64 |displacement|;
on the scaling ladder that changes H by far less than the smallest
residual.  It is also a floor of the step-doubling error, next to the
state's own rounding of about eps |v| per step: a tolerance below it ends
in FlowConvergenceError, not in a wrong map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

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
from .states import TWO_PI, mode_range


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
        # each test is written so that NaN fails it
        for name in ("dt", "tolerance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if not self.max_refinements >= 1:
            raise ValueError("max_refinements must be at least 1")
        if self.record_interval is not None and not 0 < self.record_interval < math.inf:
            raise ValueError("record_interval must be finite and positive")


# -- polynomial generator flows ------------------------------------------------------


def _rk4_step(f, v: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of v' = f(v)."""
    k1 = f(v)
    k2 = f(v + (h / 2) * k1)
    k3 = f(v + (h / 2) * k2)
    k4 = f(v + h * k3)
    return v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_poly(F: PolyHamiltonian, vec: np.ndarray, t_end: float, n_steps: int) -> np.ndarray:
    """n_steps RK4 steps of F's flow; vector_field_vec evaluates the field
    in complex128 and each stage and step is combined in the state's
    (complex) dtype."""
    h = t_end / n_steps
    dtype = np.result_type(vec.dtype, np.complex128)

    def field(v):
        return vector_field_vec(F, v).astype(dtype, copy=False)

    v = vec
    for _ in range(n_steps):
        v = _rk4_step(field, v, h)
    return v


def flow_time_one_vec(F: PolyHamiltonian, vec: np.ndarray, cfg: FlowConfig) -> np.ndarray:
    """Time-cfg.t_end map of the Hamiltonian flow of F, on a dense vector.

    Classic RK4 with step doubling until two successive refinements agree to
    cfg.tolerance in l2.  The state keeps the dtype of vec, so a clongdouble
    state accumulates in extended precision, while vector_field_vec always
    evaluates the field in complex128 (it casts a clongdouble state itself).
    The step-doubling error therefore has a floor of about
    eps64 |displacement| (eps64 = 2**-52), next to the state's own rounding
    of about eps |v| per step: a cfg.tolerance below it raises
    FlowConvergenceError rather than returning an unconverged map.
    """
    t = cfg.t_end
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

# numpy's own pocketfft ufuncs, which np.fft.fft and np.fft.ifft call after
# their argument handling: fft(a, fct, out=) and ifft(a, fct, out=) transform
# the last axis and scale by fct, which both wrappers set to 1 here
try:
    _fft, _ifft = _pocketfft_umath.fft, _pocketfft_umath.ifft
except AttributeError as exc:
    raise ImportError(
        f"numpy {np.__version__}: numpy.fft._pocketfft_umath has no fft/ifft ufuncs"
    ) from exc


def _five_smooth_at_least(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class SpectralModel:
    """Pseudospectral machinery for one truncation M.

    The grid holds S = sqrt(2 pi) u, the unscaled inverse DFT of the window
    (modes -M..-1 in the top M bins, 1..M in bins 1..M), so that
    -i j (|u|^2 u)^_j = -i j / (2 pi n) DFT(|S|^2 S)_j.  A state in grid
    layout holds its window in those bins and zeros in the others.
    """

    def __init__(self, M: int):
        self.M = M
        self.modes = np.array(mode_range(M), dtype=np.int64)
        self.n_grid = _five_smooth_at_least(4 * M + 1)
        self.bins = np.mod(self.modes, self.n_grid)
        self.jsq = (self.modes**2).astype(float)
        self.grid_weight = self.to_grid(-1j * self.modes / (TWO_PI * self.n_grid))

    def _check_window(self, q) -> None:
        """Raise ValueError unless the last axis of q holds one entry per
        mode: numpy would broadcast a length-1 axis into every mode."""
        shape = np.shape(q)
        if shape[-1:] != (2 * self.M,):
            raise ValueError(
                f"state of shape {shape} does not fit truncation {self.M}: "
                f"its last axis needs {2 * self.M} entries, one per mode"
            )

    def to_grid(self, q: np.ndarray) -> np.ndarray:
        """A fresh grid-layout copy Q of window-layout q; Q[..., bins]
        gathers it back.  Raises ValueError unless the last axis of q has
        one entry per mode."""
        self._check_window(q)
        grid = np.zeros(q.shape[:-1] + (self.n_grid,), dtype=complex)
        grid[..., self.bins] = q
        return grid

    def grid_kernel(self, shape: tuple[int, ...]):
        """N(Q, out): the nonlinearity of grid-layout states of this shape,
        written into out in grid layout (out may be Q): S = ifft(Q),
        S |S|^2 with |S|^2 = re^2 + im^2, its fft, times the grid weight
        -i j / (2 pi n), zero outside the window.  The closure owns its S
        and |S|^2 buffers, so each kernel serves one caller at a time."""
        S = np.empty(shape, dtype=complex)
        re, im = S.real, S.imag
        sq, sq_im = np.empty((2, *shape))
        weight = self.grid_weight
        square, add, mul = np.square, np.add, np.multiply

        def N(Q: np.ndarray, out: np.ndarray) -> np.ndarray:
            _ifft(Q, 1.0, out=S)
            mul(S, add(square(re, out=sq), square(im, out=sq_im), out=sq), out=S)
            _fft(S, 1.0, out=out)
            return mul(out, weight, out=out)

        return N

    def nonlinear(self, q: np.ndarray) -> np.ndarray:
        """Derivative nonlinearity in mode coordinates: -i j (|u|^2 u)^_j.
        Raises ValueError as to_grid does."""
        Q = self.to_grid(q)
        return self.grid_kernel(Q.shape)(Q, Q)[..., self.bins]

    def quartic_energy(self, q: np.ndarray) -> np.ndarray:
        """(1/2) int |u|^4 by the trapezoid rule, exact on 4M+1 or more points."""
        Q = self.to_grid(q)
        S = _ifft(Q, 1.0, out=Q)
        sq = S.real**2 + S.imag**2
        return np.sum(sq * sq, axis=-1) / (2 * TWO_PI * self.n_grid)

    def sobolev_sq(self, q: np.ndarray, s: float) -> np.ndarray:
        """The squared s-norm sum |j|^(2s) |q_j|^2 over the last axis; s >= 0.
        Raises ValueError unless that axis has one entry per mode."""
        if s < 0:
            raise ValueError(f"Sobolev index must be nonnegative, got {s}")
        self._check_window(q)
        return np.sum(np.abs(q) ** 2 * np.abs(self.modes) ** (2.0 * s), axis=-1)


_models: dict[int, SpectralModel] = {}


def spectral_model(M: int) -> SpectralModel:
    if M not in _models:
        _models[M] = SpectralModel(M)
    return _models[M]


def _channel_values(model, q, track_s):
    sq = np.abs(q) ** 2
    momentum = np.sum(model.modes * sq, axis=-1)
    out = {
        "mass": np.sum(sq, axis=-1),
        "momentum": momentum,
        "energy": momentum + model.quartic_energy(q),
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
    initial value or is not finite, StepBudgetError if the step count
    exceeds MAX_STEPS, and ValueError unless the last axis of q0 has one
    entry per mode (see SpectralModel.to_grid).  At t_end = 0 no step is
    taken: the t = 0 record is the only one and q_final is a copy of q0.
    """
    model = spectral_model(M)
    q = np.array(q0, dtype=complex)
    t_end = cfg.t_end
    steps = abs(t_end) / cfg.dt
    # the test round(steps) > MAX_STEPS (MAX_STEPS is even, so a tie rounds
    # down to it), which also holds where the ratio overflows to inf
    if steps > MAX_STEPS + 0.5:
        raise StepBudgetError(f"{steps:.0f} steps needed, budget is {MAX_STEPS}")
    n_steps = max(1, round(steps)) if t_end else 0
    h = t_end / max(1, n_steps)
    interval = cfg.record_interval
    if interval is None:
        interval = max(abs(h), abs(t_end) / 1024)
    stride = max(1, round(interval / abs(h))) if h else 1

    # E and Eh are zero outside the window, which keeps the state zero there
    E = model.to_grid(np.exp(-1j * model.jsq * h))
    Eh = model.to_grid(np.exp(-1j * model.jsq * (h / 2)))
    h_Eh, two_Eh = h * Eh, 2 * Eh
    Q = model.to_grid(q)
    x, Eq, k1, k2, k3, k4 = np.empty((6, *Q.shape), dtype=complex)
    N = model.grid_kernel(Q.shape)
    mul, add = np.multiply, np.add
    half_h, sixth_h = np.float64(h / 2), np.float64(h / 6)

    def step(q, x):
        # x = E q + (h/6)(E k1 + 2 Eh (k2 + k3) + k4) with the stages
        #   k2 = N(Eh (q + (h/2) k1)), k3 = N(Eh q + (h/2) k2),
        #   k4 = N(E q + h Eh k3).
        # Only additions are swapped: the complex products keep their
        # operand order, which can set the last bit.
        mul(E, q, out=Eq)
        N(q, k1)
        mul(half_h, k1, out=x)
        add(x, q, out=x)
        N(mul(Eh, x, out=x), k2)
        mul(Eh, q, out=x)
        add(x, mul(half_h, k2, out=k4), out=x)
        N(x, k3)
        mul(h_Eh, k3, out=x)
        add(x, Eq, out=x)
        N(x, k4)
        add(k2, k3, out=k2)
        mul(E, k1, out=x)
        add(x, mul(two_Eh, k2, out=k2), out=x)
        add(x, k4, out=x)
        mul(sixth_h, x, out=x)
        add(x, Eq, out=x)
        return x

    times = [0.0]
    recs = [_channel_values(model, q, track_s)]
    snapshots = [q.copy()]
    initial_l2 = np.sqrt(np.max(recs[0]["mass"]))
    for i in range(1, n_steps + 1):
        Q, x = step(Q, x), Q
        if i % stride == 0 or i == n_steps:
            t = i * h
            q = Q[..., model.bins]
            rec = _channel_values(model, q, track_s)
            l2 = np.sqrt(np.max(rec["mass"]))
            if not l2 <= 1e3 * max(initial_l2, 1e-300):
                raise BlowupError(
                    f"norm grew to {l2:.3e} at t={t:.6g} "
                    f"(initial {initial_l2:.3e}); aborting"
                )
            times.append(t)
            recs.append(rec)
            snapshots.append(q)
    channels = {
        name: np.array([r[name] for r in recs]) for name in recs[0]
    }
    return np.array(times), channels, Q[..., model.bins], snapshots


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


def coordinate_change(
    vec: np.ndarray, order: int, cfg: FlowConfig, bundle: NormalFormBundle
) -> np.ndarray:
    """Phi(vec): the time-cfg.t_end map of F4 at order 4, of F6 and then F4
    at order 6.  At replace(cfg, t_end=-cfg.t_end) the flows run backwards
    in reverse order, which is Phi^-1.  Raises ValueError for other orders.
    """
    if order not in (4, 6):
        raise ValueError("order must be 4 or 6")
    generators = (bundle.F4,) if order == 4 else (bundle.F6, bundle.F4)
    if cfg.t_end < 0:
        generators = generators[::-1]
    for F in generators:
        vec = flow_time_one_vec(F, vec, cfg)
    return vec


def transformed_hamiltonian_residual(
    vec: np.ndarray, order: int, cfg: FlowConfig, bundle: NormalFormBundle
) -> float:
    """|H(Phi(vec)) - normal form at vec| for the coordinate change Phi of
    this order: Lambda + B at order 4, Lambda + B + K at order 6.

    The state and both evaluations of H and of the normal form are in
    clongdouble, which keeps the cancellation floor below the smallest
    residuals on the scaling ladder; the generator fields are evaluated in
    complex128 (see flow_time_one_vec), whose error in H, about
    eps64 |X_F| |v| (|X_F|/|v| at most lambda**2 for F4 and lambda**4 for
    F6, so ~1e-22 at lambda = 2**-6), stays far below those residuals too.
    """
    vec = np.asarray(vec, dtype=np.clongdouble)
    h_val = evaluate_poly(bundle.H, coordinate_change(vec, order, cfg, bundle))
    ref = evaluate_poly(bundle.lam_B if order == 4 else bundle.lam_B_K, vec)
    return float(abs(complex(h_val - ref)))


def _random_profile(
    M: int, seed: int, decay: float, norm: float, s: float = 0.0, support_radius: int | None = None
) -> np.ndarray:
    """Amplitudes |j|^-decay with uniform random phases from a Philox stream
    keyed by seed, on the modes |j| <= support_radius (all of M when None)
    of a truncation-M state vector, scaled so that its s-norm equals norm.

    The s-norm is a sum of Python floats in ascending mode order:
    np.abs rounds some complex128 moduli one ulp away from abs, which would
    move the profiles in the last bit."""
    if support_radius is not None and support_radius < 1:
        raise ValueError(f"support_radius must be at least 1, got {support_radius}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    r = min(M, support_radius or M)
    modes = np.array(mode_range(r))
    phases = rng.uniform(0.0, TWO_PI, size=len(modes))
    amp = np.zeros(2 * M, dtype=complex)
    amp[M - r : M + r] = np.abs(modes) ** -decay * np.exp(1j * phases)
    total = sum(abs(v) ** 2 * abs(j) ** (2.0 * s) for j, v in zip(modes.tolist(), amp[M - r : M + r].tolist()))
    return amp * (norm / math.sqrt(total))


class _ProfileState:
    """A profile vector behind the to_vector() call of the benchmark harness,
    which reads scaling_base_state in perfbench/workloads.py's ladder pass
    and stability.hs_random_state in its longtime pass.  ROADMAP item 6's
    benchmark change lets those builders return the vector and deletes
    this."""

    __slots__ = ("_vec",)

    def __init__(self, vec: np.ndarray):
        self._vec = vec

    def to_vector(self) -> np.ndarray:
        return self._vec.copy()


def scaling_base_state(
    M: int,
    seed: int,
    norm: float = 1.0,
    support_radius: int | None = None,
) -> _ProfileState:
    """Reproducible smooth profile: |j|^-2 with random phases, l2-normalized,
    the residual ladder's _random_profile(M, seed, 2.0, norm, 0.0,
    support_radius)."""
    return _ProfileState(_random_profile(M, seed, 2.0, norm, support_radius=support_radius))


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
    base_vec = _random_profile(M, seed, 2.0, 1.0, support_radius=radius)
    rows = []
    slopes = {}
    for order in orders:
        residuals = []
        for lam in lambdas:
            r = transformed_hamiltonian_residual(lam * base_vec, order, cfg, nf)
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
