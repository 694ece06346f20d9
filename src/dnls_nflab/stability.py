"""Long-time stability experiments and the weighted frequency-sum bound.

The analytic half is the bound on the alternating weighted sum

    Omega_s(j_1..j_2r) = j_1|j_1|^2s - j_2|j_2|^2s + ... - j_2r|j_2r|^2s

over zero-momentum tuples, which controls the growth rate of Sobolev norms
along the remainder flow.  The experimental half evolves small random data
to times of order eps^-4 or eps^-6 and reports the worst norm ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .flows import (
    FlowConfig,
    evolve_vec,
    flow_time_one_vec,
    normal_form_bundle,
    spectral_model,
)
from .states import (
    TWO_PI,
    FourierState,
    alternating_sum,
    leading_stars,
    mode_range,
    random_zero_momentum_rows,
    rejection_sample,
    sobolev_norm,
    zero_momentum_sextuples,
)


def omega_kernel(rows: np.ndarray, s_values) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(Omega_s, bound, holds) per row of a (rows, 2r) array of zero-momentum
    tuples, int64 or object of Python ints, one triple for each s in s_values.

    The bound is |Omega_s| <= (2s+1) (2r)^(s+2) j1*^s j2*^s j3*, with j3* = 0
    for 2r = 2.  Powers are integer whenever 2s is an even integer, so object
    rows give exact Python ints; otherwise they are float.  Everything runs on
    the columns rows.T: the leading stars are found once for all s, and each
    Omega_s is an alternating sum of columns, j|j|^2s being j^(2s+1) when 2s
    is even.
    """
    cols = rows.T
    width = len(cols)
    stars = leading_stars(cols, 3)
    j3 = stars[2] if width > 2 else 0
    out = []
    for s in s_values:
        if float(s).is_integer():
            value = alternating_sum(cols, int(2 * s + 1))
        else:
            value = alternating_sum(col * np.abs(col) ** (2 * s) for col in cols)
        bound = (2 * s + 1) * width ** (s + 2) * stars[0] ** s * stars[1] ** s * j3
        out.append((value, bound, np.abs(value) <= bound))
    return out


def _omega_row(entries) -> np.ndarray:
    """One-row object array of a validated even-length zero-momentum tuple."""
    entries = tuple(int(v) for v in entries)
    if len(entries) % 2 or not entries:
        raise ValueError("need an even-length tuple")
    if any(v == 0 for v in entries):
        raise ValueError("indices must be nonzero")
    if alternating_sum(entries) != 0:
        raise ValueError("tuple must have zero momentum")
    return np.array([entries], dtype=object)


def omega_s(entries, s: float):
    """Alternating sum of j|j|^(2s) over an even-length zero-momentum tuple.

    Exact integer arithmetic whenever 2s is an even integer; float otherwise.
    """
    return omega_kernel(_omega_row(entries), (s,))[0][0][0]


@dataclass(frozen=True)
class OmegaReport:
    entries: tuple[int, ...]
    s: float
    value: float
    bound: float
    holds: bool


def omega_bound_check(entries, s: float) -> OmegaReport:
    """|Omega_s| <= (2s+1) (2r)^(s+2) j1*^s j2*^s j3*, zero-momentum tuples, s >= 1."""
    if s < 1:
        raise ValueError("bound requires s >= 1")
    [(value, bound, holds)] = omega_kernel(_omega_row(entries), (s,))
    return OmegaReport(tuple(entries), s, value[0], bound[0], bool(holds[0]))


def exhaustive_omega_audit(max_abs: int = 10, s_values=(1, 2, 3)) -> dict:
    """All zero-momentum 6-tuples within max_abs, through omega_kernel in
    int64, one call per zero_momentum_sextuples chunk for all s.

    Raises OverflowError where the value or the bound could leave int64.
    """
    for s in s_values:
        # both |Omega_s| <= 6 max_abs^(2s+1) and the bound stay below this
        if (2 * s + 1) * 6 ** (s + 2) * max_abs ** (2 * s + 1) > np.iinfo(np.int64).max:
            raise OverflowError(f"max_abs={max_abs}, s={s} overflows the int64 audit")
    checked = 0
    violations: dict = {s: [] for s in s_values}
    for arr in zero_momentum_sextuples(max_abs):
        for s, (_, _, holds) in zip(s_values, omega_kernel(arr, s_values)):
            checked += len(arr)
            found = violations[s]
            bad = np.flatnonzero(~holds)[: 20 - len(found)]
            found += [(tuple(int(v) for v in arr[i]), s) for i in bad]
    return {
        "checked": checked,
        "violations": [v for s in s_values for v in violations[s]],
        "max_abs": max_abs,
    }


def random_omega_audit(
    n_samples: int,
    max_abs: int = 100,
    r_values=(3, 4, 5),
    s_values=(1, 2, 3),
    seed: int = 0,
) -> dict:
    """Random zero-momentum tuples at larger radii; Python ints, exact.

    n_samples is split as evenly as possible over r_values, in order (the
    first n_samples % len(r_values) widths take one sample more), and each
    width is drawn through rejection_sample in blocks of one (rows, 2r)
    array.  Violations are listed by width, then by sample, then by s.
    """
    if max_abs < 1:
        raise ValueError("max_abs must be at least 1")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    share, extra = divmod(n_samples, len(r_values))
    checked = 0
    violations = []
    for w, r in enumerate(r_values):
        draw = partial(random_zero_momentum_rows, rng, width=2 * r, max_abs=max_abs)
        for rows in rejection_sample(share + (w < extra), draw):
            checked += len(rows)
            bad = [
                (i, OmegaReport(tuple(rows[i]), s, value[i], bound[i], False))
                for s, (value, bound, holds) in zip(s_values, omega_kernel(rows, s_values))
                for i in np.flatnonzero(~holds)
            ]
            violations += [rep for _, rep in sorted(bad, key=lambda b: b[0])]
    return {"checked": checked, "violations": violations, "max_abs": max_abs}


# -- experiments ------------------------------------------------------------------------


def hs_random_state(M: int, s: float, eps: float, seed: int) -> FourierState:
    """Random smooth data with exact Sobolev size eps.

    Amplitudes decay like |j|^(-s-1) with uniform random phases, then the
    whole profile is rescaled so the s-norm equals eps.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    modes = mode_range(M)
    phases = rng.uniform(0.0, TWO_PI, size=len(modes))
    amp = {
        j: abs(j) ** (-(s + 1.0)) * np.exp(1j * p)
        for j, p in zip(modes, phases)
    }
    raw = FourierState(amp, M)
    scale = eps / sobolev_norm(raw, s)
    return FourierState({j: v * scale for j, v in amp.items()}, M)


@dataclass(frozen=True)
class StabilityRun:
    s: float
    epsilon: float
    M: int
    horizon_exponent: float = 4.0
    seed: int = 0
    threshold: float = 3.0
    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass
class StabilityReport:
    run: StabilityRun
    times: np.ndarray
    norm_ratio: np.ndarray
    mass_drift: np.ndarray
    energy_drift: np.ndarray
    max_ratio: float
    passed: bool


def stability_ensemble(
    run: StabilityRun,
    seeds: tuple[int, ...],
) -> list[StabilityReport]:
    """Evolve random eps-sized data to t = eps^(-horizon_exponent) for
    several seeds in a single batched integration, and report the worst
    Sobolev norm ratio plus conservation drift channels: one report per
    seed, deterministic in seed order.  Raises StepBudgetError if the
    horizon needs more steps than the integrator allows."""
    horizon = run.epsilon ** (-run.horizon_exponent)
    cfg = FlowConfig(
        dt=run.dt,
        t_end=horizon,
        record_interval=max(run.dt, horizon / 2048),
    )
    batch = np.stack(
        [
            hs_random_state(run.M, run.s, run.epsilon, seed).to_vector()
            for seed in seeds
        ]
    )
    times, channels, _, _ = evolve_vec(batch, run.M, cfg, track_s=(run.s,))
    norms = channels[f"norm_s{run.s:g}"]
    mass = channels["mass"]
    energy = channels["energy"]
    reports = []
    for i, seed in enumerate(seeds):
        ratio = norms[:, i] / run.epsilon
        energy_scale = max(abs(energy[0, i]), 1e-30)
        reports.append(
            StabilityReport(
                run=replace(run, seed=seed),
                times=times,
                norm_ratio=ratio,
                mass_drift=np.abs(mass[:, i] - mass[0, i]),
                energy_drift=np.abs(energy[:, i] - energy[0, i]) / energy_scale,
                max_ratio=float(np.max(ratio)),
                passed=bool(np.max(ratio) <= run.threshold),
            )
        )
    return reports


# -- norm-derivative audit ------------------------------------------------------------------


def norm_derivative_audit(
    M: int = 8,
    s: float = 3.0,
    amplitudes: tuple[float, ...] = (0.4, 0.3, 0.2, 0.15, 0.1),
    seed: int = 11,
    delta: float = 5e-3,
    cfg: FlowConfig | None = None,
) -> dict:
    """Growth rate of the s-norm squared in transformed coordinates.

    For data of size a in the new coordinates, maps through the quartic
    time-1 transform, evolves the truncated equation for +-delta, pulls back,
    and measures the centered difference of the squared norm.  The quadratic
    and quartic normal-form parts commute with every action functional, so
    the rate is controlled by the sextic-and-up remainder: the fitted
    amplitude exponent should be 6 and the fitted constant bounds
    |d/dt ||q||_s^2| / ||q||_s^6.
    """
    cfg = cfg or FlowConfig(dt=0.01, tolerance=1e-13, max_refinements=12)
    nf = normal_form_bundle(M)
    base = hs_random_state(M, s, 1.0, seed)
    base_vec = base.to_vector()
    model = spectral_model(M)
    rows = []
    for a in amplitudes:
        vec_new = a * base_vec
        vec_orig = flow_time_one_vec(nf.F4, vec_new, cfg)
        derivs = {}
        for sign in (+1, -1):
            ecfg = FlowConfig(dt=delta / 8, t_end=sign * delta)
            _, _, moved, _ = evolve_vec(vec_orig, M, ecfg)
            back = flow_time_one_vec(nf.F4, moved, cfg, t_end=-1.0)
            derivs[sign] = float(model.sobolev_sq(back, s))
        rate = (derivs[+1] - derivs[-1]) / (2 * delta)
        norm_s = math.sqrt(float(model.sobolev_sq(vec_new, s)))
        rows.append({"amplitude": a, "rate": abs(rate), "norm_s": norm_s})
    xs = np.log2([r["amplitude"] for r in rows])
    ys = np.log2([max(r["rate"], 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    c3 = max(r["rate"] / r["norm_s"] ** 6 for r in rows)
    return {"rows": rows, "slope": slope, "C3": c3, "M": M, "s": s, "seed": seed}
