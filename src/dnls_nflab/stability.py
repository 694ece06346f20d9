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
    StepBudgetError,
    _ProfileState,
    _random_profile,
    amplitude_ladder,
    coordinate_change,
    evolve_vec,
    normal_form_bundle,
    spectral_model,
)
from .states import (
    alternating_sum,
    bound_audit,
    int64_radius,
    leading_stars,
    random_zero_momentum_rows,
    rejection_sample,
    zero_momentum_rows,
)


def omega_kernel(rows: np.ndarray, s_values) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(Omega_s, scale, holds) per row of a (rows, 2r) array of zero-momentum
    tuples of nonzero entries, int64 or object of Python ints, one triple
    for each s in s_values.

    The bound is |Omega_s| <= scale j3*, with
    scale = (2s+1) (2r)^(s+2) j1*^s j2*^s and j3* = 0 for 2r = 2.  For an
    integer s >= 0 everything is integer, so object rows give exact Python
    ints; otherwise it is float.  Everything runs on the columns rows.T: the
    leading stars are found once for all s, and each Omega_s is an
    alternating sum of the columns' j|j|^2s = j (j^2)^s, the integer s
    values sharing one multiply chain per column (_chained_sums).

    As scale >= 1, holds compares min(scale, |Omega_s|) j3* >= |Omega_s|,
    which is the bound itself: if scale >= |Omega_s| both sides hold for
    j3* >= 1 and both ask Omega_s = 0 for j3* = 0.  Its largest
    intermediates are 2r max_abs^(2s+2) and the scale.  The bound scale j3*
    is not formed here: it can leave int64 where the value and the verdict
    cannot (7e19 at r = 5, s = 3, |j| <= 100), so the reports form it in
    Python ints (_omega_check).
    """
    cols = rows.T
    width = len(cols)
    stars = leading_stars(cols, 3)
    pair = stars[0] * stars[1]
    j3 = stars[2].copy() if width > 2 else 0
    # the exhaustive audits' peak memory is set here: each temporary goes
    # as soon as it is used
    del stars
    omega = _chained_sums(cols, s_values)
    out = []
    for s in s_values:
        if s in omega:
            s = int(s)
            value = omega[s]
        else:
            value = alternating_sum(col * np.abs(col) ** (2 * s) for col in cols)
        scale = pair**s
        scale *= (2 * s + 1) * width ** (s + 2)
        size = np.abs(value)
        capped = np.minimum(scale, size)
        capped *= j3
        out.append((value, scale, capped >= size))
        del size, capped
    return out


def _chained_sums(cols, s_values) -> dict:
    """Omega_s for each integer s >= 0 in s_values, from the columns cols:
    the alternating sum of j (j^2)^s, one multiply chain per column shared
    by the s values, so at most two column-sized temporaries are alive."""
    chained = {int(s) for s in s_values if s >= 0 and float(s).is_integer()}
    omega = {}
    for i, col in enumerate(cols):
        power = col  # a fresh array from s = 1 on, then multiplied in place
        for s in range(max(chained, default=-1) + 1):
            if s == 1:
                square = col * col
                power = col * square
            elif s > 1:
                power *= square
            if s in chained:
                if i == 0:
                    omega[s] = power.copy()
                elif i % 2:
                    omega[s] -= power
                else:
                    omega[s] += power
    return omega


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
    return _omega_check(entries, s)


def _omega_check(entries, s: float) -> OmegaReport:
    """The report of one tuple at any s, with the bound scale j3* formed in
    Python ints."""
    [([value], [scale], [holds])] = omega_kernel(_omega_row(entries), (s,))
    stars = sorted((abs(v) for v in entries), reverse=True)
    j3 = stars[2] if len(stars) > 2 else 0
    return OmegaReport(tuple(entries), s, value, scale * j3, bool(holds))


def _omega_audit(blocks, widths, s_values, max_abs: int) -> dict:
    """states.bound_audit of blocks of rows of the given widths, one mask
    per s, in int64 when max_abs is at most omega_int64_max_abs(width, s)
    for every width and s, each violation recorded by _omega_check, so its
    value and bound are exact Python ints.  checked counts the rows."""

    def verdicts(rows):
        return {"checked": len(rows)}, np.array([~holds for _, _, holds in omega_kernel(rows, s_values)])

    int64 = all(max_abs <= omega_int64_max_abs(w, s) for w in widths for s in s_values)
    return bound_audit(blocks, verdicts, lambda t, n: _omega_check(t, s_values[n]), max_abs, int64)


def exhaustive_omega_audit(max_abs: int = 10, s_values=(1, 2, 3)) -> dict:
    """All zero-momentum 6-tuples within max_abs (the chunks of
    zero_momentum_rows, up to 23), through omega_kernel, one call per chunk
    for all s; checked counts each row once per s.

    The chunks run in int64 when max_abs is at most omega_int64_max_abs(6, s)
    for every s (17 at s = 5), and as Python ints otherwise.
    """
    report = _omega_audit(zero_momentum_rows(6, max_abs), (6,), s_values, max_abs)
    report["checked"] *= len(s_values)
    return report


def omega_int64_max_abs(width: int, s) -> int:
    """Largest max_abs at which omega_kernel's value and verdict on int64
    rows of this width cannot overflow: j1* j2* stays within max_abs^2, the
    scale within (2s+1) width^(s+2) max_abs^(2s), and the partial sums of
    Omega_s and the capped product min(scale, |Omega_s|) j3* within
    width max_abs^(2s+2)."""
    return int64_radius(
        lambda a: max(a * a, width * a ** (2 * s + 2), (2 * s + 1) * width ** (s + 2) * a ** (2 * s))
    )


def random_omega_audit(
    n_samples: int,
    max_abs: int = 100,
    r_values=(3, 4, 5),
    s_values=(1, 2, 3),
    seed: int = 0,
) -> dict:
    """Random zero-momentum tuples at larger radii; exact integer math.

    n_samples is split as evenly as possible over r_values, in order (the
    first n_samples % len(r_values) widths take one sample more), and each
    width is drawn through rejection_sample in blocks of one (rows, 2r)
    array.  The blocks run through omega_kernel in int64 when max_abs is at
    most omega_int64_max_abs(2r, s) for every r and s (153 at r = 5, s = 3),
    and as Python ints otherwise.  Violations are listed by width, then by sample, then by s.
    """
    if max_abs < 1:
        raise ValueError("max_abs must be at least 1")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    share, extra = divmod(n_samples, len(r_values))
    blocks = (
        rows
        for w, r in enumerate(r_values)
        for rows in rejection_sample(
            share + (w < extra), partial(random_zero_momentum_rows, rng, width=2 * r, max_abs=max_abs)
        )
    )
    return _omega_audit(blocks, [2 * r for r in r_values], s_values, max_abs)


# -- experiments ------------------------------------------------------------------------


def hs_random_state(M: int, s: float, eps: float, seed: int) -> _ProfileState:
    """Random smooth data with exact Sobolev size eps, the profile
    _random_profile(M, seed, s + 1.0, eps, s) of criterion 8 and the
    norm-derivative audit.

    Amplitudes decay like |j|^(-s-1) with uniform random phases, then the
    whole profile is rescaled so the s-norm equals eps.
    """
    return _ProfileState(_random_profile(M, seed, s + 1.0, eps, s))


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
    horizon needs more steps than the integrator allows, or overflows a
    float."""
    try:
        horizon = run.epsilon ** (-run.horizon_exponent)
    except OverflowError:
        raise StepBudgetError(f"horizon {run.epsilon:g}^-{run.horizon_exponent:g} overflows a float") from None
    cfg = FlowConfig(
        dt=run.dt,
        t_end=horizon,
        record_interval=max(run.dt, horizon / 2048),
    )
    batch = np.stack([_random_profile(run.M, seed, run.s + 1.0, run.epsilon, run.s) for seed in seeds])
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

    One amplitude_ladder, whose measure at data of size a in the new
    coordinates maps through flows.coordinate_change at order 4, evolves
    the truncated equation for +-delta, pulls back through its inverse, and
    takes the centred difference of the squared norm.  The quadratic and
    quartic normal-form parts commute with every action functional, so the
    rate is controlled by the sextic-and-up remainder: the fitted exponent
    should be 6.  C3 is an empirical constant, the largest measured
    rate / ||q||_s^6 over the rungs.  The ladder's ValueError refuses
    amplitudes it cannot fit and a rate that is zero or not finite.
    """
    cfg = cfg or FlowConfig(dt=0.01, tolerance=1e-13, max_refinements=12)
    back_cfg = replace(cfg, t_end=-cfg.t_end)
    nf = normal_form_bundle(M)
    base_vec = _random_profile(M, seed, s + 1.0, 1.0, s)
    model = spectral_model(M)

    def rate(a):
        vec_orig = coordinate_change(a * base_vec, 4, cfg, nf)
        squares = []
        for sign in (+1, -1):
            _, _, moved, _ = evolve_vec(vec_orig, M, FlowConfig(dt=delta / 8, t_end=sign * delta))
            squares.append(float(model.sobolev_sq(coordinate_change(moved, 4, back_cfg, nf), s)))
        return abs((squares[0] - squares[1]) / (2 * delta))

    ladder = amplitude_ladder(rate, amplitudes)
    rows = [{"amplitude": a, "rate": r, "norm_s": math.sqrt(float(model.sobolev_sq(a * base_vec, s)))}
            for a, r in zip(amplitudes, ladder["values"])]
    c3 = max(r["rate"] / r["norm_s"] ** 6 for r in rows)
    return {"rows": rows, "slope": ladder["slope"], "local_slopes": ladder["local_slopes"], "C3": c3,
            "M": M, "s": s, "seed": seed}
