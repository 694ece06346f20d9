"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test asserts Check records and prints one line per record,
``criterion N: PASS name (detail)`` (visible with pytest -s or in the
captured output).  The exact checks that verify-all also runs come from
the checks module; a check with one caller is built here.  The heavyweight
shared objects (the sextic remainder at truncations 8 and 10) come from
session fixtures.
"""

import math

import numpy as np
import pytest

from dnls_nflab.checks import (
    Check,
    action_part,
    order4_homological,
    order6_homological,
    quadruple_bound,
    quadruple_bound_random,
    reducible_closed_form,
    resonant_cancellation,
    sextuple_bound,
    vanishing_sums,
)
from dnls_nflab.flows import FlowConfig, evolve_vec, residual_scaling
from dnls_nflab.identities import (
    enumerate_triple_pairs,
    denominator_identity,
    intermediate_identities,
    random_rational_pairs,
    row_sum_closed_forms,
)
from dnls_nflab.order6 import random_sextuple_audit, tau_bound_check
from dnls_nflab.stability import (
    StabilityRun,
    exhaustive_omega_audit,
    random_omega_audit,
    stability_ensemble,
)
from dnls_nflab.states import TWO_PI, mode_range, state_vector


def _assert_passed(number: int, *checks: Check):
    for check in checks:
        print(f"criterion {number}: {check}")
    assert all(check.passed for check in checks), [str(c) for c in checks if not c.passed]


def test_criterion_1_homological_equations(r6_at_8):
    _assert_passed(1, order4_homological(8), order6_homological(8, r6_at_8))


@pytest.mark.slow
def test_criterion_2_resonant_cancellation(r6_at_10):
    _assert_passed(2, resonant_cancellation(10, r6_at_10))


@pytest.mark.slow
def test_criterion_3_action_part_closed_form(r6_at_10):
    check = action_part(10, r6_at_10)
    normal, qtilde, _ = check.report
    # the split is exhaustive: action part plus non-resonant part rebuild R6
    detail = f"{normal.num_terms} action + {qtilde.num_terms} non-resonant terms"
    _assert_passed(3, check, Check("split rebuilds R6", normal + qtilde == r6_at_10, detail))


def test_criterion_4_kernel_identities():
    pairs = enumerate_triple_pairs(30)
    rand = list(random_rational_pairs(10_000, seed=20200826))
    sample = [p.centered() for p in pairs[:: max(1, len(pairs) // 200)]]
    symmetric = all(
        all(intermediate_identities(c).values()) and denominator_identity(c) and row_sum_closed_forms(c)
        for c in sample
    ) and all(all(intermediate_identities(p.centered()).values()) for p in rand)
    _assert_passed(
        4,
        vanishing_sums("kernel identities (integer pairs)", pairs),
        vanishing_sums("kernel identities (random rational)", rand),
        Check("symmetric-function identities", symmetric, f"{len(sample)} integer + {len(rand)} random pairs"),
    )


def test_criterion_5_divisor_lemmas():
    sext_rand = random_sextuple_audit(100_000, 1000, seed=20200830)
    _assert_passed(
        5,
        quadruple_bound(20),
        quadruple_bound_random(100_000, 10_000, 20200530),
        sextuple_bound(8),
        Check("sextuple divisor bound (random)", not sext_rand["violations"], f"{sext_rand['checked']} samples"),
    )


def test_criterion_6_residual_scaling(bundle8):
    rep = residual_scaling(
        8,
        orders=(4, 6),
        lambdas=(2**-2, 2**-3, 2**-4, 2**-5, 2**-6),
        cfg=FlowConfig(dt=0.01, tolerance=1e-17, max_refinements=10),
        seed=20200523,
    )
    s4, s6 = rep["slopes"][4], rep["slopes"][6]
    ok = 5.7 <= s4 <= 6.3 and 7.6 <= s6 <= 8.4
    detail = f"order-4 slope {s4:.3f} in [5.7, 6.3]; order-6 slope {s6:.3f} in [7.6, 8.4]"
    _assert_passed(6, Check("transformed-Hamiltonian residual scaling orders", ok, detail))


def test_criterion_7_simulator_correctness():
    M = 8
    k, A = 2, 0.35
    omega = k * k + A * A * k
    q0 = state_vector({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=10.0, record_interval=1.0)
    _, ch, qf, _ = evolve_vec(q0, M, cfg)
    expected = q0 * np.exp(-1j * omega * cfg.t_end)
    wave_rel = float(np.linalg.norm(qf - expected) / np.linalg.norm(expected))

    rng = np.random.default_rng(np.random.Philox(key=7))
    amp = {j: 0.3 * complex(rng.normal(), rng.normal()) / abs(j) for j in mode_range(M)}
    qr = state_vector(amp, M)
    _, chr_, _, _ = evolve_vec(qr, M, FlowConfig(dt=1e-3, t_end=10.0, record_interval=1.0))
    mass_drift = float(np.max(np.abs(chr_["mass"] - chr_["mass"][0])))
    energy_drift = float(np.max(np.abs(chr_["energy"] - chr_["energy"][0])) / abs(chr_["energy"][0]))

    drifts = []
    for dt in (4e-3, 2e-3):
        _, chd, _, _ = evolve_vec(qr, M, FlowConfig(dt=dt, t_end=5.0, record_interval=5.0))
        drifts.append(abs(chd["energy"][-1] - chd["energy"][0]))
    factor = drifts[0] / drifts[1]

    ok = wave_rel < 1e-8 and mass_drift < 1e-9 and energy_drift < 1e-8 and 8.0 < factor < 32.0
    detail = (
        f"plane-wave rel err {wave_rel:.2e} (<1e-8); mass drift {mass_drift:.2e} "
        f"(<1e-9); energy drift {energy_drift:.2e} (<1e-8); halving factor "
        f"{factor:.1f} (~16)"
    )
    _assert_passed(7, Check("simulator correctness", ok, detail))


@pytest.mark.slow
def test_criterion_8_longtime_stability():
    seeds = (1, 2, 3)
    configs = [
        StabilityRun(s=3.0, epsilon=0.2, M=32, horizon_exponent=4.0, dt=1e-3),
        StabilityRun(s=5.0, epsilon=0.3, M=32, horizon_exponent=6.0, dt=1e-3),
    ]
    checks = []
    for run in configs:
        reports = stability_ensemble(run, seeds)
        worst = max(r.max_ratio for r in reports)
        horizon = run.epsilon ** (-run.horizon_exponent)
        detail = f"s={run.s:g} eps={run.epsilon} t<={horizon:.0f}, M=32, 3 seeds: worst ratio {worst:.3f} <= 3"
        checks.append(Check("long-time norm stability", all(r.passed for r in reports), detail))
    _assert_passed(8, *checks)


def test_criterion_9_weighted_frequency_bound():
    exh = exhaustive_omega_audit(10, (1, 2, 3))
    rand = random_omega_audit(100_000, max_abs=100, r_values=(3, 4, 5), s_values=(1, 2, 3), seed=20200830)
    _assert_passed(
        9,
        Check("weighted frequency-sum bound", not exh["violations"],
              f"{exh['checked']} tuple checks, r=3, |j|<=10, s in 1..3"),
        Check("weighted frequency-sum bound (random)", not rand["violations"],
              f"{rand['checked']} samples, |j|<=100"),
    )


def test_criterion_10_reducible_closed_form(r6_at_8):
    n_values = (10**4, 10**5, 10**6, -(10**6))
    quads = ((3, 1, 2, 4), (1, -1, 2, 4), (2, -3, 1, 6), (3, 1, 3, 5))
    tau_ok = all(tau_bound_check(*quad, n) for n in n_values for quad in quads)
    _assert_passed(
        10,
        reducible_closed_form(8, 8, r6_at_8),
        reducible_closed_form(8, -8, r6_at_8),
        Check("reducible kernel bound", tau_ok, f"{len(quads)} quadruples, |n| up to 1e6"),
    )
