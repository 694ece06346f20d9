"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output).  The heavyweight shared objects (the sextic remainder at
truncations 8 and 10) come from session fixtures.
"""

import math

import numpy as np
import pytest

from dnls_nflab.checks import action_part, order4_homological, order6_homological
from dnls_nflab.flows import FlowConfig, evolve_vec, residual_scaling
from dnls_nflab.identities import (
    enumerate_triple_pairs,
    denominator_identity,
    intermediate_identities,
    nine_term_sums,
    random_rational_pairs,
    row_sum_closed_forms,
)
from dnls_nflab.order4 import exhaustive_divisor_audit, random_divisor_audit
from dnls_nflab.order6 import (
    exhaustive_sextuple_audit,
    qtilde0_crosscheck,
    random_sextuple_audit,
    tau_bound_check,
    verify_Ktilde_zero,
)
from dnls_nflab.stability import (
    StabilityRun,
    exhaustive_omega_audit,
    random_omega_audit,
    stability_ensemble,
)
from dnls_nflab.states import TWO_PI, FourierState, mode_range


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_homological_equations(r6_at_8):
    c4, c6 = order4_homological(8), order6_homological(8, r6_at_8)
    _report(
        1,
        "exact homological equations at M=8",
        c4.passed and c6.passed,
        f"order-4 residual terms {c4.report[0].num_terms}, "
        f"order-6 residual terms {c6.report[0].num_terms}",
    )


@pytest.mark.slow
def test_criterion_2_resonant_cancellation(r6_at_10):
    rep = verify_Ktilde_zero(10, r6_at_10)
    _report(
        2,
        "resonant sextic coefficients vanish exactly at M=10",
        rep.passed,
        f"{rep.checked} resonant monomials, "
        f"{len(rep.structural_violations)} structural survivors",
    )


@pytest.mark.slow
def test_criterion_3_action_part_closed_form(r6_at_10):
    check = action_part(10, r6_at_10)
    normal, qtilde, _ = check.report
    # the split is exhaustive: action part plus non-resonant part rebuild R6
    ok = check.passed and normal + qtilde == r6_at_10
    _report(
        3,
        "sextic action part equals closed form, term by term, at M=10",
        ok,
        f"{normal.num_terms} action terms; split reconstructs R6 exactly",
    )


def test_criterion_4_kernel_identities():
    pairs = enumerate_triple_pairs(30)
    ok = all(nine_term_sums(p) == (0, 0) for p in pairs)
    inter_ok = True
    for p in pairs[:: max(1, len(pairs) // 200)]:
        c = p.centered()
        inter_ok &= all(intermediate_identities(c).values())
        inter_ok &= denominator_identity(c) and row_sum_closed_forms(c)
    n_random = 10_000
    rand_ok = True
    for p in random_rational_pairs(n_random, seed=20200826):
        if nine_term_sums(p) != (0, 0):
            rand_ok = False
        c = p.centered()
        if not all(intermediate_identities(c).values()):
            rand_ok = False
    _report(
        4,
        "kernel identity battery exact",
        ok and inter_ok and rand_ok,
        f"{len(pairs)} integer pairs (bound 30), {n_random} random rational pairs",
    )


def test_criterion_5_divisor_lemmas():
    quad = exhaustive_divisor_audit(20)
    quad_rand = random_divisor_audit(100_000, 10_000, seed=20200530)
    sext = exhaustive_sextuple_audit(8)
    sext_rand = random_sextuple_audit(100_000, 1000, seed=20200830)
    ok = not (
        quad["violations"]
        or quad_rand["violations"]
        or sext["violations"]
        or sext_rand["violations"]
    )
    _report(
        5,
        "small-divisor lower bounds",
        ok,
        f"quadruples {quad['checked']} exhaustive + {quad_rand['checked']} random; "
        f"sextuples {sext['checked']} exhaustive + {sext_rand['checked']} random",
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
    _report(
        6,
        "transformed-Hamiltonian residual scaling orders",
        ok,
        f"order-4 slope {s4:.3f} in [5.7, 6.3]; order-6 slope {s6:.3f} in [7.6, 8.4]",
    )


def test_criterion_7_simulator_correctness():
    M = 8
    k, A = 2, 0.35
    omega = k * k + A * A * k
    q0 = FourierState({k: A * math.sqrt(TWO_PI)}, M)
    cfg = FlowConfig(dt=1e-3, t_end=10.0, record_interval=1.0)
    _, ch, qf, _ = evolve_vec(q0.to_vector(), M, cfg)
    expected = q0.to_vector() * np.exp(-1j * omega * cfg.t_end)
    wave_rel = float(
        np.linalg.norm(qf - expected) / np.linalg.norm(expected)
    )

    rng = np.random.default_rng(np.random.Philox(key=7))
    amp = {j: 0.3 * complex(rng.normal(), rng.normal()) / abs(j) for j in mode_range(M)}
    qr = FourierState(amp, M).to_vector()
    _, chr_, _, _ = evolve_vec(qr, M, FlowConfig(dt=1e-3, t_end=10.0, record_interval=1.0))
    mass_drift = float(np.max(np.abs(chr_["mass"] - chr_["mass"][0])))
    energy_drift = float(
        np.max(np.abs(chr_["energy"] - chr_["energy"][0])) / abs(chr_["energy"][0])
    )

    drifts = []
    for dt in (4e-3, 2e-3):
        _, chd, _, _ = evolve_vec(qr, M, FlowConfig(dt=dt, t_end=5.0, record_interval=5.0))
        drifts.append(abs(chd["energy"][-1] - chd["energy"][0]))
    factor = drifts[0] / drifts[1]

    ok = (
        wave_rel < 1e-8
        and mass_drift < 1e-9
        and energy_drift < 1e-8
        and 8.0 < factor < 32.0
    )
    _report(
        7,
        "simulator correctness",
        ok,
        f"plane-wave rel err {wave_rel:.2e} (<1e-8); mass drift {mass_drift:.2e} "
        f"(<1e-9); energy drift {energy_drift:.2e} (<1e-8); halving factor "
        f"{factor:.1f} (~16)",
    )


@pytest.mark.slow
def test_criterion_8_longtime_stability():
    seeds = (1, 2, 3)
    configs = [
        StabilityRun(s=3.0, epsilon=0.2, M=32, horizon_exponent=4.0, dt=1e-3),
        StabilityRun(s=5.0, epsilon=0.3, M=32, horizon_exponent=6.0, dt=1e-3),
    ]
    details = []
    ok = True
    for run in configs:
        reports = stability_ensemble(run, seeds)
        worst = max(r.max_ratio for r in reports)
        ok &= all(r.passed for r in reports)
        horizon = run.epsilon ** (-run.horizon_exponent)
        details.append(
            f"s={run.s:g} eps={run.epsilon} t<={horizon:.0f}: worst ratio "
            f"{worst:.3f}"
        )
    _report(
        8,
        "long-time norm stability (ratio <= 3, M=32, 3 seeds each)",
        ok,
        "; ".join(details),
    )


def test_criterion_9_weighted_frequency_bound():
    exh = exhaustive_omega_audit(10, (1, 2, 3))
    rand = random_omega_audit(100_000, max_abs=100, r_values=(3, 4, 5), s_values=(1, 2, 3), seed=20200830)
    ok = not (exh["violations"] or rand["violations"])
    _report(
        9,
        "weighted frequency-sum bound",
        ok,
        f"{exh['checked']} exhaustive (r=3, |j|<=10, s in 1..3) + "
        f"{rand['checked']} random (|j|<=100)",
    )


def test_criterion_10_reducible_closed_form(r6_at_8):
    rep = qtilde0_crosscheck(8, 8, r6_at_8)
    rep_neg = qtilde0_crosscheck(8, -8, r6_at_8)
    tau_ok = True
    for n in (10**4, 10**5, 10**6, -(10**6)):
        for quad in ((3, 1, 2, 4), (1, -1, 2, 4), (2, -3, 1, 6), (3, 1, 3, 5)):
            tau_ok &= tau_bound_check(*quad, n)
    ok = rep.passed and rep_neg.passed and tau_ok
    _report(
        10,
        "reducible sextic closed form and its kernel bound",
        ok,
        f"{rep.n_compared}+{rep_neg.n_compared} terms compared exactly "
        f"(regime flag {rep.regime_satisfied}); kernel bound checked to |n|=1e6",
    )
