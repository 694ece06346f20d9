"""The exact checks of the normal form, one definition each.

A check returns a Check record; its text is the PASS/FAIL line the CLI
prints, and its report is what the check computed (a residual polynomial or
an audit report), from which callers read counts.  ``nf4``, ``nf6``,
``verify-all`` and the acceptance tests run the same functions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .identities import enumerate_triple_pairs, nine_term_sums, random_rational_pairs
from .order4 import build_F4, compute_R6, exhaustive_divisor_audit, random_divisor_audit
from .order6 import build_F6, build_K, exhaustive_sextuple_audit, qtilde0_crosscheck
from .order6 import split_r6, verify_Ktilde_zero
from .poly import PolyHamiltonian, bracket, build_lambda, build_Q


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    report: object = None

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.detail})"


def order4_homological(M: int) -> Check:
    """{Lambda, F4} + Q = 0 at truncation M; the report is the residual."""
    residual = bracket(build_lambda(M), build_F4(M)) + build_Q(M)
    return Check("order-4 homological equation", residual.is_zero, f"M={M}", residual)


def order6_homological(M: int, r6: PolyHamiltonian) -> Check:
    """{Lambda, F6} + Qtilde = 0 at truncation M; the report is the residual."""
    residual = bracket(build_lambda(M), build_F6(M, r6)) + split_r6(r6)[1]
    return Check("order-6 homological equation", residual.is_zero, f"M={M}", residual)


def action_part(M: int, r6: PolyHamiltonian) -> Check:
    """The action part of R6 equals the closed form K term by term; the
    report is the split (action part, non-resonant part) of R6."""
    split = split_r6(r6)
    return Check("sextic action part matches closed form", split[0] == build_K(M), f"M={M}", split)


def resonant_cancellation(M: int, r6: PolyHamiltonian) -> Check:
    """The resonant non-normal part of R6 vanishes; the report is the KtildeReport."""
    rep = verify_Ktilde_zero(M, r6)
    return Check("resonant cancellation", rep.passed, f"{rep.checked} monomials", rep)


def quadruple_bound(max_abs: int) -> Check:
    """The quadruple small-divisor bound on all of Delta within max_abs."""
    rep = exhaustive_divisor_audit(max_abs)
    detail = f"{rep['checked']} tuples, |j|<={max_abs}"
    return Check("quadruple divisor bound", not rep["violations"], detail, rep)


def exact_battery(M: int, identities_bound: int, seed: int) -> Iterator[Check]:
    """verify-all's ten checks in order, each yielded as it completes, so R6
    is built only after the order-4 check has been reported."""
    yield order4_homological(M)
    r6 = compute_R6(M)
    yield action_part(M, r6)
    yield resonant_cancellation(M, r6)
    yield order6_homological(M, r6)
    rep = qtilde0_crosscheck(M, M, r6)
    detail = f"{rep.n_compared} terms, designated mode {M}"
    yield Check("reducible closed-form cross-check", rep.passed, detail, rep)
    pairs = enumerate_triple_pairs(max(10, identities_bound))
    bad = [p for p in pairs if nine_term_sums(p) != (0, 0)]
    yield Check("kernel identities (integer pairs)", not bad, f"{len(pairs)} pairs", bad)
    bad = [p for p in random_rational_pairs(200, seed=seed) if nine_term_sums(p) != (0, 0)]
    yield Check("kernel identities (random rational)", not bad, "200 pairs", bad)
    yield quadruple_bound(20)
    rep = random_divisor_audit(20_000, 10_000, seed=seed)
    detail = f"{rep['checked']} samples"
    yield Check("quadruple divisor bound (random)", not rep["violations"], detail, rep)
    rep = exhaustive_sextuple_audit(min(8, M))
    yield Check("sextuple divisor bound", not rep["violations"], f"{rep['checked']} tuples", rep)
