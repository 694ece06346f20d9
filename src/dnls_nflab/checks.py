"""The exact checks of the normal form, one definition each.

A check returns a Check record; its text is the PASS/FAIL line the CLI
prints, and its report is what the check computed (a residual polynomial
with the generator it built, the split of R6 with K, an audit report, the
failing pairs), from which callers read counts and which they reuse rather
than build again.  ``nf4``, ``nf6``, ``verify-all`` and the acceptance
tests run the same functions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .identities import TriplePair, enumerate_triple_pairs, nine_term_sums, random_rational_pairs
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
    """{Lambda, F4} + Q = 0 at truncation M; the report is (residual, F4).

    F4 is homological_solve(Q), which divides each term by its square
    divisor d(m), and the bracket's Lambda path multiplies it by i w(m),
    with w built from Lambda's own coefficients.  The check confirms that
    the two agree term by term; it does not check Q against G."""
    F4 = build_F4(M)
    residual = bracket(build_lambda(M), F4) + build_Q(M)
    return Check("order-4 homological equation", residual.is_zero, f"M={M}", (residual, F4))


def order6_homological(M: int, r6: PolyHamiltonian) -> Check:
    """{Lambda, F6} + Qtilde = 0 at truncation M; the report is (residual, F6).

    As in order4_homological, the check confirms that homological_solve's
    division by d(m) and the Lambda path's product with i w(m) agree on
    every term of Qtilde.  It holds for any r6 that split_r6 accepts, so it
    does not confirm R6 itself; the action part, resonant cancellation and
    reducible closed-form checks do."""
    F6 = build_F6(M, r6)
    residual = bracket(build_lambda(M), F6) + split_r6(r6)[1]
    return Check("order-6 homological equation", residual.is_zero, f"M={M}", (residual, F6))


def action_part(M: int, r6: PolyHamiltonian) -> Check:
    """The action part of R6 equals the closed form K term by term; the
    report is (action part, non-resonant part, K), the split of R6 and K."""
    normal, rest = split_r6(r6)
    K = build_K(M)
    return Check("sextic action part matches closed form", normal == K, f"M={M}", (normal, rest, K))


def resonant_cancellation(M: int, r6: PolyHamiltonian) -> Check:
    """The resonant non-normal part of R6 vanishes; the report is the KtildeReport."""
    rep = verify_Ktilde_zero(M, r6)
    return Check("resonant cancellation", rep.passed, f"{rep.checked} monomials", rep)


def reducible_closed_form(M: int, n: int, r6: PolyHamiltonian) -> Check:
    """The |q_n|^2-reducible non-resonant part of R6 equals its closed form;
    the report is the Qtilde0Report."""
    rep = qtilde0_crosscheck(M, n, r6)
    detail = f"{rep.n_compared} terms, designated mode {n}"
    return Check("reducible closed-form cross-check", rep.passed, detail, rep)


def quadruple_bound(max_abs: int) -> Check:
    """The quadruple small-divisor bound on all of Delta within max_abs."""
    rep = exhaustive_divisor_audit(max_abs)
    detail = f"{rep['checked']} tuples, |j|<={max_abs}"
    return Check("quadruple divisor bound", not rep["violations"], detail, rep)


def quadruple_bound_random(n_samples: int, max_abs: int, seed: int) -> Check:
    """The quadruple small-divisor bound on random Delta quadruples."""
    rep = random_divisor_audit(n_samples, max_abs, seed=seed)
    return Check("quadruple divisor bound (random)", not rep["violations"], f"{rep['checked']} samples", rep)


def sextuple_bound(max_abs: int) -> Check:
    """The sextuple small-divisor bound on all non-resonant sextuples within max_abs."""
    rep = exhaustive_sextuple_audit(max_abs)
    return Check("sextuple divisor bound", not rep["violations"], f"{rep['checked']} tuples", rep)


def vanishing_sums(name: str, pairs: Iterable[TriplePair]) -> Check:
    """The nine-term sums I and II vanish on every pair; the report lists
    the pairs on which they do not."""
    count, bad = 0, []
    for p in pairs:
        count += 1
        if nine_term_sums(p) != (0, 0):
            bad.append(p)
    return Check(name, not bad, f"{count} pairs", bad)


def exact_battery(M: int, identities_bound: int, seed: int) -> Iterator[Check]:
    """verify-all's ten checks in order, each yielded as it completes, so R6
    is built only after the order-4 check has been reported."""
    yield order4_homological(M)
    r6 = compute_R6(M)
    yield action_part(M, r6)
    yield resonant_cancellation(M, r6)
    yield order6_homological(M, r6)
    yield reducible_closed_form(M, M, r6)
    yield vanishing_sums("kernel identities (integer pairs)", enumerate_triple_pairs(identities_bound))
    yield vanishing_sums("kernel identities (random rational)", random_rational_pairs(200, seed=seed))
    yield quadruple_bound(20)
    yield quadruple_bound_random(20_000, 10_000, seed)
    yield sextuple_bound(min(8, M))
