from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnls_nflab.identities import (
    TriplePair,
    denominator_identity,
    enumerate_triple_pairs,
    intermediate_identities,
    mu,
    nine_term_sums,
    pair_matches,
    random_rational_pairs,
    row_sum_closed_forms,
    tau,
    verify_vanishing_sums,
)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)


def test_mu_example():
    assert mu(1, 2, 5) == Fraction(-1, 3)


def test_mu_pole_guard():
    with pytest.raises(ZeroDivisionError):
        mu(1, 1, 3)


@given(rationals, rationals, rationals)
def test_mu_symmetry(x, y, z):
    if x != y and z != y:
        assert mu(x, y, z) == mu(z, y, x)


@given(rationals, rationals, rationals, rationals)
def test_mu_translation_invariance(x, y, z, t):
    if x != y and z != y:
        assert mu(x + t, y + t, z + t) == mu(x, y, z)


@given(rationals, rationals, rationals, rationals)
def test_tau_translation_rule(x, y, z, t):
    if x != y and z != y:
        assert tau(x + t, y + t, z + t) == tau(x, y, z) + t * mu(x, y, z)


def test_lemma_on_known_pair():
    p = TriplePair.of((1, 5, 6), (2, 3, 7))
    assert verify_vanishing_sums(p) == (0, 0)


def test_lemma_zero_family():
    # x = (0, a, -a) family: a = 7 admits the disjoint partner (3, 5, -8)
    p = TriplePair.of((0, 7, -7), (3, 5, -8))
    assert not p.hypothesis_violations()
    assert verify_vanishing_sums(p) == (0, 0)


def test_hypothesis_violation_reported():
    p = TriplePair.of((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="share"):
        verify_vanishing_sums(p)
    q = TriplePair.of((1, 2, 3), (4, 5, 6))
    with pytest.raises(ValueError, match="sums"):
        verify_vanishing_sums(q)


def test_translation_consistency_of_sums():
    base = TriplePair.of((1, 5, 6), (2, 3, 7))
    t = Fraction(7, 3)
    shifted = base.translated(t)
    I0, II0 = nine_term_sums(base)
    I1, II1 = nine_term_sums(shifted)
    assert I1 == I0 == 0
    assert II1 == II0 + t * I0 == 0


def test_intermediate_identities_example():
    # x = (1, -3, 2) is already centered with N = 14, X = -6
    p = TriplePair.of((1, -3, 2), (1, -3, 2))
    # identities only need each triple centered; use x against itself for the
    # arithmetic checks (the hypotheses are not needed here)
    checks = intermediate_identities(p)
    assert all(checks.values())
    x = (1, -3, 2)
    assert sum(v**4 for v in x) == 98 == Fraction(14 * 14, 2)
    assert sum(v**3 for v in x) == -18 == 3 * (1 * -3 * 2)


def test_intermediate_identities_require_centering():
    p = TriplePair.of((1, 5, 6), (2, 3, 7))
    with pytest.raises(ValueError):
        intermediate_identities(p)
    assert all(intermediate_identities(p.centered()).values())


def test_denominator_identity_and_row_sums():
    p = TriplePair.of((1, 5, 6), (2, 3, 7)).centered()
    assert denominator_identity(p)
    assert row_sum_closed_forms(p)


def test_enumeration_known_members():
    pairs = enumerate_triple_pairs(7)
    assert any(pair_matches(p, (1, 5, 6), (2, 3, 7)) for p in pairs)
    assert any(pair_matches(p, (1, 4, 4), (2, 2, 5)) for p in pairs)


def test_enumeration_positive_only_distinct_picture():
    # with repeated entries allowed, positive pairs exist already at bound 6;
    # all-distinct positive pairs appear first at bound 7
    six = [p for p in enumerate_triple_pairs(6) if min(p.x + p.y) > 0]
    assert all(
        len(set(p.x)) < 3 or len(set(p.y)) < 3 for p in six
    ), "every bound-6 positive pair involves a repeated entry"
    seven = [p for p in enumerate_triple_pairs(7) if min(p.x + p.y) > 0]
    assert any(
        len(set(p.x)) == 3 and len(set(p.y)) == 3 for p in seven
    )


def test_enumeration_all_verify():
    for p in enumerate_triple_pairs(12):
        assert nine_term_sums(p) == (0, 0)


def test_random_rational_pairs_verify():
    count = 0
    for p in random_rational_pairs(300, seed=99):
        assert nine_term_sums(p) == (0, 0)
        count += 1
    assert count == 300


def test_random_pairs_deterministic():
    a = [(p.x, p.y) for p in random_rational_pairs(20, seed=5)]
    b = [(p.x, p.y) for p in random_rational_pairs(20, seed=5)]
    assert a == b
