import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnls_nflab import identities
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
    assert nine_term_sums(p) == (0, 0)


def test_lemma_zero_family():
    # x = (0, a, -a) family: a = 7 admits the disjoint partner (3, 5, -8)
    p = TriplePair.of((0, 7, -7), (3, 5, -8))
    assert not p.hypothesis_violations()
    assert nine_term_sums(p) == (0, 0)


def test_hypothesis_violation_reported():
    p = TriplePair.of((1, 2, 3), (1, 2, 3))
    assert p.hypothesis_violations() == ["triples share a value"]
    q = TriplePair.of((1, 2, 3), (4, 5, 6))
    assert q.hypothesis_violations() == ["sums differ", "square sums differ"]


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


def test_enumeration_refuses_a_bound_past_its_limit(monkeypatch):
    # bound 100 takes some 50 s and 520 MB: past it the enumerator raises
    # before it forms a single triple
    def never(*args):
        raise AssertionError("enumerated before checking the bound")

    monkeypatch.setattr(identities.itertools, "combinations_with_replacement", never)
    assert identities.TRIPLE_PAIR_MAX_BOUND == 100
    for bound in (101, 10**6):
        with pytest.raises(ValueError, match=f"bound={bound} is over the limit 100"):
            enumerate_triple_pairs(bound)


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


def test_random_pairs_stream_is_pinned():
    # the first draws of criterion 4's seed
    F = Fraction
    want = [
        ((F(37, 3), F(7, 3), F(-23, 3)), (F(3043, 417), F(-3827, 417), F(3703, 417))),
        ((F(-29, 3), F(-8, 3), F(58, 3)), (F(82, 21), F(-284, 21), F(349, 21))),
        ((F(25, 4), F(-85, 12), F(-17, 12)), (F(4743, 988), F(3349, 2964), F(-24247, 2964))),
    ]
    assert [(p.x, p.y) for p in random_rational_pairs(3, seed=20200826)] == want


def _reference_random_rational_pairs(count, seed):
    """random_rational_pairs written in Fraction arithmetic, draw by draw."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    produced = 0
    while produced < count:
        a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7)))
        x1, x2 = a, b
        x3 = -x1 - x2
        x = (x1, x2, x3)
        if len(set(x)) < 2:
            continue
        t = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
        w = -(2 * x1 + x2 + t * (x1 + 2 * x2)) / (1 + t + t * t)
        if w == 0:
            continue
        y1 = x1 + w
        y2 = x2 + t * w
        y = (y1, y2, -y1 - y2)
        if set(x) & set(y):
            continue
        shift = Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5)))
        pair = TriplePair.of(x, y).translated(shift)
        if _reference_hypothesis_violations(pair):
            continue
        produced += 1
        yield pair


@pytest.mark.parametrize("seed", [1, 2, 20200826])
def test_random_pairs_match_the_fraction_reference(seed):
    got = [(p.x, p.y) for p in random_rational_pairs(1000, seed=seed)]
    assert got == [(p.x, p.y) for p in _reference_random_rational_pairs(1000, seed)]
    assert all(type(v) is Fraction for x, y in got for v in x + y)


# -- plain-Fraction references for the integer-scaled checks ----------------------
#
# Each is the check written directly in Fraction arithmetic, term by term; the
# library evaluates the same quantities on the pair scaled to integers.


def _reference_nine_term_sums(pair):
    x, y = pair.x, pair.y
    I = II = Fraction(0)
    for a, g in itertools.combinations(range(3), 2):
        for b in range(3):
            I += mu(x[a], y[b], x[g])
            II += tau(x[a], y[b], x[g])
    return I, II


def _reference_hypothesis_violations(pair):
    out = []
    if set(pair.x) & set(pair.y):
        out.append("triples share a value")
    if sum(pair.x) != sum(pair.y):
        out.append("sums differ")
    if sum(v * v for v in pair.x) != sum(v * v for v in pair.y):
        out.append("square sums differ")
    return out


def _reference_intermediate_identities(pair):
    if sum(pair.x) != 0 or sum(pair.y) != 0:
        raise ValueError("identities require centered triples (sum zero)")
    x, y = pair.x, pair.y
    N = Fraction(sum(v * v for v in x))
    if sum(v * v for v in y) != N:
        raise ValueError("square sums differ")
    X, Y = x[0] * x[1] * x[2], y[0] * y[1] * y[2]

    def e2(t):
        return t[0] * t[1] + t[1] * t[2] + t[2] * t[0]

    def pair_power(t, k):
        return (t[0] * t[1]) ** k + (t[1] * t[2]) ** k + (t[2] * t[0]) ** k

    def power(t, k):
        return sum(v**k for v in t)

    return {
        "pair_products": e2(x) == -N / 2 and e2(y) == -N / 2,
        "pair_squares": pair_power(x, 2) == N * N / 4 and pair_power(y, 2) == N * N / 4,
        "fourth_powers": power(x, 4) == N * N / 2 and power(y, 4) == N * N / 2,
        "third_powers": power(x, 3) == 3 * X and power(y, 3) == 3 * Y,
        "pair_cubes": pair_power(x, 3) == 3 * X * X - N**3 / 8
        and pair_power(y, 3) == 3 * Y * Y - N**3 / 8,
    }


def _reference_denominator_identity(pair):
    if sum(pair.x) != 0:
        raise ValueError("requires centered triples")
    x, y = pair.x, pair.y
    N = Fraction(sum(v * v for v in x))
    X = x[0] * x[1] * x[2]
    return all(
        (x[0] - yb) * (x[1] - yb) * (x[2] - yb) == X + (N / 2) * yb - yb**3 for yb in y
    )


def _reference_row_sum_closed_forms(pair):
    if sum(pair.x) != 0:
        raise ValueError("requires centered triples")
    x, y = pair.x, pair.y
    N = Fraction(sum(v * v for v in x))
    X = x[0] * x[1] * x[2]
    for yb in y:
        den = X + (N / 2) * yb - yb**3
        if den == 0:
            raise ZeroDivisionError("degenerate denominator; disjointness violated")
        rows = list(itertools.combinations(range(3), 2))
        if sum(mu(x[a], yb, x[g]) for a, g in rows) != -3 * yb / den:
            return False
        if sum(tau(x[a], yb, x[g]) for a, g in rows) != (3 * yb * yb - N) / den:
            return False
    return True


_CHECKS = [
    (nine_term_sums, _reference_nine_term_sums),
    (TriplePair.hypothesis_violations, _reference_hypothesis_violations),
    (intermediate_identities, _reference_intermediate_identities),
    (denominator_identity, _reference_denominator_identity),
    (row_sum_closed_forms, _reference_row_sum_closed_forms),
]


def _outcome(fn, pair):
    """The value fn returns on pair, or the type and message of what it raises."""
    try:
        return fn(pair)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(pair):
    for fn, ref in _CHECKS:
        assert _outcome(fn, pair) == _outcome(ref, pair), (fn.__name__, pair)


def _conic_partner(x1, x2, t):
    """The centered triple through (x1, x2) on the chord of slope t with the
    same square sum as (x1, x2, -x1-x2), as random_rational_pairs draws it."""
    w = -(2 * x1 + x2 + t * (x1 + 2 * x2)) / (1 + t + t * t)
    return (x1 + w, x2 + t * w, -2 * x1 - x2 - w - t * w)


triples = st.tuples(rationals, rationals, rationals)


@given(triples, triples)
def test_checks_match_reference_on_arbitrary_pairs(x, y):
    # almost every draw violates the hypotheses: nonzero sums, violations
    # listed, and the centered-only identities raise ValueError
    _assert_matches_reference(TriplePair.of(x, y))


@given(rationals, rationals, rationals, rationals)
def test_checks_match_reference_on_centered_pairs(x1, x2, t, shift):
    # both triples centered with equal square sums, disjoint or not; every
    # symmetric-function identity holds there (it follows from sum zero)
    pair = TriplePair.of((x1, x2, -x1 - x2), _conic_partner(x1, x2, t))
    _assert_matches_reference(pair)
    _assert_matches_reference(pair.translated(shift))
    _assert_matches_reference(pair.centered())
    _assert_matches_reference(TriplePair.of(pair.x, tuple(-v for v in pair.x)))
    if not pair.hypothesis_violations():
        assert nine_term_sums(pair.translated(shift)) == (0, 0)


@given(triples, triples, st.integers(0, 2), st.integers(0, 2), st.booleans())
def test_checks_match_reference_at_poles(x, y, a, b, centered):
    # y_b = x_a: both sums have a pole, and so have the row sums of row b
    if centered:
        x = (x[0], x[1], -x[0] - x[1])
    y = tuple(x[a] if i == b else v for i, v in enumerate(y))
    pair = TriplePair.of(x, y)
    with pytest.raises(ZeroDivisionError):
        nine_term_sums(pair)
    _assert_matches_reference(pair)


ints = st.integers(-50, 50)


@given(st.tuples(ints, ints, ints), st.tuples(ints, ints, ints), st.integers(-30, 30))
def test_checks_match_reference_on_raw_int_pairs(x, y, t):
    # TriplePair built directly from ints, without TriplePair.of's conversion
    _assert_matches_reference(TriplePair(x, y))
    _assert_matches_reference(TriplePair((x[0], x[1], -x[0] - x[1]), (y[0], y[1], -y[0] - y[1])))
    partner = _conic_partner(x[0], x[1], Fraction(t))
    if all(v.denominator == 1 for v in partner):
        c = TriplePair((x[0], x[1], -x[0] - x[1]), tuple(int(v) for v in partner))
        _assert_matches_reference(c)
