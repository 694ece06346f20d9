"""Exact symbolic polynomials in (q, qbar) with the weighted Poisson bracket.

Monomials are indexed by a pair of sorted integer multisets: the unbarred
slots (plus) and the barred slots (minus).  A Monomial is a NamedTuple
(plus, minus): it hashes, compares and unpacks as that plain pair of
tuples, and equals it.  Coefficients are ExactCoeff values, so bracket
identities and cancellations are checked with zero floating error.  The
bracket carries the mode weight j:

    {H, F} = -i * sum_j j * (dH/dq_j dF/dqbar_j - dH/dqbar_j dF/dq_j)

A polynomial is one flat map Monomial -> nonzero ExactCoeff; terms() lists
it by (degree, plus, minus), the order of the serialized records.

bracket pairs int numerators over each operand's common denominator and
keys each product monomial by the sum of its two factors' additive codes;
Lambda, or any sum_n h_n |q_n|^2 of int h_n without pi, multiplies each
term of the other by i w(m), the square divisor of m for Lambda, which is
how {Lambda, F6} = -Qtilde is checked, and forms no pairs (see bracket,
_contraction_index and _diagonal_bracket, which hold the details).

The numeric value and the vector field share one product kernel: each
compiles a polynomial once per form into rows, built in numpy from one table
of its terms, and multiplies them along a prefix plan (see _compile_rows and
_poly_sums).  The value is evaluated in clongdouble, where the residual
ladder's cancellation needs extended precision, and the field, -i j times
the qbar gradient, in complex128.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .coeffs import ExactCoeff, ZERO
from .states import mode_range, zero_momentum_rows


def _sorted_tuple(entries: Iterable[int]) -> tuple[int, ...]:
    t = tuple(sorted(int(e) for e in entries))
    if any(e == 0 for e in t):
        raise ValueError("mode 0 cannot index a monomial")
    return t


class Monomial(NamedTuple):
    """Canonical monomial q_{plus} * qbar_{minus}, multisets sorted ascending.

    A named pair, so hashing and equality run on the tuple (plus, minus),
    which it equals.  Monomial.of is the validating constructor; the bare
    constructor takes slots that are already sorted tuples of nonzero ints.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    @classmethod
    def of(cls, plus: Iterable[int], minus: Iterable[int]) -> "Monomial":
        return cls(_sorted_tuple(plus), _sorted_tuple(minus))

    @property
    def degree(self) -> int:
        return len(self.plus) + len(self.minus)

    def momentum(self) -> int:
        return sum(self.plus) - sum(self.minus)

    def square_divisor(self) -> int:
        """Alternating sum of squares: the eigenvalue of {Lambda, .} over i."""
        return sum(map(mul, self.plus, self.plus)) - sum(map(mul, self.minus, self.minus))

    def is_normal(self) -> bool:
        """True iff the monomial depends only on actions |q_j|**2."""
        return self.plus == self.minus

    def conjugate(self) -> "Monomial":
        return Monomial(self.minus, self.plus)

    def max_abs(self) -> int:
        return max(map(abs, self.plus + self.minus), default=0)

    def arrangements(self) -> int:
        """Number of ordered tuples mapping to this canonical monomial."""
        return _multiset_perms(self.plus) * _multiset_perms(self.minus)

    def __str__(self) -> str:
        return f"q{list(self.plus)}*qbar{list(self.minus)}"


def _multiset_perms(t: tuple[int, ...]) -> int:
    count = math.factorial(len(t))
    i = 0
    while i < len(t):
        k = i
        while k < len(t) and t[k] == t[i]:
            k += 1
        count //= math.factorial(k - i)
        i = k
    return count


def _cancels(a: ExactCoeff, b: ExactCoeff) -> bool:
    """The rational parts of a + b are zero, read off the normalized
    numerators and denominators without adding Fractions."""
    return (
        a.re.numerator == -b.re.numerator
        and a.re.denominator == b.re.denominator
        and a.im.numerator == -b.im.numerator
        and a.im.denominator == b.im.denominator
    )


class PolyHamiltonian:
    """Exact polynomial: map Monomial -> nonzero ExactCoeff."""

    def __init__(self, truncation: int, coeffs: dict[Monomial, ExactCoeff] | None = None):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        self.truncation = truncation
        self._coeffs = {m: c for m, c in (coeffs or {}).items() if not c.is_zero}
        self._cache: dict = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_terms(cls, truncation: int, items: Iterable[tuple[Monomial, ExactCoeff]]) -> "PolyHamiltonian":
        """Sum of the items; zero items are skipped before the truncation check."""
        coeffs: dict[Monomial, ExactCoeff] = {}
        for mono, coeff in items:
            if coeff.is_zero:
                continue
            if mono.max_abs() > truncation:
                raise ValueError(f"monomial {mono} exceeds truncation {truncation}")
            acc = coeffs.get(mono)
            coeffs[mono] = coeff if acc is None else acc + coeff
        return cls(truncation, coeffs)

    @classmethod
    def zero(cls, truncation: int) -> "PolyHamiltonian":
        return cls(truncation)

    @classmethod
    def _nonzero(cls, truncation: int, coeffs: dict[Monomial, ExactCoeff]) -> "PolyHamiltonian":
        """The polynomial on coeffs as given, every value nonzero by
        construction: a sum after its cancelled terms are deleted, a negation,
        a nonzero multiple, a restriction, a bracket or a homological solve
        skips the constructor's per-term zero test."""
        P = cls(truncation)
        P._coeffs = coeffs
        return P

    # -- inspection --------------------------------------------------------------

    def coefficient(self, mono: Monomial) -> ExactCoeff:
        return self._coeffs.get(mono, ZERO)

    def terms(self) -> Iterator[tuple[Monomial, ExactCoeff]]:
        """Terms in (degree, plus, minus) order: monomials sort as (plus,
        minus) tuples, and the stable sort by degree keeps that order."""
        for mono in sorted(sorted(self._coeffs), key=lambda m: len(m.plus) + len(m.minus)):
            yield mono, self._coeffs[mono]

    def degrees(self) -> list[int]:
        return sorted({m.degree for m in self._coeffs})

    @property
    def num_terms(self) -> int:
        return len(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyHamiltonian) and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"PolyHamiltonian(M={self.truncation}, terms={self.num_terms})"

    def is_real_valued(self) -> bool:
        """Exact conjugation symmetry: coeff(m) == conj(coeff(conj(m))), read
        off the normalized numerators and denominators as _cancels does."""
        for (plus, minus), c in self._coeffs.items():
            d = self._coeffs.get((minus, plus))
            if d is None or d.pi_power != c.pi_power or d.re.as_integer_ratio() != c.re.as_integer_ratio():
                return False
            if d.im.numerator != -c.im.numerator or d.im.denominator != c.im.denominator:
                return False
        return True

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")
        coeffs = dict(self._coeffs)
        for mono, coeff in other._coeffs.items():
            acc = coeffs.get(mono)
            if acc is None:
                coeffs[mono] = coeff
            elif acc.pi_power == coeff.pi_power and _cancels(acc, coeff):
                del coeffs[mono]
            else:  # raises on mixed pi powers
                coeffs[mono] = acc + coeff
        # the copy is compact: it drops the table slots of deleted terms
        return PolyHamiltonian._nonzero(self.truncation, dict(coeffs))

    def __neg__(self) -> "PolyHamiltonian":
        return PolyHamiltonian._nonzero(self.truncation, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> "PolyHamiltonian":
        f = Fraction(factor)
        if f == 0:
            return PolyHamiltonian.zero(self.truncation)
        return PolyHamiltonian._nonzero(self.truncation, {m: c.scaled(f) for m, c in self._coeffs.items()})

    def with_truncation(self, M: int) -> "PolyHamiltonian":
        """Reinterpret at truncation M; restricts or embeds as needed."""
        return PolyHamiltonian._nonzero(M, {m: c for m, c in self._coeffs.items() if m.max_abs() <= M})

    def filtered(self, predicate) -> "PolyHamiltonian":
        return PolyHamiltonian._nonzero(self.truncation, {m: c for m, c in self._coeffs.items() if predicate(m)})


def split_normal(H: PolyHamiltonian) -> tuple[PolyHamiltonian, PolyHamiltonian]:
    """Split into (action-only part, remainder); the sum reconstructs H."""
    return H.filtered(Monomial.is_normal), H.filtered(lambda m: not m.is_normal())


def _fraction(num: int, den: int) -> Fraction:
    """num / den, or the shared zero Fraction: the one step from the int
    numerators of the bracket and the homological solve to an output part."""
    return Fraction(num, den) if num else ZERO.re


def homological_solve(X: PolyHamiltonian, truncation: int) -> PolyHamiltonian:
    """The F with {Lambda, F} = -X, term by term: F = i X / d, d the square
    divisor of each monomial of X, on a polynomial of the given truncation.

    {Lambda, .} multiplies a term by i d, so i d (i c / d) = -c.  Each part
    is one _fraction of the numerator over the denominator times d.
    Raises ZeroDivisionError on a term of zero divisor: only a non-resonant
    X has a solution.
    """
    coeffs = {}
    for mono, c in X._coeffs.items():
        d = mono.square_divisor()
        re = _fraction(-c.im.numerator, c.im.denominator * d)
        im = _fraction(c.re.numerator, c.re.denominator * d)
        coeffs[mono] = ExactCoeff(re, im, c.pi_power)
    return PolyHamiltonian._nonzero(truncation, coeffs)


# -- bracket ----------------------------------------------------------------------


def _derivatives(mono: Monomial, slot: str):
    """Yield (n, multiplicity, plus, minus) for each distinct mode n in the
    slot ('plus' or 'minus'): d mono / d(q_n resp. qbar_n) is the
    multiplicity times the monomial (plus, minus), which lacks one n."""
    entries = getattr(mono, slot)
    for i, n in enumerate(entries):
        if i and entries[i - 1] == n:
            continue
        rest = entries[:i] + entries[i + 1 :]
        mult = entries.count(n)
        yield (n, mult, rest, mono.minus) if slot == "plus" else (n, mult, mono.plus, rest)


def _common_denominator(P: PolyHamiltonian) -> int:
    """LCM of the denominators of all real and imaginary parts of P."""
    return math.lcm(*(part.denominator for c in P._coeffs.values() for part in (c.re, c.im)))


def _longest_slot(P: PolyHamiltonian, slot: str) -> int:
    """The largest number of modes in the slot of any monomial of P."""
    return max((len(getattr(m, slot)) for m in P._coeffs), default=0)


def _contraction_index(P: PolyHamiltonian, slot: str, scale: int, digits: dict) -> dict[int, list]:
    """n -> entries (top, code, rest, value, phase, pi_power) of the
    derivatives of P by the slot's mode n, sorted by top: the largest |mode|
    of the remainder rest = (plus, minus).  code is the remainder's additive
    code, the sum of digits[s][j] over the modes j of each slot s.  value is
    the int multiplicity times the real (phase 0) or imaginary (phase 1)
    part times scale, a common denominator of P's parts; one entry per
    nonzero part.
    """
    index: dict[int, list] = {}
    plus_digits, minus_digits, slot_digits = digits["plus"], digits["minus"], digits[slot]
    for mono, c in P._coeffs.items():
        parts = [(ph, x.numerator * (scale // x.denominator)) for ph, x in ((0, c.re), (1, c.im)) if x]
        code = sum(map(plus_digits.__getitem__, mono.plus)) + sum(map(minus_digits.__getitem__, mono.minus))
        for n, mult, plus, minus in _derivatives(mono, slot):
            top = max(map(abs, plus + minus), default=0)
            rest_code = code - slot_digits[n]
            for phase, value in parts:
                index.setdefault(n, []).append((top, rest_code, (plus, minus), value * mult, phase, c.pi_power))
    for entries in index.values():
        entries.sort(key=lambda e: e[0])
    return index


def _product(h_rest: tuple, f_rest: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sorted (plus, minus) of the product of two remainders."""
    (hp, hm), (fp, fm) = h_rest, f_rest
    return tuple(sorted(hp + fp)), tuple(sorted(hm + fm))


def _diagonal_weights(P: PolyHamiltonian) -> defaultdict[int, int] | None:
    """n -> n h_n (0 for modes P lacks) if P = sum_n h_n q_n qbar_n with
    every h_n an int of pi power 0, as Lambda is; else None."""
    weights = defaultdict(int)
    for (plus, minus), c in P._coeffs.items():
        if len(plus) != 1 or plus != minus or c.im or c.pi_power or c.re.denominator != 1:
            return None
        weights[plus[0]] = plus[0] * c.re.numerator
    return weights


def _diagonal_bracket(weights: defaultdict[int, int], F: PolyHamiltonian, bound: float, sign: int) -> PolyHamiltonian:
    """sign * {D, F} for D = sum_n h_n q_n qbar_n of the int weights n h_n.

    {D, F} multiplies each term c m of F by i w(m), where
    w(m) = sum_n n h_n (alpha_n(m) - beta_n(m)) and alpha_n, beta_n count n
    among the plus and minus slots of m: the square divisor of m for
    Lambda, but read off D's coefficients, so the homological checks hold
    homological_solve's division by d(m) against an independent product.
    The output monomial is m, so the support bound keeps the terms with
    max_abs(m) within it.
    """
    get = weights.__getitem__
    out = {}
    for mono, c in F._coeffs.items():
        if bound < math.inf and mono.max_abs() > bound:
            continue
        w = sign * (sum(map(get, mono.plus)) - sum(map(get, mono.minus)))
        if w:  # i w (x + i y) = -w y + i w x
            re = _fraction(-w * c.im.numerator, c.im.denominator)
            im = _fraction(w * c.re.numerator, c.re.denominator)
            out[mono] = ExactCoeff(re, im, c.pi_power)
    return PolyHamiltonian._nonzero(min(F.truncation, bound), out)


def bracket(
    H: PolyHamiltonian,
    F: PolyHamiltonian,
    support_bound: int | None = None,
) -> PolyHamiltonian:
    """Exact weighted Poisson bracket {H, F}.

    If either operand D has Lambda's shape, sum_n h_n q_n qbar_n of int h_n
    and pi power 0, the bracket is a per-term product and no pairs are
    formed: {D, F} is i w(m) c m for each term c m of F, and {F, D} =
    -{D, F} (see _diagonal_bracket).  Any other diagonal operand, of
    rational, complex or pi-weighted h_n, takes the pair loop.

    Otherwise each operand's parts are ints over its common denominator D.
    Every product term pairs an entry of _contraction_index(H) with one of F
    for the same n, at the cost of one int product and one int add: -i n
    (dH/dq_n dF/dqbar_n) or +i n (dH/dqbar_n dF/dq_n), whose phase picks the
    output's real or imaginary part.  The output monomial of a pair is keyed
    by one more int add: each entry carries the additive code of its
    remainder, the sum over its modes j of base^(offset + j + T), with T the
    truncation, offset 0 for the plus slot and 2T + 1 for the minus slot, and
    base the larger of the two slot-length sums of the operands, so it
    exceeds the longest output slot.  A code's base-digits then count each
    (slot, mode) of the remainder, the product's code is the sum of the two
    codes, and distinct output monomials have distinct codes.  Each output's
    sorted (plus, minus) is built once, from the remainders of the first
    pair that reaches it.  Each output part is one _fraction over D_H D_F,
    and outputs whose int parts cancel are dropped before any is built.
    If both operands are real valued the second pass is the conjugate of the
    first, so only the first runs and its sums A are folded once over their
    monomials: {H, F}(m) = A(m) + conj(A(conj m)).  If support_bound is
    given, output terms with any mode exceeding it are dropped; an output's
    modes are the two remainders', so only the bisected prefixes with top <=
    support_bound are ever paired.  Terms of different pi powers meeting on
    one monomial raise ValueError.
    """
    if H.truncation != F.truncation:
        raise ValueError("truncation mismatch")
    bound = math.inf if support_bound is None else support_bound
    for D, G, sign in ((H, F, 1), (F, H, -1)):
        weights = _diagonal_weights(D)
        if weights is not None:
            return _diagonal_bracket(weights, G, bound, sign)
    real = H.is_real_valued() and F.is_real_valued()
    h_scale, f_scale = _common_denominator(H), _common_denominator(F)
    T = H.truncation
    base = max(
        _longest_slot(H, "plus") + _longest_slot(F, "plus"),
        _longest_slot(H, "minus") + _longest_slot(F, "minus"),
    )
    digits = {
        slot: {j: base ** (offset + j + T) for j in range(-T, T + 1)}
        for slot, offset in (("plus", 0), ("minus", 2 * T + 1))
    }

    def window(entries):
        return entries[: bisect_right(entries, bound, key=lambda e: e[0])]

    def clash(key, pi, other):
        return ValueError(f"pi powers {pi} and {other} meet on {key}")

    by_code: dict[int, list] = {}
    for h_slot, f_slot, sign in (("plus", "minus", -1), ("minus", "plus", 1))[: 1 if real else 2]:
        h_index = _contraction_index(H, h_slot, h_scale, digits)
        f_index = _contraction_index(F, f_slot, f_scale, digits)
        for n in h_index.keys() & f_index.keys():
            f_entries = window(f_index[n])
            for _, hc, hr, hv, hph, hpi in window(h_index[n]):
                w = sign * n * hv
                weights = (w, -w, -w)  # i^(hph + fph + 1): imaginary +, real -, imaginary -
                for _, fc, fr, fv, fph, fpi in f_entries:
                    key = hc + fc
                    slot = by_code.get(key)
                    if slot is None:
                        by_code[key] = slot = [0, 0, hpi + fpi, hr, fr]
                    elif slot[2] != hpi + fpi:
                        raise clash(_product(hr, fr), slot[2], hpi + fpi)
                    ph = hph + fph
                    slot[1 - ph % 2] += weights[ph] * fv
    acc = {_product(hr, fr): (re, im, pi) for re, im, pi, hr, fr in by_code.values()}
    if real:
        folded = {}
        for (plus, minus), (re, im, pi) in acc.items():
            conj = acc.get((minus, plus))
            if conj is None:
                folded[minus, plus] = (re, -im, pi)
            elif conj[2] != pi:
                raise clash((plus, minus), pi, conj[2])
            else:
                re, im = re + conj[0], im - conj[1]
            folded[plus, minus] = (re, im, pi)
        acc = folded
    scale = h_scale * f_scale
    return PolyHamiltonian._nonzero(
        min(H.truncation, bound),
        {
            Monomial(plus, minus): ExactCoeff(_fraction(re, scale), _fraction(im, scale), pi)
            for (plus, minus), (re, im, pi) in acc.items()
            if re or im
        },
    )


# -- standard Hamiltonians -----------------------------------------------------------


def build_lambda(M: int) -> PolyHamiltonian:
    """Quadratic part: sum over j of j |q_j|^2."""
    return PolyHamiltonian.from_terms(
        M,
        (
            (Monomial.of((j,), (j,)), ExactCoeff.real(j))
            for j in mode_range(M)
        ),
    )


def quartets(M: int, Mx: int) -> Iterator[tuple[Monomial, int]]:
    """Every canonical zero-momentum quartic monomial with all modes within
    Mx and at most one outside the window [1, M], with its arrangement
    count, in (plus, minus) order: at Mx = M, the terms of G.

    A row (j, k, l, m) of zero_momentum_rows(4, min(Mx, 3M)) is
    q_j q_l qbar_k qbar_m: the one mode outside the window is a signed sum
    of three inside it, so no row past 3M is kept.  Sorted within each
    slot, the rows of one monomial are its arrangements, which np.unique
    counts.  A normal monomial has an even number of modes outside the
    window, so every normal one lies inside it.  Raises ValueError for
    Mx < M and, before any grid is built, for min(Mx, 3M) over 1058.
    """
    if not 1 <= M <= Mx:
        raise ValueError(f"need 1 <= M <= Mx, got M={M}, Mx={Mx}")
    canonical = []
    for rows in zero_momentum_rows(4, min(Mx, 3 * M)):
        rows = rows[(np.abs(rows) > M).sum(axis=1) <= 1]
        canonical.append(np.hstack((np.sort(rows[:, 0::2], axis=1), np.sort(rows[:, 1::2], axis=1))))
    monos, counts = np.unique(np.concatenate(canonical), axis=0, return_counts=True)
    for (a, b, c, d), arr in zip(monos.tolist(), counts.tolist()):
        yield Monomial((a, b), (c, d)), arr


def build_G(M: int) -> PolyHamiltonian:
    """Full quartic Hamiltonian: (1/4pi) over all zero-momentum quadruples.

    Ordered-tuple sums are aggregated onto canonical monomials with their
    arrangement counts, so scalar evaluations match the physical integral.
    """
    return PolyHamiltonian.from_terms(
        M, ((mono, ExactCoeff.real(Fraction(arr, 4), pi_power=1)) for mono, arr in quartets(M, M))
    )


def build_B_closed_form(M: int) -> PolyHamiltonian:
    """Action part of the quartic energy, from its closed form:

        -(1/4pi) sum |q_j|^4 + (1/2pi) (sum |q_j|^2)^2
    """
    items = []
    modes = mode_range(M)
    for a in modes:
        items.append(
            (Monomial.of((a, a), (a, a)), ExactCoeff.real(Fraction(-1, 4) + Fraction(1, 2), pi_power=1))
        )
        for b in modes:
            if b > a:
                items.append(
                    (Monomial.of((a, b), (a, b)), ExactCoeff.real(Fraction(1, 1), pi_power=1))
                )
    return PolyHamiltonian.from_terms(M, items)


def build_Q(M: int, Mx: int | None = None) -> PolyHamiltonian:
    """Non-normal quartic part: zero momentum with plus != minus.

    With Mx > M the terms with one mode in M < |n| <= Mx are included too
    (see quartets), on a polynomial of truncation Mx.
    """
    Mx = M if Mx is None else Mx
    items = [
        (mono, ExactCoeff.real(Fraction(arr, 4), pi_power=1))
        for mono, arr in quartets(M, Mx)
        if not mono.is_normal()
    ]
    return PolyHamiltonian.from_terms(Mx, items)


def ordered_coefficient(poly: PolyHamiltonian, entries: tuple[int, ...]) -> ExactCoeff:
    """Per-ordered-tuple coefficient: canonical value over arrangement count.

    Well defined for the constructions here, whose ordered coefficients are
    arrangement-invariant (they depend on index multisets only).
    """
    plus = entries[0::2]
    minus = entries[1::2]
    mono = Monomial.of(plus, minus)
    c = poly.coefficient(mono)
    return c.scaled(Fraction(1, mono.arrangements()))


# -- serialization ---------------------------------------------------------------------


def poly_to_records(poly: PolyHamiltonian) -> list[dict]:
    records = []
    for mono, coeff in poly.terms():
        records.append(
            {
                "plus": list(mono.plus),
                "minus": list(mono.minus),
                "re": f"{coeff.re.numerator}/{coeff.re.denominator}",
                "im": f"{coeff.im.numerator}/{coeff.im.denominator}",
                "pi_power": coeff.pi_power,
            }
        )
    return records


def poly_from_records(records: list[dict], truncation: int) -> PolyHamiltonian:
    items = []
    for row in records:
        mono = Monomial.of(row["plus"], row["minus"])
        coeff = ExactCoeff(
            Fraction(row["re"]), Fraction(row["im"]), int(row["pi_power"])
        )
        items.append((mono, coeff))
    return PolyHamiltonian.from_terms(truncation, items)


# -- numeric evaluation -----------------------------------------------------------------


LONG_COMPLEX = np.dtype(np.clongdouble)


def evaluate_poly(poly: PolyHamiltonian, vec: np.ndarray) -> np.clongdouble:
    """Numeric value at a dense state vector over mode_range(truncation),
    evaluated in clongdouble.  Raises ValueError unless vec has one entry
    per mode."""
    return _poly_sums(poly, vec, field=False)[0]


def _prefix_plan(factors: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Prefix-product plan for the rows of a (rows, width) factor table.

    Level k (k = 1 .. width) is the table of the distinct length-k
    prefixes, each entry a pair (parent, last): the index of its
    length-(k-1) prefix in level k-1 (0, the empty prefix, at level 1) and
    its last factor.  Returns the levels and, per row, the index of its
    full prefix in the last level.
    """
    rows, width = factors.shape
    span = int(factors.max(initial=0)) + 1
    ids = np.zeros(rows, dtype=np.intp)
    plan = []
    for k in range(width):
        uniq, ids = np.unique(ids * span + factors[:, k], return_inverse=True)
        plan.append((uniq // span, uniq % span))
    return plan, ids


def _compile_rows(poly: PolyHamiltonian, field: bool) -> tuple[list[tuple], np.ndarray]:
    """The value's rows (field=False: one per term, component 0, in
    clongdouble) or the field's (field=True: one per -i n dP/dqbar_n, in
    complex128) as width groups, widths ascending, and the ext buffer each
    call loads the state into; compiled once per polynomial and form.  Rows
    sort by (component, last factor, rank in terms()).
    """
    key = ("rows", field)
    compiled = poly._cache.get(key)
    if compiled is not None:
        return compiled
    rank, comp, pref, rows = _term_rows(poly, field)
    n_modes = 2 * poly.truncation
    widths = (rows >= 0).sum(axis=1)
    groups = []
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        sel = np.flatnonzero(widths == width)
        sel = sel[np.lexsort((rank[sel], rows[sel, -1] if width else comp[sel], comp[sel]))]
        factors = rows[sel, rows.shape[1] - width :]
        groups.append(_width_group(width, comp[sel], pref[sel], factors, n_modes if field else 1))
    compiled = poly._cache[key] = (groups, np.empty(2 * n_modes, dtype=pref.dtype))
    return compiled


def _term_rows(poly: PolyHamiltonian, field: bool) -> tuple[np.ndarray, ...]:
    """Every row of the value (field=False) or the field as arrays: its rank
    in terms(), component, prefactor and factors.  The factors are indices
    into ext after -1 pads: ext ascends along a row, so a sort puts the pads
    first and keeps the factors' order.  numpy builds the rows at once from
    one pass over the terms, which reads their slots, plus then minus, and
    exact parts; returning frees the temporaries before the groups are built.

    A qbar_n row drops the first minus entry n, and mult counts them.  A
    row's prefactor is (num mult) / den pi**-p: for the field, -i n times its
    division in Python ints, rounded as float(Fraction) is, and pi**-p as in
    to_complex; for the value, in clongdouble from longdouble parts.
    """
    M = poly.truncation
    coeffs = list(poly._coeffs.values())
    parts = chain.from_iterable(c.re.as_integer_ratio() + c.im.as_integer_ratio() for c in coeffs)
    parts = np.fromiter(parts, object).reshape(-1, 4)  # Python ints: exact products
    pi = math.pi if field else np.longdouble(math.pi)
    powers = {p: pi**-p for p in {c.pi_power for c in coeffs}}
    scale = np.array([powers[c.pi_power] for c in coeffs])
    # padded by -M - 1, below every mode, a slot sorts before its extensions
    lens = np.fromiter(map(len, chain.from_iterable(poly._coeffs)), np.intp).reshape(-1, 2)
    P, Q = lens.max(axis=0, initial=0)
    filled = np.hstack((np.arange(P) < lens[:, :1], np.arange(Q) < lens[:, 1:]))
    slots = np.full(filled.shape, -M - 1)
    slots[filled] = list(chain.from_iterable(chain.from_iterable(poly._coeffs)))
    rank = np.lexsort((*slots.T[::-1], lens.sum(axis=1))).argsort()
    # q_j sits at j + M - (j > 0) in vec, and qbar_j 2M further on in ext
    ext = np.where(filled, slots + M - (slots > 0) + 2 * M * (np.arange(P + Q) >= P), -1)
    if not field:  # each term's value, from longdouble parts
        re, im = (parts[:, k].astype(np.longdouble) / parts[:, k + 1].astype(np.longdouble) * scale for k in (0, 2))
        pref = re.astype(LONG_COMPLEX) + LONG_COMPLEX.type(1j) * im
        return rank, np.zeros(len(coeffs), dtype=np.intp), pref, np.sort(ext, axis=1)
    bars = slots[:, P:]
    term, i = np.nonzero(filled[:, P:] & (np.diff(bars, axis=1, prepend=0) != 0))
    n, rows = bars[term, i], ext[term]
    rows[np.arange(len(term)), P + i] = -1
    mult = (bars[term] == n[:, None]).sum(axis=1)
    # -i n (num mult) / den in Python ints, rounded as float(Fraction) is
    pref = np.empty(len(term), np.complex128)
    pref.real, pref.imag = ((parts[term, k] * mult / parts[term, k + 1]).astype(float) * scale[term] for k in (0, 2))
    pref *= -1j * n
    rows.sort(axis=1)
    return rank[term], n + M - (n > 0), pref, rows


def _width_group(width: int, comp: np.ndarray, pref: np.ndarray, factors: np.ndarray, n_out: int) -> tuple:
    """One width's rows, sorted by (component, last factor), as a group
    (width, comp, comp_starts, seg_starts, pref, take, levels, head, work).

    A factor is an index into ext = concatenate(vec, conj(vec)).  The
    prefix plan covers each row's first width-1 factors, and the last factor
    multiplies once the sum of each (component, last factor) segment.  The
    group holds its components in order, or None if it has all n_out; where
    each component's run of segments starts; where each segment's run of
    rows starts; the prefactors; the ext indices gathered once per call,
    every prefix level's last factors and then each segment's; (parent,
    slice of the gathered factors) per prefix level; each row's head in the
    last level; and the work buffers for the gathered factors, two levels
    and the rows.
    """
    last = factors[:, -1] if width else comp
    seg_starts = np.flatnonzero(np.r_[True, (comp[1:] != comp[:-1]) | (last[1:] != last[:-1])])
    seg_comp = comp[seg_starts]
    comp_starts = np.flatnonzero(np.r_[True, seg_comp[1:] != seg_comp[:-1]])
    levels, head = _prefix_plan(factors[:, :-1]) if width > 1 else ([], None)
    lasts = [level_last for _, level_last in levels] + ([last[seg_starts]] if width else [])
    ends = np.cumsum([0] + [len(x) for x in lasts])
    level_size = max((len(parent) for parent, _ in levels[1:]), default=0)
    dtype = pref.dtype
    work = (np.empty(ends[-1], dtype), *np.empty((2, level_size), dtype), np.empty(len(pref) if levels else 0, dtype))
    present = None if len(comp_starts) == n_out else seg_comp[comp_starts]
    take = np.concatenate(lasts) if lasts else np.zeros(0, dtype=np.intp)
    plan = [(parent, slice(a, b)) for (parent, _), a, b in zip(levels, ends, ends[1:])]
    return width, present, comp_starts, seg_starts, pref, take, plan, head, work


def _prefix_products(levels, lasts: np.ndarray, work) -> np.ndarray:
    """Products of the last level's prefixes, ((f0 f1) f2) ..., the
    left-to-right order of a row-wise product.

    lasts holds every level's last factors, gathered by one take per call,
    and each level multiplies its parents by its slice of them.  Level 1 is
    that slice itself; the others alternate between the two work buffers:
    fresh arrays of that size cost page faults on every call.
    """
    (_, first), *rest = levels
    tab = lasts[first]
    for k, (parent, last) in enumerate(rest):
        # take(out=...) copies through a temporary under the default mode="raise"
        new = tab.take(parent, out=work[k % 2][: len(parent)], mode="clip")
        tab = np.multiply(new, lasts[last], out=new)
    return tab


def _poly_sums(poly: PolyHamiltonian, vec, field: bool) -> np.ndarray:
    """The value (field=False, one component) or the vector field
    (field=True, one component per mode) of poly at vec, a fresh array.

    Per width group, each row is its prefactor times its head, the product
    of its first width-1 factors; the rows of each (component, last factor)
    segment are summed by np.add.reduceat, each segment sum is multiplied
    by its last factor and the segments are summed per component: by
    np.add.reduceat for the field, and for the value's one component by
    np.add.reduce, np.sum's pairwise order.  The order matters there: H and
    the normal form cancel to 1e-19 on the residual ladder, and reduceat's
    order moves its residuals by up to 5e-6 relative.  The groups are added
    in width order.  The compile's ext and work buffers are reused on every
    call: calls on one polynomial and form are not reentrant.  Raises
    ValueError unless vec is a vector of one entry per mode.
    """
    groups, ext = _compile_rows(poly, field)
    vec = np.asarray(vec)
    n_modes = len(ext) // 2
    if vec.shape != (n_modes,):
        raise ValueError(
            f"state of shape {vec.shape} does not fit truncation {poly.truncation}: "
            f"it needs a vector of {n_modes} entries, one per mode"
        )
    ext[:n_modes] = vec
    np.conjugate(ext[:n_modes], out=ext[n_modes:])
    n_out = n_modes if field else 1
    total = None
    for width, comp, comp_starts, seg_starts, pref, take, levels, head, work in groups:
        rows = pref
        if width:
            lasts = ext.take(take, out=work[0], mode="clip")
        if levels:
            rows = _prefix_products(levels, lasts, work[1:3]).take(head, out=work[3], mode="clip")
            np.multiply(pref, rows, out=rows)
        sums = np.add.reduceat(rows, seg_starts)
        if width:  # the segments' last factors end the gathered ones
            np.multiply(sums, lasts[-len(sums) :], out=sums)
        if field:
            sums = np.add.reduceat(sums, comp_starts)
        else:
            sums = np.add.reduce(sums, keepdims=True)
        if comp is not None:
            sums, present = np.zeros(n_out, dtype=ext.dtype), sums
            sums[comp] = present
        total = sums if total is None else total + sums
    return np.zeros(n_out, dtype=ext.dtype) if total is None else total


def vector_field_vec(F: PolyHamiltonian, vec: np.ndarray) -> np.ndarray:
    """Components -i j dF/dqbar_j as a dense complex128 vector, whatever
    the dtype of vec (see _poly_sums).  Raises ValueError unless vec has one
    entry per mode."""
    return _poly_sums(F, vec, field=True)
