"""Exact symbolic polynomials in (q, qbar) with the weighted Poisson bracket.

Monomials are indexed by a pair of sorted integer multisets: the unbarred
slots (plus) and the barred slots (minus).  Coefficients are ExactCoeff
values, so bracket identities and cancellations are checked with zero
floating error.  The bracket carries the mode weight j:

    {H, F} = -i * sum_j j * (dH/dq_j dF/dqbar_j - dH/dqbar_j dF/dq_j)

A polynomial is one flat map Monomial -> nonzero ExactCoeff; terms() lists
it by (degree, plus, minus), the order of the serialized records.

bracket indexes both operands per call by contracted mode n: one entry per
derivative by q_n or qbar_n, holding the remaining multisets, their largest
|mode| and one int per nonzero real or imaginary part, its numerator over
the operand's one common denominator (the LCM of all its coefficient
denominators).  A kept pair costs one int product and one int add, and each
output part becomes one Fraction over the product of the two denominators.
Sorted by that largest mode, a support bound becomes a bisect prefix of each
list, so pairs whose product leaves the window are never formed.  For real
valued operands the dH/dqbar dF/dq pass is the conjugate of the dH/dq
dF/dqbar pass, so only the latter runs and is folded onto the conjugate
monomials once.

A diagonal operand, sum_n h_n q_n qbar_n as Lambda, needs no pairs: its
bracket with F multiplies each term c m of F by i w(m), with
w(m) = sum_n n h_n (alpha_n(m) - beta_n(m)) over the multiplicities of n in
the plus and minus slots of m, so it costs one step per term of F, again
in int numerators over the two common denominators.  For Lambda, w(m) is the
square divisor of m, which is how {Lambda, F6} = -Qtilde is checked.

The numeric value, vector field and gradients share one product kernel.
Each compiles a polynomial once per dtype into rows: one per term for the
value, one per derivative term for the others, each an output component,
a prefactor and a list of factors, the plus slots then the minus slots.  A
factor is an index into ext = concatenate(vec, conj(vec)), so a barred slot
needs no conjugation mask.  Rows of one width share a prefix plan: level k
holds the distinct length-k factor prefixes, each as (index of its
length-(k-1) prefix, index of its last factor), and the last level is
aligned with the rows.  A call takes and multiplies one level at a time,
so a prefix shared by many rows is multiplied once, in the association
((f0 f1) f2) ... of a row-wise product; results are bit-identical to
multiplying every row out in full.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .coeffs import ExactCoeff, ZERO
from .states import FourierState, mode_range


def _sorted_tuple(entries: Iterable[int]) -> tuple[int, ...]:
    t = tuple(sorted(int(e) for e in entries))
    if any(e == 0 for e in t):
        raise ValueError("mode 0 cannot index a monomial")
    return t


@dataclass(frozen=True)
class Monomial:
    """Canonical monomial q_{plus} * qbar_{minus}, multisets sorted ascending."""

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
        return sum(j * j for j in self.plus) - sum(j * j for j in self.minus)

    def is_normal(self) -> bool:
        return self.plus == self.minus

    def conjugate(self) -> "Monomial":
        return Monomial(self.minus, self.plus)

    def max_abs(self) -> int:
        return max((abs(j) for j in self.plus + self.minus), default=0)

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


def is_normal_form(m: Monomial) -> bool:
    """True iff the monomial depends only on actions |q_j|**2."""
    return m.is_normal()


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

    # -- inspection --------------------------------------------------------------

    def coefficient(self, mono: Monomial) -> ExactCoeff:
        return self._coeffs.get(mono, ZERO)

    def terms(self) -> Iterator[tuple[Monomial, ExactCoeff]]:
        """Terms in (degree, plus, minus) order."""
        for mono in sorted(self._coeffs, key=lambda m: (m.degree, m.plus, m.minus)):
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
        """Exact conjugation symmetry: coeff(m) == conj(coeff(conj(m)))."""
        for m, c in self._coeffs.items():
            d = self._coeffs.get(m.conjugate())
            if d is None or d.re != c.re or d.im != -c.im or d.pi_power != c.pi_power:
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
        return PolyHamiltonian(self.truncation, coeffs)

    def __neg__(self) -> "PolyHamiltonian":
        return PolyHamiltonian(self.truncation, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> "PolyHamiltonian":
        f = Fraction(factor)
        if f == 0:
            return PolyHamiltonian.zero(self.truncation)
        return PolyHamiltonian(self.truncation, {m: c.scaled(f) for m, c in self._coeffs.items()})

    def with_truncation(self, M: int) -> "PolyHamiltonian":
        """Reinterpret at truncation M; restricts or embeds as needed."""
        return PolyHamiltonian(M, {m: c for m, c in self._coeffs.items() if m.max_abs() <= M})

    def filtered(self, predicate) -> "PolyHamiltonian":
        return PolyHamiltonian(self.truncation, {m: c for m, c in self._coeffs.items() if predicate(m)})


def split_normal(H: PolyHamiltonian) -> tuple[PolyHamiltonian, PolyHamiltonian]:
    """Split into (action-only part, remainder); the sum reconstructs H."""
    return H.filtered(is_normal_form), H.filtered(lambda m: not m.is_normal())


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


def _contraction_index(P: PolyHamiltonian, slot: str, scale: int) -> dict[int, list]:
    """n -> entries (top, plus, minus, value, phase, pi_power) of the
    derivatives of P by the slot's mode n, sorted by top: the largest |mode|
    of the remainder (plus, minus).  value is the int multiplicity times the
    real (phase 0) or imaginary (phase 1) part times scale, a common
    denominator of P's parts; one entry per nonzero part.
    """
    index: dict[int, list] = {}
    for mono, c in P._coeffs.items():
        parts = [(ph, x.numerator * (scale // x.denominator)) for ph, x in ((0, c.re), (1, c.im)) if x]
        for n, mult, plus, minus in _derivatives(mono, slot):
            top = max(map(abs, plus + minus), default=0)
            for phase, value in parts:
                index.setdefault(n, []).append((top, plus, minus, value * mult, phase, c.pi_power))
    for entries in index.values():
        entries.sort(key=lambda e: e[0])
    return index


def _diagonal_weights(P: PolyHamiltonian) -> dict[int, ExactCoeff] | None:
    """n -> h_n if P = sum_n h_n q_n qbar_n (every monomial diagonal), else None."""
    weights = {}
    for mono, c in P._coeffs.items():
        if len(mono.plus) != 1 or mono.plus != mono.minus:
            return None
        weights[mono.plus[0]] = c
    return weights


def _diagonal_bracket(
    weights: dict[int, ExactCoeff], F: PolyHamiltonian, bound: float, sign: int
) -> PolyHamiltonian:
    """sign * {D, F} for the diagonal D = sum_n h_n q_n qbar_n.

    {D, F} multiplies each term c m of F by i w(m), where
    w(m) = sum_n n h_n (alpha_n(m) - beta_n(m)) and alpha_n, beta_n count n
    among the plus and minus slots of m.  As in the pair loop, the parts of
    n h_n are ints over D's common denominator and those of c over F's, so a
    term costs a few int sums and products, and each output part is one
    Fraction over the product of the two denominators.  The output monomial
    is m itself, so the support bound keeps the terms with max_abs(m) within
    it.  Every n of m held by D contracts with m, so their pi powers must
    agree, as the pair loop checks, even where w(m) is zero.
    """
    d_scale = math.lcm(*(x.denominator for c in weights.values() for x in (c.re, c.im)))
    w_re, w_im = defaultdict(int), defaultdict(int)
    for n, c in weights.items():
        w_re[n] = n * c.re.numerator * (d_scale // c.re.denominator)
        w_im[n] = n * c.im.numerator * (d_scale // c.im.denominator)
    complex_weights = any(w_im.values())
    pis = {n: c.pi_power for n, c in weights.items()}
    pi_values = set(pis.values())
    one_pi = len(pi_values) < 2
    f_scale = _common_denominator(F)
    scale = d_scale * f_scale

    def part(x):
        return Fraction(x, scale) if x else ZERO.re

    def weight(w, mono):
        return sum(map(w.__getitem__, mono.plus)) - sum(map(w.__getitem__, mono.minus))

    out = {}
    for mono, c in F._coeffs.items():
        if bound < math.inf and mono.max_abs() > bound:
            continue
        held = pi_values if one_pi else {pis[n] for n in mono.plus + mono.minus if n in pis}
        if len(held) > 1:
            lo, hi = min(held) + c.pi_power, max(held) + c.pi_power
            raise ValueError(f"pi powers {lo} and {hi} meet on {(mono.plus, mono.minus)}")
        wr = weight(w_re, mono)
        wi = weight(w_im, mono) if complex_weights else 0
        if not (wr or wi):
            continue
        x = c.re.numerator * (f_scale // c.re.denominator)
        y = c.im.numerator * (f_scale // c.im.denominator)
        # i (wr + i wi)(x + i y) = -(wr y + wi x) + i (wr x - wi y)
        out[mono] = ExactCoeff(
            part(-sign * (wr * y + wi * x)),
            part(sign * (wr * x - wi * y)),
            next(iter(held)) + c.pi_power,
        )
    return PolyHamiltonian(min(F.truncation, bound), out)


def bracket(
    H: PolyHamiltonian,
    F: PolyHamiltonian,
    support_bound: int | None = None,
) -> PolyHamiltonian:
    """Exact weighted Poisson bracket {H, F}.

    If either operand is diagonal, sum_n h_n q_n qbar_n as Lambda is, the
    bracket is a per-term product and no pairs are formed: {D, F} is
    i w(m) c m for each term c m of F, w(m) = sum_n n h_n (alpha_n(m) -
    beta_n(m)), and {F, D} = -{D, F} (see _diagonal_bracket).  For Lambda,
    w(m) is the square divisor of m.

    Otherwise each operand's parts are ints over its common denominator D.
    Every product term pairs an entry of _contraction_index(H) with one of F
    for the same n, at the cost of one int product and one int add: -i n
    (dH/dq_n dF/dqbar_n) or +i n (dH/dqbar_n dF/dq_n), whose phase picks the
    output's real or imaginary part.  Each output part is one Fraction over
    D_H D_F.  If both operands are real valued the second pass is the
    conjugate of the first, so only the first runs and its sums A are
    folded once over their monomials: {H, F}(m) = A(m) + conj(A(conj m)).
    If support_bound is given, output terms with any mode exceeding it are
    dropped; an output's modes are the two remainders', so only the
    bisected prefixes with top <= support_bound are ever paired.  Terms of
    different pi powers meeting on one monomial raise ValueError.
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

    def window(entries):
        return entries[: bisect_right(entries, bound, key=lambda e: e[0])]

    def clash(key, pi, other):
        return ValueError(f"pi powers {pi} and {other} meet on {key}")

    acc: dict[tuple, list] = {}
    for h_slot, f_slot, sign in (("plus", "minus", -1), ("minus", "plus", 1))[: 1 if real else 2]:
        h_index = _contraction_index(H, h_slot, h_scale)
        f_index = _contraction_index(F, f_slot, f_scale)
        for n in h_index.keys() & f_index.keys():
            f_entries = window(f_index[n])
            for _, hp, hm, hv, hph, hpi in window(h_index[n]):
                w = sign * n * hv
                weights = (w, -w, -w)  # i^(hph + fph + 1): imaginary +, real -, imaginary -
                for _, fp, fm, fv, fph, fpi in f_entries:
                    key = (tuple(sorted(hp + fp)), tuple(sorted(hm + fm)))
                    slot = acc.get(key)
                    if slot is None:
                        acc[key] = slot = [0, 0, hpi + fpi]
                    elif slot[2] != hpi + fpi:
                        raise clash(key, slot[2], hpi + fpi)
                    ph = hph + fph
                    slot[1 - ph % 2] += weights[ph] * fv
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

    def part(x):
        return Fraction(x, scale) if x else ZERO.re

    return PolyHamiltonian(
        min(H.truncation, bound),
        {
            Monomial(plus, minus): ExactCoeff(part(re), part(im), pi)
            for (plus, minus), (re, im, pi) in acc.items()
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


def _zero_momentum_quartets(modes: list[int]):
    """Canonical pairs (plus multiset, minus multiset) with equal sums."""
    by_sum: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(modes):
        for b in modes[i:]:
            by_sum.setdefault(a + b, []).append((a, b))
    for s, pairs in by_sum.items():
        for plus in pairs:
            for minus in pairs:
                yield plus, minus


def _nonnormal_quartets(M: int, Mx: int):
    """Canonical non-normal quartic monomials with at most one mode outside
    the window [1, M] in absolute value, all modes within Mx.

    Yields (monomial, arrangement count).  This is exactly the set of quartic
    terms that can contribute to a window-supported sextic bracket product:
    the out-of-window mode, if any, must be the contracted one.  At Mx = M
    these are the window's non-normal quartets.
    """
    window = mode_range(M)
    seen = set()
    for plus, minus in _zero_momentum_quartets(window):
        mono = Monomial.of(plus, minus)
        if not mono.is_normal():
            seen.add(mono)
            yield mono, mono.arrangements()
    for p in window:
        for i, m1 in enumerate(window):
            for m2 in window[i:]:
                n = m1 + m2 - p
                if M < abs(n) <= Mx:
                    # the big mode in the plain slots, then mirrored
                    for mono in (Monomial.of((p, n), (m1, m2)), Monomial.of((m1, m2), (p, n))):
                        if mono not in seen:
                            seen.add(mono)
                            yield mono, mono.arrangements()


def build_G(M: int) -> PolyHamiltonian:
    """Full quartic Hamiltonian: (1/4pi) over all zero-momentum quadruples.

    Ordered-tuple sums are aggregated onto canonical monomials with their
    arrangement counts, so scalar evaluations match the physical integral.
    """
    quarter = Fraction(1, 4)
    items = []
    for plus, minus in _zero_momentum_quartets(mode_range(M)):
        mono = Monomial.of(plus, minus)
        items.append((mono, ExactCoeff.real(quarter * mono.arrangements(), pi_power=1)))
    return PolyHamiltonian.from_terms(M, items)


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
    (see _nonnormal_quartets), on a polynomial of truncation Mx.
    """
    Mx = M if Mx is None else Mx
    items = [
        (mono, ExactCoeff.real(Fraction(arr, 4), pi_power=1))
        for mono, arr in _nonnormal_quartets(M, Mx)
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


def _eval_dtype(vec: np.ndarray) -> np.dtype:
    return vec.dtype if vec.dtype == LONG_COMPLEX else np.dtype(np.complex128)


def _to_dtype_coeff(coeff: ExactCoeff, dtype):
    if np.dtype(dtype) == LONG_COMPLEX:
        scale = np.longdouble(math.pi) ** (-coeff.pi_power)
        re = np.longdouble(coeff.re.numerator) / np.longdouble(coeff.re.denominator)
        im = np.longdouble(coeff.im.numerator) / np.longdouble(coeff.im.denominator)
        return np.clongdouble(re * scale) + np.clongdouble(1j) * np.clongdouble(im * scale)
    return coeff.to_complex()


def evaluate_poly(poly: PolyHamiltonian, vec: np.ndarray) -> complex:
    """Numeric value at a dense state vector over mode_range(truncation)."""
    vec = np.asarray(vec)
    dtype = _eval_dtype(vec)
    vec = vec.astype(dtype, copy=False)
    total = dtype.type(0)
    for _, _, vals in _row_values(_compile_rows(poly, None, False, dtype), vec):
        total += np.sum(vals)
    return total


def _prefix_plan(factors: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Prefix-product plan for the rows of a (rows, width) factor table.

    Level k (k = 1 .. width) is a table of length-k prefixes, each entry a
    pair (parent, last): the index of its length-(k-1) prefix in level k-1
    (0, the empty prefix, at level 1) and its last factor.  Levels below the
    last hold only the distinct prefixes; the last is row-aligned.
    """
    rows, width = factors.shape
    span = int(factors.max(initial=0)) + 1
    ids = np.zeros(rows, dtype=np.intp)
    plan = []
    for k in range(width - 1):
        uniq, ids = np.unique(ids * span + factors[:, k], return_inverse=True)
        plan.append((uniq // span, uniq % span))
    if width:
        plan.append((ids, factors[:, -1]))
    return plan


def _compile_rows(poly: PolyHamiltonian, slot: str | None, weighted: bool, dtype: np.dtype):
    """Rows of a polynomial's value or gradient, grouped by width (factor count).

    slot=None:    one row per term, all in component 0 (the value);
    slot='minus': rows for dP/dqbar_n (vector-field direction);
    slot='plus':  rows for dP/dq_n.
    weighted=True folds the Hamiltonian weight (-i n) into the prefactor.
    A factor is an index into concatenate(vec, conj(vec)): q_j first, then
    qbar_j.  Each group is (seg_comp, starts, pref, plan, work).
    """
    key = (slot, weighted, dtype)
    if key in poly._cache:
        return poly._cache[key]
    index = {j: i for i, j in enumerate(mode_range(poly.truncation))}
    n_modes = len(index)
    by_width: dict[int, list] = {}
    for mono, coeff in poly.terms():
        derivs = _derivatives(mono, slot) if slot else [(None, 1, mono.plus, mono.minus)]
        for n, mult, plus, minus in derivs:
            pref = _to_dtype_coeff(coeff if mult == 1 else coeff.scaled(mult), dtype)
            if weighted:
                pref = pref * (-1j * n)
            factors = [index[j] for j in plus] + [n_modes + index[j] for j in minus]
            by_width.setdefault(len(factors), []).append((index[n] if slot else 0, pref, factors))
    groups = []
    for width in sorted(by_width):
        rows = by_width[width]
        # sort by output component so the scatter becomes contiguous segments
        rows.sort(key=lambda r: r[0])
        comp = np.array([r[0] for r in rows], dtype=np.intp)
        pref = np.array([r[1] for r in rows], dtype=dtype)
        factors = np.array([r[2] for r in rows], dtype=np.intp).reshape(len(rows), width)
        starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
        work = tuple(np.empty(len(rows), dtype=dtype) for _ in range(3))
        groups.append((comp[starts], starts, pref, _prefix_plan(factors), work))
    poly._cache[key] = groups
    return groups


def _prefix_products(plan, ext, work) -> np.ndarray:
    """Row products of a prefix plan, ((f0 f1) f2) ..., the left-to-right
    order of prod(axis=1).

    ext is concatenate(vec, conj(vec)) in clongdouble, or the (real,
    imaginary) parts of it in complex128: numpy's vectorised complex128
    multiply rounds differently from the scalar loop prod(axis=1) runs, so
    those products are formed from float64 parts with that loop's formula.
    The products land in the group's work buffers (cur, nxt, x): fresh
    clongdouble arrays of that size cost page faults on every call.
    """
    (_, first), *rest = plan
    cur, nxt, x = work
    if isinstance(ext, np.ndarray):
        # take(out=...) copies through a temporary under the default mode="raise"
        tab = ext.take(first, out=cur[: len(first)], mode="clip")
        for parent, last in rest:
            new = tab.take(parent, out=nxt[: len(last)], mode="clip")
            new *= ext.take(last, out=x[: len(last)], mode="clip")
            tab, cur, nxt = new, nxt, cur
        return tab
    ext_re, ext_im = ext
    re, im = ext_re.take(first), ext_im.take(first)
    for parent, last in rest:
        re, im = re.take(parent), im.take(parent)
        xr, xi = ext_re.take(last), ext_im.take(last)
        re, im = re * xr - im * xi, re * xi + im * xr
    tab = cur[: len(re)]
    tab.real, tab.imag = re, im
    return tab


def _row_values(groups, vec: np.ndarray):
    """Yield (seg_comp, starts, values) per width group of a compile, the
    values being each row's prefactor times its factor product.  A group's
    values live in its work buffers until the next group is taken, so calls
    on one compile are not reentrant."""
    ext = np.concatenate((vec, np.conj(vec)))
    if ext.dtype != LONG_COMPLEX:
        ext = (ext.real.copy(), ext.imag.copy())
    for seg_comp, starts, pref, plan, work in groups:
        if plan:
            yield seg_comp, starts, np.multiply(pref, _prefix_products(plan, ext, work), out=work[2])
        else:
            yield seg_comp, starts, pref


def _rows_apply(groups, vec: np.ndarray, out: np.ndarray):
    """out[n] += sum of the rows of component n."""
    for seg_comp, starts, vals in _row_values(groups, vec):
        out[seg_comp] += np.add.reduceat(vals, starts)


def vector_field_vec(F: PolyHamiltonian, vec: np.ndarray) -> np.ndarray:
    """Components -i j dF/dqbar_j as a dense vector; dtype follows vec."""
    vec = np.asarray(vec)
    dtype = _eval_dtype(vec)
    vec = vec.astype(dtype, copy=False)
    out = np.zeros(vec.shape, dtype=dtype)
    _rows_apply(_compile_rows(F, "minus", True, dtype), vec, out)
    return out


def gradient_vecs(P: PolyHamiltonian, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dP/dq_j, dP/dqbar_j) as dense vectors at vec."""
    vec = np.asarray(vec)
    dtype = _eval_dtype(vec)
    vec = vec.astype(dtype, copy=False)
    gq = np.zeros(vec.shape, dtype=dtype)
    gqbar = np.zeros(vec.shape, dtype=dtype)
    _rows_apply(_compile_rows(P, "plus", False, dtype), vec, gq)
    _rows_apply(_compile_rows(P, "minus", False, dtype), vec, gqbar)
    return gq, gqbar


def poisson_bracket_numeric(
    H: PolyHamiltonian, F: PolyHamiltonian, state: FourierState
) -> float:
    """Numeric weighted bracket at a state; both inputs must be real valued."""
    if H.truncation != F.truncation or state.truncation != H.truncation:
        raise ValueError("truncation mismatch")
    if not H.is_real_valued() or not F.is_real_valued():
        raise ValueError("poisson_bracket_numeric requires real-valued Hamiltonians")
    vec = state.to_vector()
    modes = np.array(mode_range(H.truncation), dtype=float)
    hq, hqbar = gradient_vecs(H, vec)
    fq, fqbar = gradient_vecs(F, vec)
    value = -1j * np.sum(modes * (hq * fqbar - hqbar * fq))
    return float(value.real)
