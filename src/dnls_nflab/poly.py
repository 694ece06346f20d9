"""Exact symbolic polynomials in (q, qbar) with the weighted Poisson bracket.

Monomials are indexed by a pair of sorted integer multisets: the unbarred
slots (plus) and the barred slots (minus).  Coefficients are ExactCoeff
values, so bracket identities and cancellations are checked with zero
floating error.  The bracket carries the mode weight j:

    {H, F} = -i * sum_j j * (dH/dq_j dF/dqbar_j - dH/dqbar_j dF/dq_j)

Polynomials are graded internally by total degree, which keeps the
order-by-order bookkeeping of the normal-form constructions explicit.

bracket indexes both operands per call by contracted mode n: one entry per
derivative by q_n or qbar_n, holding the remaining multisets, their largest
|mode| and one Fraction per real or imaginary part.  Sorted by that largest
mode, a support bound becomes a bisect prefix of each list, so pairs whose
product leaves the window are never formed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
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
        return max(abs(j) for j in self.plus + self.minus)

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


class PolyHamiltonian:
    """Exact polynomial: map degree -> (map Monomial -> ExactCoeff)."""

    def __init__(self, truncation: int, blocks: dict[int, dict[Monomial, ExactCoeff]] | None = None):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        self.truncation = truncation
        self._blocks: dict[int, dict[Monomial, ExactCoeff]] = {}
        if blocks:
            for d, terms in blocks.items():
                clean = {m: c for m, c in terms.items() if not c.is_zero}
                if clean:
                    self._blocks[d] = clean
        self._cache: dict = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_terms(cls, truncation: int, items: Iterable[tuple[Monomial, ExactCoeff]]) -> "PolyHamiltonian":
        blocks: dict[int, dict[Monomial, ExactCoeff]] = {}
        for mono, coeff in items:
            if coeff.is_zero:
                continue
            if mono.max_abs() > truncation:
                raise ValueError(f"monomial {mono} exceeds truncation {truncation}")
            block = blocks.setdefault(mono.degree, {})
            acc = block.get(mono)
            block[mono] = coeff if acc is None else acc + coeff
        for d in list(blocks):
            blocks[d] = {m: c for m, c in blocks[d].items() if not c.is_zero}
            if not blocks[d]:
                del blocks[d]
        return cls(truncation, blocks)

    @classmethod
    def zero(cls, truncation: int) -> "PolyHamiltonian":
        return cls(truncation)

    # -- inspection --------------------------------------------------------------

    def coefficient(self, mono: Monomial) -> ExactCoeff:
        return self._blocks.get(mono.degree, {}).get(mono, ZERO)

    def terms(self) -> Iterator[tuple[Monomial, ExactCoeff]]:
        for d in sorted(self._blocks):
            for mono in sorted(self._blocks[d], key=lambda m: (m.plus, m.minus)):
                yield mono, self._blocks[d][mono]

    def degrees(self) -> list[int]:
        return sorted(self._blocks)

    def degree_part(self, d: int) -> "PolyHamiltonian":
        return PolyHamiltonian(self.truncation, {d: dict(self._blocks.get(d, {}))})

    @property
    def num_terms(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    @property
    def is_zero(self) -> bool:
        return not self._blocks

    def max_degree(self) -> int:
        return max(self._blocks) if self._blocks else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyHamiltonian) and self._blocks == other._blocks

    def __repr__(self) -> str:
        return f"PolyHamiltonian(M={self.truncation}, terms={self.num_terms})"

    def is_real_valued(self) -> bool:
        """Exact conjugation symmetry: coeff(m) == conj(coeff(conj(m)))."""
        for d, block in self._blocks.items():
            for mono, coeff in block.items():
                if block.get(mono.conjugate(), ZERO) != coeff.conjugate():
                    return False
        return True

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch")
        blocks: dict[int, dict[Monomial, ExactCoeff]] = {
            d: dict(b) for d, b in self._blocks.items()
        }
        for d, b in other._blocks.items():
            tgt = blocks.setdefault(d, {})
            for mono, coeff in b.items():
                acc = tgt.get(mono)
                s = coeff if acc is None else acc + coeff
                if s.is_zero:
                    tgt.pop(mono, None)
                else:
                    tgt[mono] = s
        return PolyHamiltonian(self.truncation, blocks)

    def __neg__(self) -> "PolyHamiltonian":
        return PolyHamiltonian(
            self.truncation,
            {d: {m: -c for m, c in b.items()} for d, b in self._blocks.items()},
        )

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> "PolyHamiltonian":
        f = Fraction(factor)
        if f == 0:
            return PolyHamiltonian.zero(self.truncation)
        return PolyHamiltonian(
            self.truncation,
            {d: {m: c.scaled(f) for m, c in b.items()} for d, b in self._blocks.items()},
        )

    def with_truncation(self, M: int) -> "PolyHamiltonian":
        """Reinterpret at truncation M; restricts or embeds as needed."""
        blocks: dict[int, dict[Monomial, ExactCoeff]] = {}
        for d, b in self._blocks.items():
            kept = {m: c for m, c in b.items() if m.max_abs() <= M}
            if kept:
                blocks[d] = kept
        return PolyHamiltonian(M, blocks)

    def filtered(self, predicate) -> "PolyHamiltonian":
        blocks: dict[int, dict[Monomial, ExactCoeff]] = {}
        for d, b in self._blocks.items():
            kept = {m: c for m, c in b.items() if predicate(m)}
            if kept:
                blocks[d] = kept
        return PolyHamiltonian(self.truncation, blocks)


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


def _contraction_index(P: PolyHamiltonian, slot: str) -> dict[int, list]:
    """n -> entries (top, plus, minus, value, phase, pi_power) of the
    derivatives of P by the slot's mode n, sorted by top: the largest |mode|
    of the remainder (plus, minus).  value is the multiplicity times the
    real (phase 0) or imaginary (phase 1) part, one entry per nonzero part.
    """
    index: dict[int, list] = {}
    for block in P._blocks.values():
        for mono, c in block.items():
            for n, mult, plus, minus in _derivatives(mono, slot):
                top = max(map(abs, plus + minus), default=0)
                for phase, part in ((0, c.re), (1, c.im)):
                    if part:
                        value = part * mult if mult > 1 else part
                        index.setdefault(n, []).append((top, plus, minus, value, phase, c.pi_power))
    for entries in index.values():
        entries.sort(key=lambda e: e[0])
    return index


def bracket(
    H: PolyHamiltonian,
    F: PolyHamiltonian,
    support_bound: int | None = None,
) -> PolyHamiltonian:
    """Exact weighted Poisson bracket {H, F}.

    Every product term pairs an entry of _contraction_index(H) with one of
    F for the same n: one Fraction product times -i n (dH/dq_n dF/dqbar_n)
    or +i n (dH/dqbar_n dF/dq_n), whose phase picks the output's real or
    imaginary part.  If support_bound is given, output terms with any mode
    exceeding it are dropped; an output's modes are the two remainders', so
    only the bisected prefixes with top <= support_bound are ever paired.
    Terms of different pi powers meeting on one monomial raise ValueError.
    """
    if H.truncation != F.truncation:
        raise ValueError("truncation mismatch")
    bound = math.inf if support_bound is None else support_bound

    def window(entries):
        return entries[: bisect_right(entries, bound, key=lambda e: e[0])]

    acc: dict[tuple, list] = {}
    for h_slot, f_slot, sign in (("plus", "minus", -1), ("minus", "plus", 1)):
        h_index = _contraction_index(H, h_slot)
        f_index = _contraction_index(F, f_slot)
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
                        raise ValueError(f"pi powers {slot[2]} and {hpi + fpi} meet on {key}")
                    ph = hph + fph
                    slot[1 - ph % 2] += weights[ph] * fv
    out_M = min(H.truncation, bound)
    blocks: dict[int, dict[Monomial, ExactCoeff]] = {}
    for (plus, minus), (re, im, pi) in acc.items():
        if re or im:
            blocks.setdefault(len(plus) + len(minus), {})[Monomial(plus, minus)] = ExactCoeff(re, im, pi)
    return PolyHamiltonian(out_M, blocks)


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


def build_Q(M: int) -> PolyHamiltonian:
    """Non-normal quartic part: zero momentum with plus != minus."""
    quarter = Fraction(1, 4)
    items = []
    for plus, minus in _zero_momentum_quartets(mode_range(M)):
        mono = Monomial.of(plus, minus)
        if mono.is_normal():
            continue
        items.append((mono, ExactCoeff.real(quarter * mono.arrangements(), pi_power=1)))
    return PolyHamiltonian.from_terms(M, items)


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


def poly_to_json(poly: PolyHamiltonian) -> str:
    return json.dumps(poly_to_records(poly), indent=0)


def poly_from_records(records: list[dict], truncation: int) -> PolyHamiltonian:
    items = []
    for row in records:
        mono = Monomial.of(row["plus"], row["minus"])
        coeff = ExactCoeff(
            Fraction(row["re"]), Fraction(row["im"]), int(row["pi_power"])
        )
        items.append((mono, coeff))
    return PolyHamiltonian.from_terms(truncation, items)


def poly_from_json(text: str, truncation: int) -> PolyHamiltonian:
    return poly_from_records(json.loads(text), truncation)


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


def _compile_value(poly: PolyHamiltonian, dtype):
    key = ("value", np.dtype(dtype).name)
    if key in poly._cache:
        return poly._cache[key]
    index = {j: i for i, j in enumerate(mode_range(poly.truncation))}
    groups = []
    for d in poly.degrees():
        monos = sorted(poly._blocks[d], key=lambda m: (m.plus, m.minus))
        coeffs = np.array(
            [_to_dtype_coeff(poly._blocks[d][m], dtype) for m in monos], dtype=dtype
        )
        idx = np.array(
            [[index[j] for j in m.plus + m.minus] for m in monos], dtype=np.intp
        )
        conj = np.array(
            [[False] * len(m.plus) + [True] * len(m.minus) for m in monos], dtype=bool
        )
        groups.append((coeffs, idx, conj))
    poly._cache[key] = groups
    return groups


def evaluate_poly(poly: PolyHamiltonian, vec: np.ndarray) -> complex:
    """Numeric value at a dense state vector over mode_range(truncation)."""
    vec = np.asarray(vec)
    dtype = _eval_dtype(vec)
    vec = vec.astype(dtype, copy=False)
    total = dtype.type(0)
    for coeffs, idx, conj in _compile_value(poly, dtype):
        factors = vec[idx]
        factors = np.where(conj, np.conj(factors), factors)
        total += np.sum(coeffs * np.prod(factors, axis=1))
    return total


def evaluate_at_state(poly: PolyHamiltonian, state: FourierState) -> complex:
    if state.truncation != poly.truncation:
        raise ValueError("truncation mismatch")
    return complex(evaluate_poly(poly, state.to_vector()))


def _compile_rows(poly: PolyHamiltonian, slot: str, weighted: bool, dtype):
    """Rows for gradient-type sums.

    slot='minus': rows for dP/dqbar_n (vector-field direction);
    slot='plus':  rows for dP/dq_n.
    weighted=True folds the Hamiltonian weight (-i n) into the prefactor.
    """
    key = (slot, weighted, np.dtype(dtype).name)
    if key in poly._cache:
        return poly._cache[key]
    index = {j: i for i, j in enumerate(mode_range(poly.truncation))}
    by_width: dict[int, list] = {}
    for mono, coeff in poly.terms():
        for n, mult, plus, minus in _derivatives(mono, slot):
            pref = _to_dtype_coeff(coeff.scaled(mult), dtype)
            if weighted:
                pref = pref * (-1j * n)
            slots = [(index[j], False) for j in plus] + [(index[j], True) for j in minus]
            by_width.setdefault(len(slots), []).append((index[n], pref, slots))
    groups = []
    for width in sorted(by_width):
        rows = by_width[width]
        # sort by output component so the scatter becomes contiguous segments
        rows.sort(key=lambda r: r[0])
        comp = np.array([r[0] for r in rows], dtype=np.intp)
        pref = np.array([r[1] for r in rows], dtype=dtype)
        if width:
            idx = np.array([[s[0] for s in r[2]] for r in rows], dtype=np.intp)
            conj = np.array([[s[1] for s in r[2]] for r in rows], dtype=bool)
        else:
            idx = np.zeros((len(rows), 0), dtype=np.intp)
            conj = np.zeros((len(rows), 0), dtype=bool)
        starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
        seg_comp = comp[starts]
        groups.append((seg_comp, starts, pref, idx, conj))
    poly._cache[key] = groups
    return groups


def _rows_apply(groups, vec: np.ndarray, out: np.ndarray):
    for seg_comp, starts, pref, idx, conj in groups:
        if idx.shape[1]:
            factors = vec[idx]
            np.conj(factors, where=conj, out=factors)
            vals = pref * factors.prod(axis=1)
        else:
            vals = pref.copy()
        out[seg_comp] += np.add.reduceat(vals, starts)


def vector_field_vec(F: PolyHamiltonian, vec: np.ndarray) -> np.ndarray:
    """Components -i j dF/dqbar_j as a dense vector; dtype follows vec."""
    vec = np.asarray(vec)
    dtype = _eval_dtype(vec)
    vec = vec.astype(dtype, copy=False)
    out = np.zeros(vec.shape, dtype=dtype)
    _rows_apply(_compile_rows(F, "minus", True, dtype), vec, out)
    return out


def vector_field(F: PolyHamiltonian, state: FourierState) -> FourierState:
    """Hamiltonian vector field of F evaluated at a state."""
    if state.truncation != F.truncation:
        raise ValueError("truncation mismatch")
    tangent = vector_field_vec(F, state.to_vector())
    modes = mode_range(F.truncation)
    return FourierState(
        {j: complex(v) for j, v in zip(modes, tangent) if v != 0}, F.truncation
    )


def gradient_vecs(P: PolyHamiltonian, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dP/dq_j, dP/dqbar_j) as dense vectors at vec."""
    vec = np.asarray(vec, dtype=complex)
    dtype = vec.dtype
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
