"""Truncated phase-space states and the scalar functionals living on them.

A state is a finite collection of complex mode amplitudes q_j indexed by
nonzero integers j with 1 <= |j| <= M.  Mode 0 does not exist: the phase
space consists of zero-mean functions on the circle.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi


def mode_range(M: int) -> list[int]:
    """All admissible modes at truncation M, ascending: -M..-1, 1..M."""
    if M < 1:
        raise ValueError("truncation must be at least 1")
    return list(range(-M, 0)) + list(range(1, M + 1))


def alternating_sum(entries, power: int = 1):
    """Sum of (-1)^i v_i^power over entries v_0, v_1, ...: the momentum for
    power 1, the square divisor for power 2.

    On a tuple of ints this is an exact int; on rows.T of a (rows, width)
    array it runs elementwise, one value per row.
    """
    total = 0
    for i, v in enumerate(entries):
        term = v if power == 1 else v**power
        total = total - term if i % 2 else total + term
    return total


def leading_stars(columns, k: int) -> np.ndarray:
    """The k largest absolute values of each row, largest first, as a
    (k, rows) array (fewer than k when width < k), from the columns rows.T
    of a (rows, width) array.

    A fixed compare-exchange network of np.maximum/np.minimum: each column
    is inserted into the sorted stars before it, and the value pushed past
    the k-th place is dropped.  Runs elementwise on int64 and on object
    columns of Python ints.
    """
    stars = np.abs(columns[:k])
    for i in range(1, len(columns)):
        c = stars[i] if i < k else np.abs(columns[i])
        for j, s in enumerate(stars[:i]):
            loser = np.minimum(s, c) if j + 1 < k else None
            np.maximum(s, c, out=s)
            c = loser
        if i < k:
            stars[i] = c
    return stars


def fortran_rows(columns, mask) -> np.ndarray:
    """The entries where mask holds of each of columns (an array as long as
    mask, or a scalar repeated), as an int64 array of shape (n, width) in
    Fortran order: each column rows.T[k] is contiguous."""
    kept = np.flatnonzero(mask)
    rows = np.empty((len(columns), len(kept)), dtype=np.int64)
    for out, col in zip(rows, columns):
        if np.ndim(col):
            np.take(col, kept, out=out)
        else:
            out.fill(col)
    return rows.T


def zero_momentum_sextuples(max_abs: int):
    """All zero-momentum 6-tuples j1 - j2 + j3 - j4 + j5 - j6 = 0 of modes
    with 1 <= |j| <= max_abs, in chunks of one j1 each.

    Yields int64 arrays of shape (n, 6) in Fortran order, so each column
    rows.T[k] is contiguous; rows run in lexicographic order of (j1, ..., j5),
    j6 being solved from zero momentum.  A chunk holds at most (2 max_abs)^4
    rows, so memory stays bounded at any radius.
    """
    values = np.array(mode_range(max_abs), dtype=np.int64)
    j2, j3, j4, j5 = (g.ravel() for g in np.meshgrid(values, values, values, values, indexing="ij"))
    rest = alternating_sum((j2, j3, j4, j5))
    for j1 in values:
        j6 = j1 - rest
        ok = (j6 != 0) & (np.abs(j6) <= max_abs)
        yield fortran_rows((j1, j2, j3, j4, j5, j6), ok)


def random_zero_momentum_rows(rng, k: int, width: int, max_abs: int) -> np.ndarray:
    """The rows, in draw order and as Python ints, among k random candidates
    of an even width: one rng.integers call draws the heads in [-max_abs,
    max_abs], zero momentum solves each last entry, and rows with a zero
    entry or a last entry above max_abs are dropped."""
    head = rng.integers(-max_abs, max_abs + 1, size=(k, width - 1)).astype(object)
    rows = np.column_stack([head, alternating_sum(head.T)])
    return rows[(rows != 0).all(axis=1) & (np.abs(rows[:, -1]) <= max_abs)]


SAMPLE_BLOCK = 4096


def rejection_sample(n_samples: int, draw):
    """Yield n_samples accepted samples in blocks of at most SAMPLE_BLOCK.

    draw(k) returns the accepted samples among k fresh candidates, in draw
    order.  Each call asks for no more candidates than samples still needed,
    so no candidate is drawn past the last accepted one.  Raises
    RuntimeError after 1000 candidates per requested sample, so a sampler
    whose acceptance set is (nearly) empty fails instead of looping forever.
    """
    cap = 1000 * n_samples
    accepted = drawn = 0
    while accepted < n_samples:
        if drawn == cap:
            raise RuntimeError(f"only {accepted} of {n_samples} samples accepted in {cap} draws")
        k = min(SAMPLE_BLOCK, n_samples - accepted, cap - drawn)
        block = draw(k)
        drawn += k
        accepted += len(block)
        if len(block):
            yield block


class FourierState:
    """Immutable finite-support map mode -> complex amplitude.

    Zero amplitudes are dropped on construction, so support() is exact.
    """

    __slots__ = ("_amp", "truncation")

    def __init__(self, amplitudes: Mapping[int, complex], truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        amp = {}
        for j, v in amplitudes.items():
            j = int(j)
            if j == 0:
                raise ValueError("mode 0 is not part of the phase space")
            if abs(j) > truncation:
                raise ValueError(f"mode {j} exceeds truncation {truncation}")
            v = complex(v)
            if v != 0:
                amp[j] = v
        self._amp = dict(sorted(amp.items()))
        self.truncation = truncation

    @classmethod
    def zero(cls, truncation: int) -> "FourierState":
        return cls({}, truncation)

    def amplitude(self, j: int) -> complex:
        return self._amp.get(j, 0j)

    def items(self):
        return self._amp.items()

    def support(self) -> tuple[int, ...]:
        return tuple(self._amp)

    def __len__(self) -> int:
        return len(self._amp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FourierState)
            and self.truncation == other.truncation
            and self._amp == other._amp
        )

    def __repr__(self) -> str:
        return f"FourierState({self._amp}, M={self.truncation})"

    # -- vector view ---------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Dense complex vector over mode_range(truncation)."""
        modes = mode_range(self.truncation)
        vec = np.zeros(len(modes), dtype=complex)
        index = {j: i for i, j in enumerate(modes)}
        for j, v in self._amp.items():
            vec[index[j]] = v
        return vec

    @classmethod
    def from_vector(cls, vec: np.ndarray, truncation: int) -> "FourierState":
        modes = mode_range(truncation)
        if len(vec) != len(modes):
            raise ValueError("vector length does not match truncation")
        return cls({j: complex(v) for j, v in zip(modes, vec) if v != 0}, truncation)


# -- scalar functionals -------------------------------------------------------


def sobolev_norm(state: FourierState, s: float) -> float:
    """Weighted l2 norm with weights |j|**(2s); s >= 0."""
    if s < 0:
        raise ValueError("Sobolev index must be nonnegative")
    total = sum(abs(v) ** 2 * abs(j) ** (2.0 * s) for j, v in state.items())
    return math.sqrt(total)


def lambda_energy(state: FourierState) -> float:
    """Sum of j*|q_j|**2; sign-indefinite."""
    return sum(j * abs(v) ** 2 for j, v in state.items())


def quartic_energy(state: FourierState) -> float:
    """The quartic part: (1/4pi) * sum over zero-momentum quadruples.

    Evaluated through pair sums A_t = sum_{j+l=t} q_j q_l, which gives the
    manifestly nonnegative form (1/4pi) * sum_t |A_t|**2.
    """
    pair: dict[int, complex] = {}
    items = list(state.items())
    for j, qj in items:
        for l, ql in items:
            pair[j + l] = pair.get(j + l, 0j) + qj * ql
    return sum(abs(a) ** 2 for a in pair.values()) / (4.0 * math.pi)


def hamiltonian_coefficients(state: FourierState) -> float:
    """H evaluated in coefficient space: Lambda + quartic part."""
    return lambda_energy(state) + quartic_energy(state)


def eval_physical(state: FourierState, x) -> complex:
    """Sum of q_j e^{ijx} / sqrt(2 pi); accepts scalar or array x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for j, v in state.items():
        out += v * np.exp(1j * j * x)
    out /= math.sqrt(TWO_PI)
    if out.shape == ():
        return complex(out)
    return out


def hamiltonian_physical(state: FourierState, quadrature_points: int) -> float:
    """Physical-space H = -i * int u_x conj(u) + (1/2) * int |u|^4.

    Uses uniform trapezoid quadrature, exact for band-limited integrands;
    the quartic term has bandwidth 4M, hence the grid-size precondition.
    """
    M = state.truncation
    if quadrature_points < 4 * M + 1:
        raise ValueError(
            f"need at least {4 * M + 1} quadrature points for truncation {M}"
        )
    N = int(quadrature_points)
    x = np.arange(N) * (TWO_PI / N)
    u = eval_physical(state, x)
    ux = np.zeros(N, dtype=complex)
    for j, v in state.items():
        ux += v * (1j * j) * np.exp(1j * j * x)
    ux /= math.sqrt(TWO_PI)
    w = TWO_PI / N
    momentum_term = -1j * np.sum(ux * np.conj(u)) * w
    quartic_term = 0.5 * np.sum(np.abs(u) ** 4) * w
    if abs(momentum_term.imag) > 1e-10 * (1.0 + abs(momentum_term.real)):
        raise ArithmeticError("momentum integral unexpectedly non-real")
    return float(momentum_term.real + quartic_term)


# -- serialization -------------------------------------------------------------


def state_to_json(state: FourierState) -> str:
    rows = [
        {"j": j, "re": v.real, "im": v.imag} for j, v in state.items()
    ]
    return json.dumps(rows)


def state_from_json(text: str, truncation: int) -> FourierState:
    rows = json.loads(text)
    amp: dict[int, complex] = {}
    for row in rows:
        j = int(row["j"])
        if j == 0:
            raise ValueError("mode 0 rejected")
        if j in amp:
            raise ValueError(f"duplicate mode {j}")
        amp[j] = complex(float(row["re"]), float(row["im"]))
    return FourierState(amp, truncation)
