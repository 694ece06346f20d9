"""Truncated phase-space states, the index sets of the small-divisor
audits and the driver that runs them.

A state at truncation M is the dense complex vector of its amplitudes q_j
over mode_range(M): the nonzero integers j with 1 <= |j| <= M, ascending.
Mode 0 does not exist: the phase space consists of zero-mean functions on
the circle.  state_vector builds one from its modes, state_to_json and
state_from_json write and read it, and eval_physical and
hamiltonian_physical evaluate it in physical space, an oracle for the
coefficient-space channels of flows.SpectralModel.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * math.pi
INT64_MAX = int(np.iinfo(np.int64).max)


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
    mask, or a scalar repeated), as an array of shape (n, width) in Fortran
    order: each column rows.T[k] is contiguous.  int64 for int64 columns,
    object for object columns of Python ints."""
    kept = np.flatnonzero(mask)
    rows = np.empty((len(columns), len(kept)), dtype=np.result_type(*columns))
    for out, col in zip(rows, columns):
        if np.ndim(col):
            np.take(col, kept, out=out)
        else:
            out.fill(col)
    return rows.T


# One chunk of zero_momentum_rows holds at most this many candidate rows, as
# many as a sextuple chunk at radius 23, where the exhaustive sextuple
# audit's tracemalloc peak, about 155 B per candidate row, is some 700 MB.
MAX_CHUNK_ROWS = 46**4


def zero_momentum_max_abs(width: int) -> int:
    """The largest max_abs zero_momentum_rows takes at this width, where a
    chunk holds (2 max_abs)^(width - 2) candidate rows: 1058 at width 4 and
    23 at width 6."""
    side = round(MAX_CHUNK_ROWS ** (1 / (width - 2)))
    side -= side ** (width - 2) > MAX_CHUNK_ROWS
    return side // 2


def zero_momentum_rows(width: int, max_abs: int):
    """All zero-momentum tuples j1 - j2 + j3 - ... - j_width = 0 of an even
    width >= 4 with 1 <= |j| <= max_abs, in chunks of one j1 each.

    Returns an iterator of int64 arrays of shape (n, width) in Fortran order
    (see fortran_rows), the rows of each in lexicographic order of all but
    the last entry, which is solved from zero momentum.  One grid of the
    middle entries serves every chunk.  Raises ValueError, before the grid
    is built, for max_abs < 1 or above zero_momentum_max_abs(width).
    """
    if max_abs < 1:
        raise ValueError(f"max_abs must be at least 1, got {max_abs}")
    if max_abs > zero_momentum_max_abs(width):
        raise ValueError(
            f"max_abs={max_abs}: one chunk of width {width} would hold "
            f"{(2 * max_abs) ** (width - 2)} candidate rows, over {MAX_CHUNK_ROWS}; "
            f"the limit at width {width} is {zero_momentum_max_abs(width)}"
        )
    values = np.array(mode_range(max_abs), dtype=np.int64)
    middle = [g.ravel() for g in np.meshgrid(*[values] * (width - 2), indexing="ij")]
    rest = alternating_sum(middle)

    def chunks():
        for first in values:
            last = first - rest
            yield fortran_rows((first, *middle, last), (last != 0) & (np.abs(last) <= max_abs))

    return chunks()


def random_zero_momentum_rows(rng, k: int, width: int, max_abs: int) -> np.ndarray:
    """The rows, in draw order, among k random candidates of an even width,
    as an int64 array in Fortran order (see fortran_rows): one rng.integers
    call draws the heads in [-max_abs, max_abs], zero momentum solves each
    last entry, and rows with a zero entry or a last entry above max_abs are
    dropped.  The last entry is summed in Python ints where its partial sums,
    up to (width - 1) max_abs, could leave int64."""
    head = rng.integers(-max_abs, max_abs + 1, size=(k, width - 1)).T
    if (width - 1) * max_abs > INT64_MAX:
        head = head.astype(object)
    last = alternating_sum(head)
    ok = (head != 0).all(axis=0) & (last != 0) & (np.abs(last) <= max_abs)
    return fortran_rows((*head, last), ok).astype(np.int64, copy=False)


def int64_radius(bound) -> int:
    """The largest max_abs >= 1 with bound(max_abs) <= INT64_MAX, for a bound
    on the intermediate values of an int64 kernel that increases with
    max_abs and fits at max_abs = 1."""
    lo, hi = 1, 2
    while bound(hi) <= INT64_MAX:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid) <= INT64_MAX else (lo, mid)
    return lo


SAMPLE_BLOCK = 4096

# A small-divisor audit lists its first MAX_VIOLATIONS violations only, in
# row order and by s within a row; its `checked` counts every row it checks.
MAX_VIOLATIONS = 20


def bound_audit(blocks, verdicts, record, max_abs: int, int64: bool, names=("checked",)) -> dict:
    """The report of a small-divisor audit over blocks of int64 rows, run
    in int64 or, converted to object, as Python ints.

    verdicts(rows) returns this block's counts, a dict over names, and the
    violation mask, one row-long mask or one per s stacked as (s values,
    rows); record(t, n) returns the record of the violating row t, a tuple
    of ints, at the n-th s.  The counts are summed over the blocks, 0 with
    no block, and the first MAX_VIOLATIONS violations listed in row order
    and by s within a row.  A block's kernel outputs go when verdicts
    returns, the block when the next one replaces it.
    """
    counts = dict.fromkeys(names, 0)
    violations = []
    for rows in blocks:
        rows = rows if int64 else rows.astype(object)
        block_counts, bad = verdicts(rows)
        for name in names:
            counts[name] += block_counts[name]
        if len(violations) < MAX_VIOLATIONS and bad.any():
            bad = np.atleast_2d(bad)
            for i in np.flatnonzero(bad.T)[: MAX_VIOLATIONS - len(violations)]:
                row, n = divmod(int(i), len(bad))
                violations.append(record(tuple(rows[row].tolist()), n))
    return {
        **counts,
        "violations": violations,
        "max_abs": max_abs,
        "arithmetic": "int64" if int64 else "python int",
    }


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


def state_vector(amplitudes: Mapping[int, complex], M: int) -> np.ndarray:
    """The state with these amplitudes, zero elsewhere, as the dense complex
    vector over mode_range(M).  Raises ValueError for mode 0 or a mode
    above the truncation, TypeError for a mode that is not an integer."""
    vec = np.zeros(len(mode_range(M)), dtype=complex)
    for j, v in amplitudes.items():
        j = operator.index(j)
        if j == 0:
            raise ValueError("mode 0 is not part of the phase space")
        if abs(j) > M:
            raise ValueError(f"mode {j} exceeds truncation {M}")
        vec[j + M - (j > 0)] = v
    return vec


def _state_modes(vec) -> np.ndarray:
    """The modes of a state vector, mode_range(len(vec) // 2) as an int
    array.  Raises ValueError unless vec is a vector of even, nonzero
    length."""
    shape = np.shape(vec)
    if len(shape) != 1 or shape[0] == 0 or shape[0] % 2:
        raise ValueError(f"state of shape {shape} is not a state vector: it needs an even, nonzero number of entries")
    return np.array(mode_range(shape[0] // 2))


# -- physical space --------------------------------------------------------------


def eval_physical(vec, x) -> complex:
    """Sum of q_j e^{ijx} / sqrt(2 pi); accepts scalar or array x."""
    waves = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), _state_modes(vec)))
    out = waves @ np.asarray(vec) / math.sqrt(TWO_PI)
    if out.shape == ():
        return complex(out)
    return out


def hamiltonian_physical(vec, quadrature_points: int) -> float:
    """Physical-space H = -i * int u_x conj(u) + (1/2) * int |u|^4.

    Uses uniform trapezoid quadrature, exact for band-limited integrands;
    the quartic term has bandwidth 4M, hence the grid-size precondition.
    """
    modes = _state_modes(vec)
    M = len(modes) // 2
    if quadrature_points < 4 * M + 1:
        raise ValueError(
            f"need at least {4 * M + 1} quadrature points for truncation {M}"
        )
    N = int(quadrature_points)
    x = np.arange(N) * (TWO_PI / N)
    u = eval_physical(vec, x)
    ux = eval_physical(1j * modes * np.asarray(vec), x)
    w = TWO_PI / N
    momentum_term = -1j * np.sum(ux * np.conj(u)) * w
    quartic_term = 0.5 * np.sum(np.abs(u) ** 4) * w
    if abs(momentum_term.imag) > 1e-10 * (1.0 + abs(momentum_term.real)):
        raise ArithmeticError("momentum integral unexpectedly non-real")
    return float(momentum_term.real + quartic_term)


# -- serialization -------------------------------------------------------------


def state_to_json(vec) -> str:
    """The nonzero modes of a state vector, ascending, as a JSON list of
    {"j", "re", "im"} rows."""
    rows = [
        {"j": j, "re": v.real, "im": v.imag}
        for j, v in zip(_state_modes(vec).tolist(), np.asarray(vec, dtype=complex).tolist())
        if v != 0
    ]
    return json.dumps(rows)


def state_from_json(text: str, truncation: int) -> np.ndarray:
    """The state vector of a JSON list of {"j", "re", "im"} rows, as
    state_to_json writes it.  Raises ValueError for a row without these
    keys, a mode that is not a JSON integer, a part that is not a JSON
    number, a duplicate mode, a non-finite amplitude and the modes
    state_vector rejects."""
    amp: dict[int, complex] = {}
    for row in json.loads(text):
        if not isinstance(row, dict) or not {"j", "re", "im"} <= row.keys():
            raise ValueError(f"row {json.dumps(row)} is not an object with the keys j, re and im")
        j = row["j"]
        if isinstance(j, bool) or not isinstance(j, int):
            raise ValueError(f"mode {json.dumps(j)} is not an integer")
        for part in ("re", "im"):
            if isinstance(row[part], bool) or not isinstance(row[part], (int, float)):
                raise ValueError(f"mode {j}: {part} part {json.dumps(row[part])} is not a number")
        if j in amp:
            raise ValueError(f"duplicate mode {j}")
        amp[j] = complex(row["re"], row["im"])
        if not cmath.isfinite(amp[j]):
            raise ValueError(f"mode {j} has a non-finite amplitude {amp[j]}")
    return state_vector(amp, truncation)
