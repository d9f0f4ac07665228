"""Fine-graining route from amplitudes to probabilities by counting.

Squared amplitudes are approximated by integer weights m_k over a common
denominator M, each coarse outcome is expanded into m_k fine cells of equal
weight, and a shift correlates every fine cell with its own orthonormal
environment state.  Every fine term has modulus M^{-1/2} on its own (cell,
environment) pair, so the state is even across the (system, cells) vs
environment cut and swapping fine cells is undone from the environment;
counting cells per outcome, from coefficient moduli alone, gives m_k / M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import Bipartition, StateVector, schmidt_values

DENSE_AMPLITUDE_CAP = 2**22


class DenseBudgetError(ValueError):
    """A dense build would hold more than DENSE_AMPLITUDE_CAP amplitudes."""


def require_dense(n_amplitudes: int, what: str) -> None:
    """The one amplitude budget every dense build is checked against first."""
    if n_amplitudes > DENSE_AMPLITUDE_CAP:
        raise DenseBudgetError(
            f"{what} needs {n_amplitudes} amplitudes (cap {DENSE_AMPLITUDE_CAP})")


def _chunk_rows(row_amplitudes: int) -> int:
    """Rows of row_amplitudes each that one chunk of a batched kernel holds.

    A chunk takes 1/512 of the dense budget, so it stays small next to a
    dense build even with its temporaries; a larger row is a chunk alone.
    """
    return max(1, DENSE_AMPLITUDE_CAP // (512 * row_amplitudes))


@dataclass(frozen=True)
class WeightVector:
    """Integer weights m_k with common denominator M = sum(m)."""

    m: tuple

    def __post_init__(self):
        m = tuple(int(x) for x in self.m)
        if not m or any(x < 1 for x in m):
            raise ValueError("all weights must be integers >= 1")
        object.__setattr__(self, "m", m)

    @property
    def M(self) -> int:
        return sum(self.m)


@dataclass(frozen=True)
class BornResult:
    probs_exact: tuple  # Fractions m_k/M in decomposition order
    probs_float: tuple
    rationalization_error: float
    weights: WeightVector

    def __post_init__(self):
        if sum(self.probs_exact, Fraction(0)) != 1:
            raise ValueError("exact probabilities must sum to 1")


def rationalize(amplitudes, m_max: int) -> tuple:
    """Best common-denominator integer weights for squared amplitudes.

    Over denominators M from the number of terms k up to m_max, finds the
    ``_apportion`` weights minimizing max_i | |a_i|^2 - m_i/M |, all
    m_i >= 1; on equal error the smaller M wins.  Denominators are visited in
    ascending order of a lower bound on that error (``_error_bounds``), and
    the visit stops at the first bound above the best error found, since no
    later M can beat or tie it.  Returns (WeightVector, error).
    """
    amps = np.asarray(amplitudes, dtype=complex)
    probs = np.abs(amps) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"squared amplitudes sum to {total!r}, not 1")
    k = len(probs)
    if m_max < k:
        raise ValueError(f"m_max={m_max} cannot give {k} terms weight >= 1")

    best_m, best_err, best_big_m = None, math.inf, None
    # one order for all denominators, unless m_max is so large that their
    # bounds would not fit a chunk: then block by block, in ascending M
    stop, block = int(m_max) + 1, _chunk_rows(1)
    for lo in range(k, stop, block):
        bounds = _error_bounds(probs, lo, min(lo + block, stop))
        for i in np.argsort(bounds, kind="stable"):
            if bounds[i] > best_err:
                break
            big_m = lo + int(i)
            m = _apportion(probs, big_m)
            err = float(np.max(np.abs(probs - m / big_m)))
            if err < best_err or (err == best_err and big_m < best_big_m):
                best_m, best_err, best_big_m = m, err, big_m
    return WeightVector(tuple(int(x) for x in best_m)), best_err


def _error_bounds(probs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Lower bounds on ``_apportion``'s error at each denominator lo <= M < hi.

    The larger of two bounds, scaled by 1 - 1e-12 so that float rounding
    never prunes the optimum:

    * coordinate: m_i >= 1 is an integer, so entry i is off by at least its
      distance to the nearer of max(1, floor(p_i M))/M, max(1, ceil(p_i M))/M;
    * sum rule: ``_apportion`` returns sum(m) = M, so the errors
      m_i/M - p_i sum to 1 - sum(p).  Entries with p_i M < 1 are lifted to
      m_i >= 1, a surplus F = sum(1/M - p_i) over them, and one of the other
      entries falls short by at least (F - (1 - sum(p))) / #others.
    """
    k = probs.size
    drift = 1.0 - math.fsum(probs)
    slack = 4 * (k + 2) * np.finfo(float).eps  # rounding in the sums
    bounds = np.empty(hi - lo)
    rows = _chunk_rows(k)
    for start in range(lo, hi, rows):
        big_m = np.arange(start, min(start + rows, hi), dtype=float)[:, None]
        scaled = probs * big_m
        down = np.abs(probs - np.maximum(1.0, np.floor(scaled)) / big_m)
        up = np.abs(probs - np.maximum(1.0, np.ceil(scaled)) / big_m)
        coordinate = np.minimum(down, up).max(axis=1)
        lifted = scaled < 1
        surplus = np.where(lifted, 1.0 / big_m - probs, 0.0).sum(axis=1)
        others = k - np.count_nonzero(lifted, axis=1)
        shortfall = np.where(others > 0, (surplus - drift) / np.maximum(others, 1)
                             - slack, 0.0)
        bounds[start - lo:start - lo + len(big_m)] = np.maximum(coordinate, shortfall)
    return bounds * (1 - 1e-12)


def _apportion(probs: np.ndarray, big_m: int) -> np.ndarray:
    # floor + largest-fraction round-up, then enforce m_k >= 1
    scaled = probs * big_m
    m = np.floor(scaled).astype(np.int64)
    short = big_m - int(m.sum())
    if short > 0:
        m[np.argsort(-(scaled - m))[:short]] += 1
    m[m < 1] = 1
    # float carry and the lift leave an excess: shave it off the largest
    # overshoots (m_i - t)/M - p_i, t < m_i - 1, lowest index on ties; each
    # entry's overshoots fall with t, so these are the units a greedy
    # one-at-a-time shave would take
    excess = int(m.sum()) - big_m
    if excess > 0:
        offers = np.minimum(m - 1, excess)
        owner = np.repeat(np.arange(m.size), offers)
        t = np.arange(owner.size) - np.repeat(np.cumsum(offers) - offers, offers)
        overshoot = (m[owner] - t) / big_m - probs[owner]
        taken = owner[np.lexsort((owner, -overshoot))[:excess]]
        m -= np.bincount(taken, minlength=m.size)
    return m


def fine_values(weights: WeightVector, phases) -> np.ndarray:
    """Schmidt values of the fine-grained state across (S, C) | E, falling.

    Cell j of outcome k carries e^{i phi_k}/sqrt(M) on |s_k, c_j>|e_j>, and
    no two terms share a (S, C) or an E state, so the M Schmidt values are
    the moduli of the terms: read off them, with no dense state built.
    """
    n = len(weights.m)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"need {n} phases, got {phases.shape}")
    require_dense(weights.M, "fine-grained values")
    terms = np.repeat(np.exp(1j * phases), weights.m) / math.sqrt(weights.M)
    return np.sort(np.abs(terms))[::-1]


def born_from_weights(weights: WeightVector, error: float = 0.0) -> BornResult:
    """Probabilities by counting: outcome k owns m_k of the M equal fine cells."""
    exact = tuple(Fraction(m_k, weights.M) for m_k in weights.m)
    return BornResult(
        probs_exact=exact,
        probs_float=tuple(float(p) for p in exact),
        rationalization_error=error,
        weights=weights,
    )


def born_from_coefficients(coeffs, m_max: int) -> BornResult:
    """Probabilities from Schmidt coefficient moduli, in their order."""
    return born_from_weights(*rationalize(coeffs, m_max))


def born_probabilities(state: StateVector, cut: Bipartition, m_max: int,
                       zero_tol: float = 1e-12) -> BornResult:
    """Probabilities by rationalize -> fine-grain -> count, in Schmidt order."""
    return born_from_coefficients(schmidt_values(state, cut, zero_tol), m_max)


def coarse_probability(result: BornResult, subset) -> Fraction:
    """Exact probability of a set of outcome indices: sum m_k / M."""
    idx = sorted({int(i) for i in subset})
    if idx and (idx[0] < 0 or idx[-1] >= len(result.probs_exact)):
        raise ValueError(f"subset {idx} outside {len(result.probs_exact)} outcomes")
    return sum((result.probs_exact[i] for i in idx), Fraction(0))
