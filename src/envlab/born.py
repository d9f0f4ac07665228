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

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import Bipartition, StateVector, schmidt_values

DENSE_AMPLITUDE_CAP = 2**22


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

    def prefix(self) -> tuple:
        """mu_k boundaries: cell j belongs to outcome k when mu_k <= j < mu_{k+1}."""
        mu = [0]
        for x in self.m:
            mu.append(mu[-1] + x)
        return tuple(mu)

    def staircase(self) -> tuple:
        """Coarse outcome index for each fine cell."""
        out = []
        for k, x in enumerate(self.m):
            out.extend([k] * x)
        return tuple(out)


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

    Scans every denominator M from the number of terms up to m_max and keeps
    the assignment minimizing max_k | |a_k|^2 - m_k/M |, all m_k >= 1.
    Returns (WeightVector, error).
    """
    amps = np.asarray(amplitudes, dtype=complex)
    probs = np.abs(amps) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"squared amplitudes sum to {total!r}, not 1")
    k = len(probs)
    if m_max < k:
        raise ValueError(f"m_max={m_max} cannot give {k} terms weight >= 1")

    best = None
    for big_m in range(k, int(m_max) + 1):
        m = _apportion(probs, big_m)
        err = float(np.max(np.abs(probs - m / big_m)))
        if best is None or err < best[1]:
            best = (m, err, big_m)
    m, err, _ = best
    return WeightVector(tuple(int(x) for x in m)), err


def _apportion(probs: np.ndarray, big_m: int) -> np.ndarray:
    # floor + largest-fraction round-up, then enforce m_k >= 1
    scaled = probs * big_m
    m = np.floor(scaled).astype(np.int64)
    short = big_m - int(m.sum())
    if short > 0:
        m[np.argsort(-(scaled - m))[:short]] += 1
    m[m < 1] = 1
    # float carry and the lift leave an excess: shave it unit by unit off the
    # largest overshoot m_i/M - p_i among m_i > 1, lowest index on ties
    p, units = probs.tolist(), m.tolist()
    heap = [(-(units[i] / big_m - p[i]), i) for i in np.flatnonzero(m > 1).tolist()]
    heapq.heapify(heap)
    for _ in range(sum(units) - big_m):
        _, i = heapq.heappop(heap)
        units[i] -= 1
        if units[i] > 1:
            heapq.heappush(heap, (-(units[i] / big_m - p[i]), i))
    return np.array(units, dtype=np.int64)


def _staircase_terms(weights: WeightVector, phases, cell_phases=None):
    """(coarse k, cell j, amplitude) triples of the fine-grained state."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (len(weights.m),):
        raise ValueError(f"need {len(weights.m)} phases, got {phases.shape}")
    big_m = weights.M
    if cell_phases is not None:
        cell_phases = np.asarray(cell_phases, dtype=float)
        if cell_phases.shape != (big_m,):
            raise ValueError(f"cell_phases must have length {big_m}")
    amp = 1.0 / math.sqrt(big_m)
    terms = []
    for j, k in enumerate(weights.staircase()):
        ph = phases[k] if cell_phases is None else cell_phases[j]
        terms.append((k, j, amp * np.exp(1j * ph)))
    return terms


def fine_grain(weights: WeightVector, phases, cell_phases=None) -> StateVector:
    """Explicit fine-grained state, subsystem layout (S, E, C).

    Outcome k keeps its phase on all of its cells unless per-cell phases are
    supplied.  Cell j of outcome k carries amplitude e^{i phi}/sqrt(M) on
    |s_k>|e_j>|c_j>; re-cut as (S,C)|E the state is even.
    """
    n = len(weights.m)
    big_m = weights.M
    if n * big_m * big_m > DENSE_AMPLITUDE_CAP:
        raise ValueError(
            f"dense fine-grained build needs {n * big_m * big_m} amplitudes "
            f"(cap {DENSE_AMPLITUDE_CAP}); use born_probabilities which counts sparsely"
        )
    amps = np.zeros((n, big_m, big_m), dtype=complex)
    for k, j, a in _staircase_terms(weights, phases, cell_phases):
        amps[k, j, j] = a
    return StateVector((n, big_m, big_m), amps.reshape(-1))


def even_cut() -> Bipartition:
    """The (S, C) | E cut the fine-grained state is even across."""
    return Bipartition((0, 2))


def born_from_coefficients(coeffs, m_max: int) -> BornResult:
    """Probabilities from Schmidt coefficient moduli, in their order."""
    weights, error = rationalize(coeffs, m_max)
    # structural census: every fine term must carry modulus M^{-1/2}, and
    # the cells per outcome must reproduce the weight vector
    big_m = weights.M
    target = 1.0 / math.sqrt(big_m)
    counts = [0] * len(weights.m)
    for k, _, a in _staircase_terms(weights, np.zeros(len(weights.m))):
        if abs(abs(a) - target) > 1e-9 * target:
            raise ValueError("fine-grained terms are not even")
        counts[k] += 1
    if tuple(counts) != weights.m:
        raise ValueError("cell census disagrees with the weight vector")
    exact = tuple(Fraction(c, big_m) for c in counts)
    return BornResult(
        probs_exact=exact,
        probs_float=tuple(float(p) for p in exact),
        rationalization_error=error,
        weights=weights,
    )


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
