"""Exact relative-frequency engine for repeated fine-grained measurements.

A run prepares one two-outcome system whose squared amplitudes are m/M and
(M-m)/M, fine-grained into M equal cells that are mirrored by a counter and
an environment register.  N parallel runs produce M^N equiprobable histories
(every amplitude has modulus M^{-N/2}); grouping them by the number n of "1"
detections gives exact big-integer tallies C(N,n) m^{N-n} (M-m)^n, a binomial
distribution in exact rationals, its Gaussian limit, and the exponentially
shrinking mass of maverick histories whose frequencies sit far from the
squared amplitude.  Desk-scale instances are expanded history by history,
once, and the census of that expansion is cross-checked against the
combinatorics, with swap/counterswap envariance of sampled history pairs;
the dense tensor is built from the same expansion only where a check reads
it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import born
from .born import require_dense
from .envariance import _envariance_verdict
from .hilbert import Bipartition, StateVector, schmidt

SPARSE_TERM_CAP = 4096
COMPOSITION_CAP = 2**16  # rows of a multinomial table; cells 1,1,1 near it: ~1 s, ~100 MB
# (2M)^N rows of the (S, C)|E cut the dense swap checks decompose: the SVD of
# that (2M)^N x M^N matrix grows with them (past the cap, on a 2-vCPU Xeon,
# M=30, N=2 takes 9 s and 343 MiB; M=1,448, N=1 takes 44 s and 564 MiB)
SWAP_BLOCK_CAP = 1400


@dataclass(frozen=True)
class ExperimentSpec:
    """N parallel runs of a two-outcome measurement with |alpha|^2 = m/M."""

    m: int
    M: int
    runs: int

    def __post_init__(self):
        m, big_m, runs = int(self.m), int(self.M), int(self.runs)
        if not 1 <= m < big_m:
            raise ValueError("need 1 <= m < M")
        if runs < 1:
            raise ValueError("need at least one run")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", big_m)
        object.__setattr__(self, "runs", runs)

    @cached_property
    def beta_sq(self) -> Fraction:
        return Fraction(self.M - self.m, self.M)

    @cached_property
    def alpha_beta(self) -> float:
        """|alpha * beta| = sqrt(m (M - m)) / M."""
        return math.sqrt(self.m * (self.M - self.m)) / self.M


@dataclass(frozen=True)
class HistoryTally:
    """counts[n] histories with n "1" detections; total is M^runs exactly."""

    spec: ExperimentSpec
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.spec.runs + 1:
            raise ValueError("need one count per detection number 0..runs")
        if sum(counts) != self.spec.M ** self.spec.runs:
            raise ValueError("tally total must be M^runs exactly")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return self.spec.M ** self.spec.runs


def history_counts(spec: ExperimentSpec) -> HistoryTally:
    """Exact tally: counts[n] = C(runs, n) m^(runs-n) (M-m)^n."""
    n_runs, m, big_m = spec.runs, spec.m, spec.M
    counts, binom = [], 1
    for n in range(n_runs + 1):
        counts.append(binom * m ** (n_runs - n) * (big_m - m) ** n)
        binom = binom * (n_runs - n) // (n + 1)
    return HistoryTally(spec, counts)


def _require_digits(name: str, base: int, runs: int) -> None:
    # a tally totals base^runs and counts up to it as exact integers, which a
    # report prints; a limit of 0, or none before Python 3.10.7, prints any.
    # A caller that prints calls this before counting
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or base < 2 or runs < 1:  # 1^N prints; the counting refuses the rest
        return
    digits = math.floor(runs * math.log10(base)) + 1
    if digits > limit:
        raise ValueError(f"{name} = {base}^{runs} has {digits} digits, above "
                         f"the {limit}-digit limit for printing an integer")


def multinomial_history_counts(cells, runs: int) -> dict:
    """Tally for any number of outcomes: composition (n_1..n_K) -> count.

    ``cells`` lists the fine cells per outcome; the count of histories with
    n_i detections of outcome i is the multinomial coefficient times
    prod(cells_i^n_i).  The two-outcome case reduces to history_counts.
    (sum of cells)^runs is checked against the interpreter's limit for
    printing an integer first, and the C(runs + K - 1, K - 1) compositions
    are counted before any is enumerated, against COMPOSITION_CAP.
    """
    cells = tuple(int(c) for c in cells)
    n_runs = int(runs)
    _require_digits("(sum of cells)^N", sum(cells), n_runs)
    if not cells or any(c < 1 for c in cells):
        raise ValueError("every outcome needs at least one fine cell")
    if n_runs < 1:
        raise ValueError("need at least one run")
    if math.comb(n_runs + len(cells) - 1, len(cells) - 1) > COMPOSITION_CAP:
        raise ValueError(f"{len(cells)} outcomes over {n_runs} runs give more than "
                         f"{COMPOSITION_CAP} compositions")
    out = {}
    for comp in _compositions(n_runs, len(cells)):
        coeff, remaining = 1, n_runs
        for n_i in comp:
            coeff *= math.comb(remaining, n_i)
            remaining -= n_i
        out[comp] = coeff * math.prod(c ** n for c, n in zip(cells, comp))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def frequency_distribution(tally: HistoryTally) -> tuple:
    """p(n) = counts(n) / M^runs as exact Fractions; sums to 1 exactly."""
    total = tally.total
    return tuple(Fraction(c, total) for c in tally.counts)


def gaussian_approx(spec: ExperimentSpec, n) -> float:
    """Gaussian profile of the frequency peak, in the source convention.

    (2 pi N)^{-1/2} |ab|^{-1} exp(-((n - N b^2) / (sqrt(N) |ab|))^2).  Note
    the exponent carries no factor 1/2; gaussian_reference provides the
    standard de Moivre-Laplace normalization for side-by-side comparison.
    """
    n_runs = spec.runs
    ab = spec.alpha_beta
    z = (float(n) - n_runs * float(spec.beta_sq)) / (math.sqrt(n_runs) * ab)
    return math.exp(-z * z) / (math.sqrt(2.0 * math.pi * n_runs) * ab)


def gaussian_reference(spec: ExperimentSpec, n) -> float:
    """Standard de Moivre-Laplace Gaussian with variance N |ab|^2."""
    n_runs = spec.runs
    var = n_runs * spec.alpha_beta ** 2
    z_sq = (float(n) - n_runs * float(spec.beta_sq)) ** 2 / (2.0 * var)
    return math.exp(-z_sq) / math.sqrt(2.0 * math.pi * var)


def deviation(spec: ExperimentSpec) -> float:
    """Expected spread of the detection number: sqrt(N) |alpha beta|."""
    return math.sqrt(spec.runs) * spec.alpha_beta


def maverick_mass(tally: HistoryTally, delta_r) -> Fraction:
    """Exact weight of histories with |n/N - |beta|^2| > delta_r.

    Pass delta_r as a Fraction or string for exact decimal thresholds; a
    float is used at its exact binary value.
    """
    dr = Fraction(delta_r)
    if not 0 < dr < 1:
        raise ValueError("delta_r must lie strictly between 0 and 1")
    # |n/N - (M-m)/M| > p/q  <=>  |n M - N (M-m)| q > p N M, in integers
    n_runs, m, big_m = tally.spec.runs, tally.spec.m, tally.spec.M
    centre, bound = n_runs * (big_m - m), dr.numerator * n_runs * big_m
    total = sum(c for n, c in enumerate(tally.counts)
                if abs(n * big_m - centre) * dr.denominator > bound)
    return Fraction(total, tally.total)


# ----- the superensemble census -----
#
# Run l occupies three adjacent subsystems (S_l, C_l, E_l) with dims
# (2, M, M): S_l holds the coarse outcome, C_l the fine cell, E_l the
# environment register correlated with the cell.  History (j_1..j_N) puts
# amplitude M^{-N/2} e^{i sum phases} on S_l = [j_l >= m], C_l = E_l = j_l.
# A report expands the histories once, in lexicographic cell order: one row
# of these 3N register digits (a key) and one amplitude per history.

@dataclass(frozen=True)
class SwapCheck:
    pair: tuple                  # two histories, each a tuple of cell indices
    restoration: float           # sparse swap+counterswap protocol fidelity
    envariant: bool = None       # _envariance_verdict on the swap's system block, when run
    counter_fidelity: float = None  # restoration via that verdict's polar counter


@dataclass(frozen=True)
class SuperensembleReport:
    census: tuple            # per-n term counts from the outcome digits
    tally: tuple             # combinatorial counts
    total_terms: int
    max_modulus_dev: float   # worst | |amp| - M^{-N/2} | over the terms
    swap_checks: tuple

    @property
    def census_matches(self) -> bool:
        return self.census == self.tally

    @property
    def failed(self) -> bool:
        """The census, a term modulus or a sampled swap check came out false."""
        return (not self.census_matches or self.max_modulus_dev > 1e-12
                or any(c.restoration < 1 - 1e-12 or c.envariant is False
                       for c in self.swap_checks))


def _coarse_phases(phases) -> tuple:
    phases = tuple(float(p) for p in phases)
    if len(phases) != 2:
        raise ValueError("one phase per coarse outcome")
    return phases


def _history_terms(spec: ExperimentSpec, phases) -> tuple:
    """(keys, amps): the 3N register digits and the amplitude of every history."""
    phases = np.array(_coarse_phases(phases))
    n_runs = spec.runs
    cells = np.indices((spec.M,) * n_runs).reshape(n_runs, -1).T
    outcomes = (cells >= spec.m).astype(cells.dtype)
    keys = np.stack((outcomes, cells, cells), axis=2).reshape(len(cells), 3 * n_runs)
    # the phases are added run by run, in the order a history lists them
    total = np.zeros(len(cells))
    for l in range(n_runs):
        total = total + phases[outcomes[:, l]]
    modulus = spec.M ** (-n_runs / 2.0)
    amps = np.array([modulus * complex(math.cos(p), math.sin(p)) for p in total.tolist()])
    return keys, amps


def _tensor_dims(spec: ExperimentSpec, with_register: bool) -> tuple:
    dims = (2, spec.M, spec.M) * spec.runs
    return (spec.runs + 1,) + dims if with_register else dims


def _dense_state(spec: ExperimentSpec, keys, amps, with_register: bool = False):
    """The expansion (keys, amps) as a dense state.

    ``with_register`` prepends a detection register: each term sits on the
    register level that counts its "1" outcomes.
    """
    dims = _tensor_dims(spec, with_register)
    size = math.prod(dims)
    require_dense(size, "explicit build")
    if with_register:
        keys = np.column_stack((keys[:, 0::3].sum(axis=1), keys))
    flat = np.zeros(size, dtype=complex)
    flat[np.ravel_multi_index(keys.T, dims)] = amps
    return StateVector(dims, flat)


def _sc_targets(spec: ExperimentSpec) -> tuple:
    return tuple(i for i in range(3 * spec.runs) if i % 3 != 2)


def _rows(spec: ExperimentSpec, pair) -> tuple:
    """Rows of the expansion that hold the two histories of ``pair``."""
    return tuple(int(np.ravel_multi_index(h, (spec.M,) * spec.runs)) for h in pair)


def _restoration(spec: ExperimentSpec, keys, amps, pair) -> float:
    # Swap two distinct histories in the (S, C) registers, undo the swap from
    # E, and return the fidelity with the original expansion (keys, amps).
    # The swap rewrites the (S, C) digits of the two histories, the
    # counterswap their E digits with the amplitude-ratio phase, and the
    # result is matched back by flat index.
    a, b = pair
    values = amps.tolist()
    row_a, row_b = _rows(spec, pair)
    amp_a, amp_b = values[row_a], values[row_b]
    sc = list(_sc_targets(spec))
    sc_a, sc_b = keys[row_a, sc], keys[row_b, sc]
    moved = keys.copy()
    moved[np.ix_(np.all(keys[:, sc] == sc_a, axis=1), sc)] = sc_b
    moved[np.ix_(np.all(keys[:, sc] == sc_b, axis=1), sc)] = sc_a
    restored_amps = list(values)
    env = keys[:, 2::3]
    for src, dst, ratio in ((a, b, amp_b / amp_a), (b, a, amp_a / amp_b)):
        for r in np.flatnonzero(np.all(env == src, axis=1)):
            moved[r, 2::3] = dst
            restored_amps[r] = values[r] * ratio
    dims = (2, spec.M, spec.M) * spec.runs
    restored = dict(zip(np.ravel_multi_index(moved.T, dims).tolist(), restored_amps))
    flat = np.ravel_multi_index(keys.T, dims).tolist()
    overlap = sum(amp.conjugate() * restored.get(k, 0.0) for amp, k in zip(values, flat))
    return float(abs(overlap))


def _dense_swap_check(spec, dec, keys, pair):
    """Full envariance verdict for a history swap via the generic machinery.

    ``dec`` is the state's Schmidt decomposition across the (S, C) cut; every
    sampled swap acts on that one cut, so a report decomposes once.  The swap
    exchanges the two histories' (S, C) entries of each left Schmidt vector,
    which gives its system block with no operator built.
    """
    sc_dims = (2, spec.M) * spec.runs
    sc_digits = keys[np.ix_(_rows(spec, pair), _sc_targets(spec))]
    flat_a, flat_b = (int(f) for f in np.ravel_multi_index(sc_digits.T, sc_dims))
    swapped = dec.left_basis.copy()
    swapped[:, [flat_a, flat_b]] = swapped[:, [flat_b, flat_a]]
    verdict = _envariance_verdict(dec, dec.left_basis.conj() @ swapped.T)
    return verdict.envariant, verdict.restoration


def _sample_pairs(spec: ExperimentSpec, swap_pairs: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    histories = (spec.M,) * spec.runs
    pairs = []
    for _ in range(int(swap_pairs)):
        flat = rng.choice(spec.M ** spec.runs, size=2, replace=False)
        pairs.append(tuple(tuple(int(j) for j in np.unravel_index(int(f), histories))
                           for f in flat))
    return pairs


def _swap_checks(spec, keys, amps, pairs, state) -> tuple:
    # every pair is restored by the sparse protocol; with a dense ``state``
    # it also gets the generic envariance verdict
    dec = schmidt(state, Bipartition(_sc_targets(spec))) if state is not None else None
    checks = []
    for pair in pairs:
        sparse_fid = _restoration(spec, keys, amps, pair)
        if dec is not None:
            envariant, counter_fid = _dense_swap_check(spec, dec, keys, pair)
            checks.append(SwapCheck(pair, sparse_fid, envariant, counter_fid))
        else:
            checks.append(SwapCheck(pair, sparse_fid))
    return tuple(checks)


def superensemble(tally: HistoryTally, phases=(0.0, 0.0), swap_pairs: int = 2,
                  seed: int = 0, with_register: bool = False) -> tuple:
    """Census of the N-run history expansion, cross-checked against the tally.

    ``tally`` is history_counts of the experiment; its spec sets the runs.
    Returns (route, report).  The route is "explicit" when the dense tensor
    (after the detection register, if asked for) fits the amplitude budget,
    "sparse-census" when it does not but there is no register and at most
    SPARSE_TERM_CAP histories, else "skipped-beyond-desk-scale" with no
    report.  Every route expands the histories once and counts the census,
    the term count and the worst modulus from that expansion; every sampled
    history swap is restored through the sparse protocol.  The dense tensor
    is built from the same expansion, and only on the explicit route where a
    check reads it: the dense envariance verdict of each sampled swap (when
    the (2M)^N swap block is within SWAP_BLOCK_CAP), and ``with_register``
    (runs <= 3), whose register digit is read back for every term and must
    equal its detection count.  A register build runs no swap checks,
    because the swap is no longer local to (S, C).
    """
    spec = tally.spec
    phases = _coarse_phases(phases)
    explicit = math.prod(_tensor_dims(spec, with_register)) <= born.DENSE_AMPLITUDE_CAP
    if not explicit and (with_register or spec.M ** spec.runs > SPARSE_TERM_CAP):
        return "skipped-beyond-desk-scale", None
    if with_register and spec.runs > 3:
        raise ValueError("physical register option is limited to runs <= 3")
    keys, amps = _history_terms(spec, phases)
    detections = keys[:, 0::3].sum(axis=1)
    checks = ()
    if with_register:
        state = _dense_state(spec, keys, amps, with_register=True)
        levels = state.amps.reshape(spec.runs + 1, -1)[
            :, np.ravel_multi_index(keys.T, state.dims[1:])]
        if not np.array_equal(levels != 0, np.arange(spec.runs + 1)[:, None] == detections):
            raise ValueError("register digit disagrees with the outcome registers")
    else:
        pairs = _sample_pairs(spec, swap_pairs, seed)
        dense = explicit and bool(pairs) and (2 * spec.M) ** spec.runs <= SWAP_BLOCK_CAP
        checks = _swap_checks(spec, keys, amps, pairs,
                              _dense_state(spec, keys, amps) if dense else None)
    report = SuperensembleReport(
        census=tuple(int(c) for c in np.bincount(detections, minlength=spec.runs + 1)),
        tally=tally.counts,
        total_terms=len(amps),
        max_modulus_dev=float(np.max(np.abs(np.abs(amps) - spec.M ** (-spec.runs / 2.0)))),
        swap_checks=checks,
    )
    return ("explicit" if explicit else "sparse-census"), report


@dataclass(frozen=True)
class RepeatedRuns:
    """What repeated_runs found: one tally, its exact distribution p(n) with
    both Gaussian profiles per n, the maverick mass at delta_r (None without
    one), and superensemble's route and report."""

    tally: HistoryTally
    distribution: tuple
    gaussian_approx: tuple
    gaussian_reference: tuple
    deviation: float
    maverick: Fraction
    route: str
    report: SuperensembleReport


def repeated_runs(spec: ExperimentSpec, delta_r=None, phases=(0.0, 0.0),
                  swap_pairs: int = 2, seed: int = 0,
                  with_register: bool = False) -> RepeatedRuns:
    """Exact statistics of N runs, checked against their superensemble.

    M^N is checked against the interpreter's limit for printing an integer
    before any history is counted; the last four arguments go to
    superensemble.
    """
    _require_digits("M^N", spec.M, spec.runs)
    tally = history_counts(spec)
    runs = range(spec.runs + 1)
    maverick = None if delta_r is None else maverick_mass(tally, delta_r)
    route, report = superensemble(tally, phases, swap_pairs, seed, with_register)
    return RepeatedRuns(tally, frequency_distribution(tally),
                        tuple(gaussian_approx(spec, n) for n in runs),
                        tuple(gaussian_reference(spec, n) for n in runs),
                        deviation(spec), maverick, route, report)
