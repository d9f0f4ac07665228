"""Exact relative-frequency engine for repeated fine-grained measurements.

A run prepares one two-outcome system whose squared amplitudes are m/M and
(M-m)/M, fine-grained into M equal cells that are mirrored by a counter and
an environment register.  N parallel runs produce M^N equiprobable histories
(every amplitude has modulus M^{-N/2}); grouping them by the number n of "1"
detections gives exact big-integer tallies C(N,n) m^{N-n} (M-m)^n, a binomial
distribution in exact rationals, its Gaussian limit, and the exponentially
shrinking mass of maverick histories whose frequencies sit far from the
squared amplitude.  Small instances are materialized as explicit tensors and
cross-checked against the combinatorics, including swap/counterswap
envariance of sampled history pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .born import DenseBudgetError, require_dense
from .envariance import _envariance_verdict
from .hilbert import Bipartition, LocalUnitary, StateVector, apply_local, fidelity, schmidt

SPARSE_TERM_CAP = 4096
SWAP_BLOCK_CAP = 1400  # dense envariance check needs a (2M)^N square operator


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

    @property
    def beta_sq(self) -> Fraction:
        return Fraction(self.M - self.m, self.M)

    @property
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


def multinomial_history_counts(cells, runs: int) -> dict:
    """Tally for any number of outcomes: composition (n_1..n_K) -> count.

    ``cells`` lists the fine cells per outcome; the count of histories with
    n_i detections of outcome i is the multinomial coefficient times
    prod(cells_i^n_i).  The two-outcome case reduces to history_counts.
    """
    cells = tuple(int(c) for c in cells)
    if not cells or any(c < 1 for c in cells):
        raise ValueError("every outcome needs at least one fine cell")
    n_runs = int(runs)
    if n_runs < 1:
        raise ValueError("need at least one run")
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


def frequency_distribution(spec: ExperimentSpec) -> tuple:
    """p(n) = counts(n) / M^runs as exact Fractions; sums to 1 exactly."""
    tally = history_counts(spec)
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


def maverick_mass(spec: ExperimentSpec, delta_r) -> Fraction:
    """Exact weight of histories with |n/N - |beta|^2| > delta_r.

    Pass delta_r as a Fraction or string for exact decimal thresholds; a
    float is used at its exact binary value.
    """
    dr = Fraction(delta_r)
    if not 0 < dr < 1:
        raise ValueError("delta_r must lie strictly between 0 and 1")
    beta_sq = spec.beta_sq
    tally = history_counts(spec)
    total = sum(c for n, c in enumerate(tally.counts)
                if abs(Fraction(n, spec.runs) - beta_sq) > dr)
    return Fraction(total, tally.total)


# ----- explicit superensemble tensors -----
#
# Run l occupies three adjacent subsystems (S_l, C_l, E_l) with dims
# (2, M, M): S_l holds the coarse outcome, C_l the fine cell, E_l the
# environment register correlated with the cell.  History (j_1..j_N) puts
# amplitude M^{-N/2} e^{i sum phases} on S_l = [j_l >= m], C_l = E_l = j_l.

@dataclass(frozen=True)
class SwapCheck:
    pair: tuple                  # two histories, each a tuple of cell indices
    restoration: float           # sparse swap+counterswap protocol fidelity
    envariant: bool = None       # dense check_envariance verdict, when run
    counter_fidelity: float = None  # restoration via the polished dense counter


@dataclass(frozen=True)
class SuperensembleReport:
    census: tuple            # per-n nonzero-amplitude counts from the tensor
    tally: tuple             # combinatorial counts
    total_terms: int
    max_modulus_dev: float   # worst | |amp| - M^{-N/2} | over the support
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


def _outcome_of(spec: ExperimentSpec, cell: int) -> int:
    return 0 if cell < spec.m else 1


def _coarse_phases(phases) -> tuple:
    phases = tuple(float(p) for p in phases)
    if len(phases) != 2:
        raise ValueError("one phase per coarse outcome")
    return phases


def _history_terms(spec: ExperimentSpec, phases) -> dict:
    phases = _coarse_phases(phases)
    modulus = spec.M ** (-spec.runs / 2.0)
    terms = {}
    for cells in itertools.product(range(spec.M), repeat=spec.runs):
        idx, total_phase = [], 0.0
        for j in cells:
            s = _outcome_of(spec, j)
            idx.extend((s, j, j))
            total_phase += phases[s]
        terms[tuple(idx)] = modulus * complex(
            math.cos(total_phase), math.sin(total_phase))
    return terms


def _sc_part(idx: tuple) -> tuple:
    return tuple(x for i, x in enumerate(idx) if i % 3 != 2)


def _full_index(spec: ExperimentSpec, cells: tuple) -> tuple:
    idx = []
    for j in cells:
        idx.extend((_outcome_of(spec, j), j, j))
    return tuple(idx)


def _restoration(spec: ExperimentSpec, terms: dict, pair) -> float:
    # Swap two distinct histories in the (S, C) registers, undo the swap from
    # E, and return the fidelity with the original expansion ``terms``.
    # One row of register digits per term: the swap rewrites the (S, C)
    # digits of the two histories, the counterswap their E digits with the
    # amplitude-ratio phase, and the result is matched back by flat index.
    a, b = pair
    amp_a, amp_b = terms[_full_index(spec, a)], terms[_full_index(spec, b)]
    keys = np.array(list(terms), dtype=np.intp)
    sc = np.arange(keys.shape[1]) % 3 != 2
    sc_a, sc_b = (np.array(_full_index(spec, h))[sc] for h in (a, b))
    moved = keys.copy()
    moved[np.ix_(np.all(keys[:, sc] == sc_a, axis=1), sc)] = sc_b
    moved[np.ix_(np.all(keys[:, sc] == sc_b, axis=1), sc)] = sc_a
    amps = list(terms.values())
    restored_amps = list(amps)
    env = moved[:, 2::3].copy()
    for src, dst, ratio in ((a, b, amp_b / amp_a), (b, a, amp_a / amp_b)):
        for r in np.flatnonzero(np.all(env == src, axis=1)):
            moved[r, 2::3] = dst
            restored_amps[r] = amps[r] * ratio
    dims = (2, spec.M, spec.M) * spec.runs
    restored = dict(zip(np.ravel_multi_index(moved.T, dims).tolist(), restored_amps))
    flat = np.ravel_multi_index(keys.T, dims).tolist()
    overlap = sum(amp.conjugate() * restored.get(k, 0.0) for amp, k in zip(amps, flat))
    return float(abs(overlap))


def _sc_targets(spec: ExperimentSpec) -> tuple:
    return tuple(i for i in range(3 * spec.runs) if i % 3 != 2)


def _dense_swap_check(spec, state, dec, pair):
    """Full envariance verdict for a history swap via the generic machinery.

    ``dec`` is the state's Schmidt decomposition across the (S, C) cut; every
    sampled swap acts on that one cut, so a report decomposes once.
    """
    sc_dims = (2, spec.M) * spec.runs
    block = math.prod(sc_dims)
    flat_a = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[0])), sc_dims))
    flat_b = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[1])), sc_dims))
    u = np.eye(block, dtype=complex)
    u[flat_a, flat_a] = u[flat_b, flat_b] = 0.0
    u[flat_a, flat_b] = u[flat_b, flat_a] = 1.0
    swap = LocalUnitary(_sc_targets(spec), u)
    verdict = _envariance_verdict(dec, swap)
    if not verdict.envariant:
        return False, 0.0
    restored = apply_local(apply_local(state, swap), verdict.counter)
    return True, fidelity(state, restored)


def _sample_pairs(spec: ExperimentSpec, swap_pairs: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    total = spec.M ** spec.runs
    pairs = []
    for _ in range(int(swap_pairs)):
        i, j = rng.choice(total, size=2, replace=False)
        pairs.append((_decode_history(spec, int(i)), _decode_history(spec, int(j))))
    return pairs


def _decode_history(spec: ExperimentSpec, flat: int) -> tuple:
    cells = []
    for _ in range(spec.runs):
        flat, j = divmod(flat, spec.M)
        cells.append(j)
    return tuple(reversed(cells))


def _census_from_positions(spec, outcome_digits, moduli) -> tuple:
    n_per_term = np.sum(np.asarray(outcome_digits), axis=0)
    census = np.bincount(n_per_term, minlength=spec.runs + 1)
    target = spec.M ** (-spec.runs / 2.0)
    max_dev = float(np.max(np.abs(np.asarray(moduli) - target)))
    return tuple(int(c) for c in census), max_dev


def _swap_checks(spec, state, terms, swap_pairs, seed) -> tuple:
    pairs = _sample_pairs(spec, swap_pairs, seed)
    dec = None
    if pairs and state is not None and (2 * spec.M) ** spec.runs <= SWAP_BLOCK_CAP:
        dec = schmidt(state, Bipartition(_sc_targets(spec)))
    checks = []
    for pair in pairs:
        sparse_fid = _restoration(spec, terms, pair)
        if dec is not None:
            envariant, counter_fid = _dense_swap_check(spec, state, dec, pair)
            checks.append(SwapCheck(pair, sparse_fid, envariant, counter_fid))
        else:
            checks.append(SwapCheck(pair, sparse_fid))
    return tuple(checks)


def history_census(spec: ExperimentSpec, phases=(0.0, 0.0), swap_pairs: int = 2,
                   seed: int = 0) -> SuperensembleReport:
    """Census of the explicit history expansion without the dense tensor.

    Enumerates every nonzero amplitude as an explicit sparse term, so it
    covers specs whose dense tensor would exceed the amplitude cap; swap
    checks run through the sparse protocol only.
    """
    if spec.M ** spec.runs > SPARSE_TERM_CAP:
        raise ValueError(f"more than {SPARSE_TERM_CAP} histories; not desk scale")
    terms = _history_terms(spec, phases)
    digits = [[idx[3 * l] for idx in terms] for l in range(spec.runs)]
    census, max_dev = _census_from_positions(
        spec, digits, [abs(a) for a in terms.values()])
    return SuperensembleReport(
        census=census,
        tally=history_counts(spec).counts,
        total_terms=len(terms),
        max_modulus_dev=max_dev,
        swap_checks=_swap_checks(spec, None, terms, swap_pairs, seed),
    )


def build_superensemble_explicit(spec: ExperimentSpec, phases=(0.0, 0.0),
                                 swap_pairs: int = 2, seed: int = 0,
                                 with_register: bool = False):
    """Materialize the N-run state and cross-check it against the tally.

    Returns (StateVector, SuperensembleReport).  The census is recomputed
    from the dense tensor's nonzero entries, not from the generator, and the
    sampled history swaps are verified envariant (dense machinery where the
    swap block fits, exact sparse protocol always).  ``with_register``
    prepends a detection-count register (runs <= 3): its digit must agree
    with the outcome registers term by term, and swap checks are skipped
    because the swap is no longer local to (S, C).
    """
    dims = (2, spec.M, spec.M) * spec.runs
    if with_register:
        dims = (spec.runs + 1,) + dims
    size = math.prod(dims)
    require_dense(size, "explicit build")
    if with_register and spec.runs > 3:
        raise ValueError("physical register option is limited to runs <= 3")
    terms = _history_terms(spec, phases)
    amps = np.zeros(size, dtype=complex)
    for idx, amp in terms.items():
        if with_register:
            n = sum(idx[3 * l] for l in range(spec.runs))
            idx = (n,) + idx
        amps[np.ravel_multi_index(idx, dims)] = amp
    state = StateVector(dims, amps)

    support = np.nonzero(state.amps)[0]
    multi = np.unravel_index(support, dims)
    offset = 1 if with_register else 0
    digits = [multi[offset + 3 * l] for l in range(spec.runs)]
    census, max_dev = _census_from_positions(
        spec, digits, np.abs(state.amps[support]))
    if with_register and not np.array_equal(multi[0], np.sum(digits, axis=0)):
        raise ValueError("register digit disagrees with the outcome registers")
    checks = () if with_register else _swap_checks(spec, state, terms, swap_pairs, seed)
    report = SuperensembleReport(
        census=census,
        tally=history_counts(spec).counts,
        total_terms=int(support.size),
        max_modulus_dev=max_dev,
        swap_checks=checks,
    )
    return state, report


def superensemble(spec: ExperimentSpec, phases=(0.0, 0.0), swap_pairs: int = 2,
                  seed: int = 0, with_register: bool = False) -> tuple:
    """Cross-check the largest superensemble build that is desk scale.

    Returns (route, report): ("explicit", ...) when the dense tensor fits the
    amplitude budget, else ("sparse-census", ...) when there is no register
    and at most SPARSE_TERM_CAP histories, else
    ("skipped-beyond-desk-scale", None).
    """
    phases = _coarse_phases(phases)
    try:
        _, report = build_superensemble_explicit(spec, phases, swap_pairs, seed,
                                                 with_register)
        return "explicit", report
    except DenseBudgetError:
        pass
    if not with_register and spec.M ** spec.runs <= SPARSE_TERM_CAP:
        return "sparse-census", history_census(spec, phases, swap_pairs, seed)
    return "skipped-beyond-desk-scale", None
