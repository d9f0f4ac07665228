"""Pointer-basis selection by correlation stability, read off the decoherence matrix.

A measurement record is made by conditionally shifting an apparatus out of
its ready level: |A_0>|s_k> -> |A_k>|s_k>.  Coupling the record to an
environment through a diagonal interaction multiplies every |A_k>|e_nu>
amplitude by a phase e^{-i g_kn t}, so the state becomes
sum_k a_k |A_k>|s_k>|E_k(t)>, and the pairwise overlap of the environment
branches is the decoherence factor zeta_kk'(t).  A candidate record vector b
conditions the rest on sum_k c_k |s_k>|E_k> with c_k = conj(b_k) a_k, whose
Gram matrix across the system | environment cut is D_c Z D_c^dagger, Z the
matrix of the zeta_kk'.  Candidate record bases are scored from Z alone, by
how far each conditional is from a product, so no evolved state is built.
The distinguished (pointer) basis is the one whose conditionals stay
products for all t, which singles it out without any appeal to
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .born import _chunk_rows, require_dense
from .hilbert import ZERO_PROJECTION_TOL, StateVector, _load_matrix

SPECTRUM_NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
FLAT_LANDSCAPE_TOL = 1e-9
SEARCH_DIM_CAP = 8


@dataclass(frozen=True)
class CouplingMatrix:
    """Record-environment coupling strengths g[k, nu] (hbar = 1)."""

    g: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.size == 0:
            raise ValueError("couplings must form a 2-d array (record x level)")
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "g", g)

    @property
    def n_records(self) -> int:
        return self.g.shape[0]

    @property
    def n_levels(self) -> int:
        return self.g.shape[1]


@dataclass(frozen=True)
class EnvSpectrum:
    """Initial environment expansion amplitudes gamma_nu."""

    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=complex)
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("spectrum must be a flat nonempty vector")
        total = float(np.sum(np.abs(gamma) ** 2))
        if abs(total - 1.0) > SPECTRUM_NORM_TOL:
            raise ValueError(f"spectrum weights sum to {total!r}, not 1")
        gamma = gamma.copy()
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def uniform(cls, n_levels: int) -> "EnvSpectrum":
        return cls(np.full(int(n_levels), 1.0 / math.sqrt(int(n_levels)), dtype=complex))

    @property
    def n_levels(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class PointerScore:
    """Entanglement scores of the conditionals behind each candidate level.

    ``per_outcome[l]`` is 1 minus the squared largest Schmidt coefficient of
    the conditional state picked out by candidate vector l, read off as the
    top Gram eigenvalue of that conditional: zero means the conditional is a
    product (the record is intact), 1 - 1/N is the ceiling for N evenly
    entangled branches.  Levels whose projection weight falls below the
    1e-12 floor carry no conditional and are reported as 0.
    ``degenerate_minimum`` is set by the basis search when the score
    landscape is flat and the reported minimizer is not unique.
    """

    per_outcome: tuple
    max_score: float
    degenerate_minimum: bool = False


def load_couplings(path) -> CouplingMatrix:
    """Read g[k, nu] from whitespace-separated text, one row per record level."""
    return CouplingMatrix(_load_matrix(path, float))


def _require_finite_phase(rates: np.ndarray, times) -> None:
    """Refuse coupling phases rates * t that overflow, before an exp sees them.

    Names the first of ``times`` (a time or an array) at which one does:
    rates * t overflows exactly where the largest |rate| * |t| does.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = ~np.isfinite(np.max(np.abs(rates), initial=0.0) * np.abs(times))
    if overflow.any():
        t = float(times[np.argmax(overflow)])
        raise ValueError(f"coupling phases g*t are not finite at t={t!r}")


def decoherence_matrix(couplings: CouplingMatrix, spectrum: EnvSpectrum, t) -> np.ndarray:
    """The K x K overlaps of the records' environment branches at time t.

    Z[k-1, l-1] = sum_nu |gamma_nu|^2 e^{i (g_lnu - g_knu) t} is the
    decoherence factor zeta_kl(t) of the records k, l = 1..K; row 0 of the
    couplings is the ready level.  ``t`` is a time or an array of times; an
    array gives one Z per time, of shape t.shape + (K, K).  Z is built as
    E E^dagger from the branches E[k-1, nu] = gamma_nu e^{-i g_knu t}, after
    its times x K^2 amplitudes are checked against the budget, a chunk of
    levels and of times at a time.  Only the level chunks order the sums, so
    the Z of each time in an array is the Z of a call at that time alone.  A
    phase g*t that overflows in any row is refused, naming the first such
    time in order.
    """
    g = couplings.g
    if spectrum.n_levels != g.shape[1]:
        raise ValueError("spectrum level count does not match the couplings")
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    n_rec = g.shape[0] - 1
    if n_rec < 1:
        raise ValueError("couplings need at least two rows: ready level plus records")
    require_dense(flat.size * n_rec * n_rec, "decoherence matrix")
    _require_finite_phase(g, flat)
    zeta = np.zeros((flat.size, n_rec, n_rec), dtype=complex)
    step = _chunk_rows(n_rec)
    # as many times as keep a chunk's branches and their products in the share
    span = _chunk_rows(n_rec * max(min(step, g.shape[1]), n_rec))
    # 3-d as the branches are: numpy rounds a lone mixed-ndim product without FMA
    gamma = spectrum.gamma.reshape(1, 1, -1)
    for lo in range(0, g.shape[1], step):
        rates = -1j * g[1:, lo:lo + step]
        for first in range(0, flat.size, span):
            phases = rates * flat[first:first + span, None, None]
            env = gamma[..., lo:lo + step] * np.exp(phases)
            zeta[first:first + span] += env @ env.conj().swapaxes(-1, -2)
    return zeta.reshape(times.shape + (n_rec, n_rec))


def _branches(amps, zeta) -> tuple:
    # the K branch amplitudes and the K x K decoherence matrix, as arrays
    amps = np.asarray(amps, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if amps.ndim != 1 or amps.size < 1:
        raise ValueError("branch amplitudes must be a flat nonempty vector")
    if zeta.shape != (amps.size, amps.size):
        raise ValueError(f"decoherence matrix must be {amps.size} x {amps.size}, "
                         f"one row per record")
    return amps, zeta


def _require_orthonormal(bases: np.ndarray, d: int) -> None:
    if bases.shape[-2:] != (d, d):
        raise ValueError(f"candidate basis must be {d} x {d}, one vector per row")
    gram = bases.conj() @ np.swapaxes(bases, -1, -2)
    if np.max(np.abs(gram - np.eye(d))) > 1e-9:
        raise ValueError("candidate basis is not orthonormal")


def _zeta_scores(amps: np.ndarray, zeta: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # scores of a stack of candidate vectors (..., K + 1).  Vector b leaves
    # the conditional sum_k c_k |s_k>|E_k>, c_k = conj(b_k) a_k, whose Gram
    # matrix across the system | environment cut is D_c Z D_c^dagger with
    # trace sum_k |c_k|^2 Z_kk.  s_max^2 of the normalized conditional is the
    # top eigenvalue of that Gram matrix over its trace, so no SVD is needed:
    # two records have a closed form, more go to one eigvalsh call per chunk.
    # A vector reading a single branch has a rank-one Gram and scores 0
    n_rec = amps.size
    c = vectors.reshape(-1, n_rec + 1)[:, 1:].conj() * amps
    weights = np.sqrt((c.real ** 2 + c.imag ** 2) @ zeta.diagonal().real)
    live = np.flatnonzero((weights >= ZERO_PROJECTION_TOL)
                          & (np.count_nonzero(c, axis=1) > 1))
    scores = np.zeros(len(c))
    step = _chunk_rows(n_rec * n_rec)
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        unit = c[rows] / weights[rows][:, None]
        gram = unit[:, :, None] * zeta * unit.conj()[:, None, :]
        if n_rec == 2:
            a, b, d = gram[:, 0, 0].real, gram[:, 0, 1], gram[:, 1, 1].real
            top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + b.real ** 2 + b.imag ** 2)
        else:
            top = np.linalg.eigvalsh(gram)[:, -1]
        scores[rows] = np.clip(1.0 - top, 0.0, 1.0)
    return scores.reshape(vectors.shape[:-1])


def _as_score(row: np.ndarray, degenerate: bool = False) -> PointerScore:
    return PointerScore(tuple(float(s) for s in row), float(row.max()), degenerate)


def pointer_score(amps, zeta, candidate_basis) -> PointerScore:
    """Score a candidate record basis by the entanglement of its conditionals.

    ``amps`` are the K branch amplitudes a_k of sum_k a_k |A_k>|s_k>|E_k>,
    ``zeta`` the K x K decoherence matrix of the E_k (``decoherence_matrix``)
    and the basis has K + 1 rows over the apparatus, level 0 the ready
    level.  Each basis vector b conditions the system and environment on
    sum_k c_k |s_k>|E_k>, c_k = conj(b_k) a_k; that conditional scores
    1 - s_max^2, where s_max^2 is the top eigenvalue of its normalized Gram
    matrix D_c Z D_c^dagger / sum_k |c_k|^2 Z_kk; no SVD is taken.  Zero means
    a product; reading together branches whose environments have decohered
    (|zeta| < 1) pushes the score up.  Vectors with projection weight below
    the 1e-12 floor score 0, and so, exactly, do vectors reading one branch.
    """
    amps, zeta = _branches(amps, zeta)
    basis = np.asarray(candidate_basis, dtype=complex)
    _require_orthonormal(basis, amps.size + 1)
    return _as_score(_zeta_scores(amps, zeta, basis))


def _haar_basis(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return (q * (diag / np.abs(diag))).T


def _descend(amps, zeta, bases, scores, iterations):
    # greedy descent of every start at once; a start leaves the stack once
    # its value is at most 1e-14.  A two-level rotation changes rows i and j
    # only, so just their conditionals are rescored from their top Gram
    # eigenvalue, and the other rows keep the scores cached for the current
    # basis of each start
    d = bases.shape[1]
    bases, scores = bases.copy(), scores.copy()
    values = scores.max(axis=1).tolist()
    active = list(range(len(bases)))
    span = math.pi / 2
    phis = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    for _ in range(max(1, int(iterations))):
        # the 32 two-level rotations of this bracket, theta slow and phi fast
        grid = [(float(t), p) for t in np.linspace(-span, span, 9) if t != 0.0
                for p in phis]
        c = np.array([math.cos(t) for t, _ in grid])[:, None]
        s = np.array([math.sin(t) * complex(math.cos(p), math.sin(p))
                      for t, p in grid])[:, None]
        for i in range(d):
            for j in range(i + 1, d):
                # mixing rows i and j with c real keeps each trial orthonormal
                now = bases[active][:, None]
                trials = np.repeat(now, len(grid), axis=1)
                trials[:, :, i] = c * now[:, :, i] + s * now[:, :, j]
                trials[:, :, j] = -s.conj() * now[:, :, i] + c * now[:, :, j]
                _require_orthonormal(trials, d)
                trial_scores = np.repeat(scores[active][:, None], len(grid), axis=1)
                trial_scores[:, :, [i, j]] = _zeta_scores(amps, zeta, trials[:, :, [i, j]])
                maxima = trial_scores.max(axis=2).tolist()
                for a, start in enumerate(active):
                    best, best_val = None, values[start]
                    for k, v in enumerate(maxima[a]):
                        if v < best_val - 1e-15:
                            best, best_val = k, v
                    if best is not None:
                        bases[start], scores[start] = trials[a, best], trial_scores[a, best]
                        values[start] = best_val
        span *= 0.5
        active = [start for start in active if values[start] > 1e-14]
        if not active:
            break
    return bases, values


def find_pointer_basis(amps, zeta, iterations: int = 48):
    """Best-effort search for the record basis with the smallest max score.

    Takes what ``pointer_score`` takes: the K branch amplitudes and the K x K
    decoherence matrix; candidates are bases of the (K + 1)-level apparatus.
    Greedy coordinate descent over two-level rotations with a halving angle
    bracket, run from the coordinate basis and 5 seeded random starts; no
    global optimality is claimed.  Returns (basis rows, PointerScore).  When
    an initial probe shows the landscape is flat, the coordinate basis comes
    back with ``degenerate_minimum`` set instead of a meaningless winner.
    """
    amps, zeta = _branches(amps, zeta)
    d = amps.size + 1
    if d > SEARCH_DIM_CAP:
        raise ValueError(f"apparatus dimension {d} above desk scale ({SEARCH_DIM_CAP})")
    rng = np.random.default_rng(17)  # fixed: the search must be reproducible
    starts = np.stack([np.eye(d, dtype=complex)] + [_haar_basis(rng, d) for _ in range(5)])
    _require_orthonormal(starts, d)
    start_scores = _zeta_scores(amps, zeta, starts)
    maxima = [float(v) for v in start_scores.max(axis=1)]
    if max(maxima) - min(maxima) <= FLAT_LANDSCAPE_TOL:
        return starts[0], _as_score(start_scores[0], True)
    bases, values = _descend(amps, zeta, starts, start_scores, iterations)
    best = values.index(min(values))  # the first start to reach the lowest value
    return bases[best], pointer_score(amps, zeta, bases[best])


def commutator_norm(pointer_observable, couplings: CouplingMatrix) -> float:
    """Frobenius norm of the commutator with the record-environment coupling.

    The interaction Hamiltonian is H = sum_kn g_kn |A_k><A_k| (x) |e_n><e_n|;
    an observable diagonal in the record basis commutes with it exactly.
    """
    lam = np.asarray(pointer_observable, dtype=complex)
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise ValueError("pointer observable must be a square matrix")
    if np.max(np.abs(lam - lam.conj().T)) > HERMITIAN_TOL:
        raise ValueError("pointer observable must be hermitian")
    g = couplings.g
    if lam.shape[0] != g.shape[0]:
        raise ValueError("observable dimension does not match the coupling rows")
    # [lam (x) 1, H] has entry lam_kk' (g_k'n - g_kn) at row (k, n), column
    # (k', n) and zeros elsewhere, so its norm needs no (K L)^2 operator, and
    # only the nonzero lam_kk' add to it: L entries each
    k, k_other = np.nonzero(lam)
    return float(np.linalg.norm(lam[k, k_other, None] * (g[k_other] - g[k])))


@dataclass(frozen=True)
class EinselectionRun:
    """What einselection_run found: each record level's weight, the sweep
    (per time: t, then re, im and |zeta| of each pair in ``pairs``), the
    record basis's score and commutator_norm, and the search's (basis rows,
    PointerScore) when one ran."""

    branch_probs: tuple
    pairs: tuple
    sweep: tuple
    truth: PointerScore
    commutator: float
    search: tuple = None


def einselection_run(couplings: CouplingMatrix, spectrum: EnvSpectrum, time: float,
                     t0: float, t1: float, steps: int, amps=None, search: bool = False,
                     iterations: int = 48) -> EinselectionRun:
    """Record, couple to the environment, sweep decoherence, score records.

    Row 0 of ``couplings`` is the ready level, rows 1..K the K records.  The
    system state ``amps`` (K unit-norm amplitudes, even when None) is
    recorded as sum_k a_k |A_k>|s_k>|E_k(t)>, so its branch weights are
    |a_k|^2, and the record basis (and with ``search`` the basis search) is
    scored from the decoherence matrix Z at ``time``; no K x K x L state is
    built.  Z and then the sweep of every record pair over ``steps`` times
    from t0 to t1 are checked against the amplitude budget first, and an
    overflowing phase is named at its first time in sweep order.
    """
    zeta = decoherence_matrix(couplings, spectrum, time)
    n_rec = len(zeta)
    if amps is None:
        amps = np.full(n_rec, 1.0 / math.sqrt(n_rec), dtype=complex)
    amps = StateVector((n_rec,), amps).amps
    branch_probs = tuple(float(w * w) if w >= ZERO_PROJECTION_TOL else 0.0
                         for w in np.abs(amps))

    first, second = np.triu_indices(n_rec, 1)
    pairs = tuple(zip((first + 1).tolist(), (second + 1).tolist()))
    require_dense(steps * (1 + 3 * len(pairs)), "decoherence table")
    ts = np.linspace(t0, t1, steps)
    z = decoherence_matrix(couplings, spectrum, ts)[:, first, second]
    # hypot rounds as abs(complex) does; np.abs can differ by an ulp
    cells = np.stack([z.real, z.imag, np.hypot(z.real, z.imag)], axis=2)
    sweep = np.column_stack([ts, cells.reshape(steps, 3 * len(pairs))])

    truth = pointer_score(amps, zeta, np.eye(n_rec + 1))
    commutator = commutator_norm(np.diag(np.arange(n_rec + 1, dtype=float)), couplings)
    found = find_pointer_basis(amps, zeta, iterations=iterations) if search else None
    return EinselectionRun(branch_probs, pairs, tuple(map(tuple, sweep.tolist())), truth,
                           commutator, found)
