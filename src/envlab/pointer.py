"""Truth-table records and pointer-basis selection by correlation stability.

A measurement record is made by conditionally shifting an apparatus out of
its ready level: |A_0>|s_k> -> |A_r(k)>|s_k>.  Coupling the record to an
environment through a diagonal interaction multiplies every |A_k>|e_nu>
amplitude by a phase e^{-i g_kn t}; the pairwise overlap of the resulting
environment branches is the decoherence factor zeta_kk'(t).  Candidate
record bases are scored by how far each conditional state of the remaining
subsystems is from a product.  The distinguished (pointer) basis is the one
whose conditionals stay products for all t, which singles it out without any
appeal to probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .born import _chunk_rows, require_dense
from .hilbert import (NORM_TOL, ZERO_PROJECTION_TOL, OrthogonalOutcomeError, StateVector,
                      _load_matrix, conditional_state, tensor_product)

SPECTRUM_NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
FLAT_LANDSCAPE_TOL = 1e-9
SEARCH_DIM_CAP = 8


@dataclass(frozen=True)
class TruthTable:
    """Record rule: system vector k is written to apparatus level k + 1.

    ``system_basis`` rows must be orthonormal, so the branch amplitudes of a
    recorded state are its projections <s_k|input>.  Level 0 of the
    apparatus is the ready state and never holds a record, so records start
    at level 1.
    """

    system_basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        basis = np.asarray(self.system_basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] < 1:
            raise ValueError("system_basis must be a 2-d array, one vector per row")
        gram = basis.conj() @ basis.T
        if float(np.max(np.abs(gram - np.eye(basis.shape[0])))) > NORM_TOL:
            raise ValueError("system_basis rows must be orthonormal")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "system_basis", basis)

    @property
    def n_outcomes(self) -> int:
        return self.system_basis.shape[0]

    @property
    def dim_system(self) -> int:
        return self.system_basis.shape[1]


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


def environment_state(spectrum: EnvSpectrum) -> StateVector:
    """Single-subsystem state sum_nu gamma_nu |e_nu>."""
    return StateVector((spectrum.n_levels,), spectrum.gamma)


def load_couplings(path) -> CouplingMatrix:
    """Read g[k, nu] from whitespace-separated text, one row per record level."""
    return CouplingMatrix(_load_matrix(path, float))


def premeasure(system_state: StateVector, table: TruthTable,
               apparatus_dim: int) -> StateVector:
    """Record a system state onto a fresh apparatus: |A_0>|s_k> -> |A_k+1>|s_k>.

    The branch amplitudes are the projections <s_k|input>, and the input must
    lie in the span of the table basis.  Output layout: (apparatus, system),
    apparatus first.
    """
    if system_state.amps.size != table.dim_system:
        raise ValueError("system state dimension does not match the table")
    amplitudes = table.system_basis.conj() @ system_state.amps
    residue = system_state.amps - amplitudes @ table.system_basis
    if np.linalg.norm(residue) > 1e-9:
        raise ValueError("input state has weight outside the recorded span")
    if apparatus_dim < table.n_outcomes + 1:
        raise ValueError(
            f"apparatus too small: {table.n_outcomes} outcomes need dimension "
            f">= {table.n_outcomes + 1} (level 0 stays the ready state)"
        )
    out = np.zeros((int(apparatus_dim), table.dim_system), dtype=complex)
    for k in range(table.n_outcomes):
        out[k + 1] += amplitudes[k] * table.system_basis[k]
    return StateVector((int(apparatus_dim),) + tuple(system_state.dims), out.reshape(-1))


def evolve(state: StateVector, apparatus: int, env: int,
           couplings: CouplingMatrix, t: float) -> StateVector:
    """Diagonal record-environment coupling acting for time t.

    Multiplies the amplitude of every |A_k>|e_nu> component by e^{-i g_kn t};
    all other subsystems are spectators and the norm is untouched.  The
    coupling matrix must cover the full apparatus and environment dimensions.
    """
    n = state.n_subsystems
    if apparatus == env:
        raise ValueError("apparatus and environment must be distinct subsystems")
    for idx in (apparatus, env):
        if idx < 0 or idx >= n:
            raise ValueError(f"subsystem {idx} out of range")
    g = couplings.g
    if state.dims[apparatus] != g.shape[0] or state.dims[env] != g.shape[1]:
        raise ValueError(
            f"coupling shape {g.shape} does not match apparatus/environment "
            f"dimensions ({state.dims[apparatus]}, {state.dims[env]})"
        )
    _require_finite_phase(g, t)
    phases = np.exp(-1j * g * float(t))
    tens = np.moveaxis(state.tensor(), (apparatus, env), (0, 1))
    tens = tens * phases.reshape(g.shape + (1,) * (n - 2))
    out = np.moveaxis(tens, (0, 1), (apparatus, env))
    return StateVector(state.dims, out.reshape(-1))


def decoherence_factor(couplings: CouplingMatrix, spectrum: EnvSpectrum,
                       k: int, k_other: int, t):
    """Overlap of the environment branches behind records k and k_other.

    zeta_kk'(t) = sum_nu |gamma_nu|^2 e^{i (g_k'nu - g_knu) t}; modulus <= 1
    always, and exactly 1 at t = 0 or k = k'.  ``t`` is a time or an array
    of times; an array gives one zeta per time, swept in chunks of time
    points that keep the (times, levels) temporaries within the chunk budget.
    A phase that overflows is refused, naming the first such time in order.
    """
    g = couplings.g
    for idx in (k, k_other):
        if idx < 0 or idx >= g.shape[0]:
            raise ValueError(f"record index {idx} out of range")
    if spectrum.n_levels != g.shape[1]:
        raise ValueError("spectrum level count does not match the couplings")
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    weights = np.abs(spectrum.gamma) ** 2
    rate = g[k_other] - g[k]
    _require_finite_phase(rate, flat)
    zeta = np.empty(flat.size, dtype=complex)
    step = _chunk_rows(g.shape[1])
    for lo in range(0, flat.size, step):
        phases = 1j * rate * flat[lo:lo + step, None]
        zeta[lo:lo + step] = np.sum(weights * np.exp(phases), axis=1)
    return complex(zeta[0]) if times.ndim == 0 else zeta.reshape(times.shape)


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


def _conditionals(state: StateVector, apparatus: int):
    # the state as a (d, rest) matrix whose row a is <a| on the apparatus,
    # and the dimension of the first remaining subsystem, where each
    # conditional is cut
    dims = state.dims
    if len(dims) < 2 or not 0 <= apparatus < len(dims):
        raise ValueError(f"cannot condition subsystem {apparatus} of dims {dims}")
    psi = np.moveaxis(state.tensor(), apparatus, 0).reshape(dims[apparatus], -1)
    return psi, dims[1] if apparatus == 0 else dims[0]


def _require_orthonormal(bases: np.ndarray, d: int) -> None:
    if bases.shape[-2:] != (d, d):
        raise ValueError(f"candidate basis must be {d} x {d}, one vector per row")
    gram = bases.conj() @ np.swapaxes(bases, -1, -2)
    if np.max(np.abs(gram - np.eye(d))) > 1e-9:
        raise ValueError("candidate basis is not orthonormal")


def _vector_scores(psi: np.ndarray, first: int, vectors: np.ndarray) -> np.ndarray:
    # scores of a stack of candidate vectors (..., d) on a state of three or
    # more subsystems.  s_max^2 of a normalized conditional C is the top
    # eigenvalue of its first x first Gram matrix C C^dagger, so no SVD is
    # needed: two rows have a closed form, more go to one eigvalsh call
    cond = vectors.reshape(-1, psi.shape[0]).conj() @ psi  # one product for the stack
    weights = np.linalg.norm(cond, axis=1)
    live = weights >= ZERO_PROJECTION_TOL
    rows = (cond[live] / weights[live][:, None]).reshape(-1, first, psi.shape[1] // first)
    gram = rows @ rows.conj().swapaxes(1, 2)
    if first == 2:
        a, b, d = gram[:, 0, 0].real, gram[:, 0, 1], gram[:, 1, 1].real
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + b.real ** 2 + b.imag ** 2)
    else:
        top = np.linalg.eigvalsh(gram)[:, -1]
    scores = np.zeros(len(cond))
    scores[live] = np.clip(1.0 - top, 0.0, 1.0)
    return scores.reshape(vectors.shape[:-1])


def _scores(state: StateVector, apparatus: int, bases: np.ndarray) -> np.ndarray:
    # scores (n, d) of a stack of candidate bases (n, d, d)
    psi, first = _conditionals(state, apparatus)
    _require_orthonormal(bases, psi.shape[0])
    if len(state.dims) == 2:
        return np.zeros(bases.shape[:2])  # each conditional is a single-subsystem state
    return _vector_scores(psi, first, bases)


def _as_score(row: np.ndarray, degenerate: bool = False) -> PointerScore:
    return PointerScore(tuple(float(s) for s in row), float(row.max()), degenerate)


def pointer_score(state: StateVector, apparatus: int, candidate_basis) -> PointerScore:
    """Score a candidate record basis by the entanglement of its conditionals.

    Each basis vector conditions the remaining subsystems; the normalized
    conditional C is cut into (first remaining subsystem | rest) and scores
    1 - s_max^2, where s_max^2 is the top Gram eigenvalue, the largest
    eigenvalue of C C^dagger; no SVD is taken.  Zero means a product;
    entanglement between the leftover subsystems pushes the score up.  Vectors
    with projection weight below the 1e-12 floor score 0, as does every
    vector of a two-subsystem state, whose conditionals have no cut.
    """
    basis = np.asarray(candidate_basis, dtype=complex)
    return _as_score(_scores(state, apparatus, basis[None])[0])


def _haar_basis(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return (q * (diag / np.abs(diag))).T


def _descend(state, apparatus, bases, scores, iterations):
    # greedy descent of every start at once; a start leaves the stack once
    # its value is at most 1e-14.  A two-level rotation changes rows i and j
    # only, so just their conditionals are rescored from their top Gram
    # eigenvalue, and the other rows keep the scores cached for the current
    # basis of each start
    psi, first = _conditionals(state, apparatus)
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
                trial_scores[:, :, [i, j]] = _vector_scores(psi, first, trials[:, :, [i, j]])
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


def find_pointer_basis(state: StateVector, apparatus: int, iterations: int = 48):
    """Best-effort search for the record basis with the smallest max score.

    Greedy coordinate descent over two-level rotations with a halving angle
    bracket, run from the coordinate basis and 5 seeded random starts; no
    global optimality is claimed.  Returns (basis rows, PointerScore).  When
    an initial probe shows the landscape is flat, the coordinate basis comes
    back with ``degenerate_minimum`` set instead of a meaningless winner.
    """
    d = state.dims[apparatus]
    if d > SEARCH_DIM_CAP:
        raise ValueError(f"apparatus dimension {d} above desk scale ({SEARCH_DIM_CAP})")
    rng = np.random.default_rng(17)  # fixed: the search must be reproducible
    starts = np.stack([np.eye(d, dtype=complex)] + [_haar_basis(rng, d) for _ in range(5)])
    start_scores = _scores(state, apparatus, starts)
    maxima = [float(v) for v in start_scores.max(axis=1)]
    if max(maxima) - min(maxima) <= FLAT_LANDSCAPE_TOL:
        return starts[0], _as_score(start_scores[0], True)
    bases, values = _descend(state, apparatus, starts, start_scores, iterations)
    best = values.index(min(values))  # the first start to reach the lowest value
    return bases[best], pointer_score(state, apparatus, bases[best])


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
    # (k', n) and zeros elsewhere, so its norm needs no (K L)^2 operator
    diff = g[None, :, :] - g[:, None, :]
    return float(np.linalg.norm(lam[:, :, None] * diff))


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
    """Premeasure, couple to the environment, sweep decoherence, score records.

    Row 0 of ``couplings`` is the ready level, rows 1..K the K records.  The
    system state ``amps`` (K unit-norm amplitudes, even when None) is
    premeasured, joined by the environment of ``spectrum`` and evolved for
    ``time``.  The sweep of every record pair over ``steps`` times from t0 to
    t1 is checked against the amplitude budget first, and an overflowing
    phase is named at its first time in sweep order.
    """
    apparatus_dim, n_rec = couplings.n_records, couplings.n_records - 1
    if n_rec < 1:
        raise ValueError("couplings need at least two rows: ready level plus records")
    if amps is None:
        amps = np.full(n_rec, 1.0 / math.sqrt(n_rec), dtype=complex)
    premeasured = premeasure(StateVector((n_rec,), amps), TruthTable(np.eye(n_rec)),
                             apparatus_dim)
    records = np.eye(apparatus_dim)
    branch_probs = []
    for record in records[1:]:
        try:
            branch_probs.append(conditional_state(premeasured, 0, record)[0] ** 2)
        except OrthogonalOutcomeError:
            branch_probs.append(0.0)
    evolved = evolve(tensor_product([premeasured, environment_state(spectrum)]), 0, 2,
                     couplings, time)

    pairs = tuple((k, l) for k in range(1, apparatus_dim) for l in range(k + 1, apparatus_dim))
    require_dense(steps * (1 + 3 * len(pairs)), "decoherence table")
    ts = np.linspace(t0, t1, steps)
    with np.errstate(over="ignore"):
        rates = couplings.g[[l for _, l in pairs]] - couplings.g[[k for k, _ in pairs]]
    _require_finite_phase(rates, ts)  # every pair at once: the first time of any
    columns = [ts.tolist()]
    for k, l in pairs:
        z = decoherence_factor(couplings, spectrum, k, l, ts)
        # hypot rounds as abs(complex) does; np.abs can differ by an ulp
        columns += [z.real.tolist(), z.imag.tolist(), np.hypot(z.real, z.imag).tolist()]

    truth = pointer_score(evolved, 0, records)
    commutator = commutator_norm(np.diag(np.arange(apparatus_dim, dtype=float)), couplings)
    found = find_pointer_basis(evolved, 0, iterations=iterations) if search else None
    return EinselectionRun(tuple(branch_probs), pairs, tuple(zip(*columns)), truth,
                           commutator, found)
