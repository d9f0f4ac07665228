import math
import os
from dataclasses import dataclass, field

# must run before numpy loads: in-process tests use one BLAS thread, as the CLI does
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from envlab.born import WeightVector, require_dense
from envlab.envariance import EVEN_TOL, GRAM_TOL, SwapSpec, _spanned_indices
from envlab.hilbert import (NORM_TOL, ZERO_PROJECTION_TOL, Bipartition, LocalUnitary,
                            SchmidtDecomposition, StateVector, _as_complex_vector, _cut_matrix,
                            fidelity, schmidt, tensor_product)
from envlab.pointer import (CouplingMatrix, EnvSpectrum, PointerScore, _as_score,
                            _require_finite_phase, _require_orthonormal)
from envlab.records import _weights_of


def unit_state(dims, amps) -> StateVector:
    """The constructor on amps rescaled to unit norm."""
    amps = np.asarray(amps, dtype=complex)
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))


def basis_state(dims, index) -> StateVector:
    """The constructor on the computational basis state |index_0, index_1, ...>."""
    amps = np.zeros(tuple(dims), dtype=complex)
    amps[tuple(index)] = 1.0
    return StateVector(tuple(dims), amps.reshape(-1))


def random_state(rng, dims) -> StateVector:
    n = int(np.prod(dims))
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return unit_state(tuple(dims), amps)


def random_unitary(rng, dim) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so draws are well spread
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_pair() -> StateVector:
    return StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def schmidt_form_state(coeffs, left_dim, right_dim, rng=None) -> StateVector:
    """State with prescribed biorthogonal coefficients.

    Bases are random orthonormal sets when an rng is given, canonical
    coordinate vectors otherwise.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k = len(coeffs)
    assert k <= min(left_dim, right_dim)
    if rng is None:
        lb = np.eye(left_dim, dtype=complex)[:k]
        rb = np.eye(right_dim, dtype=complex)[:k]
    else:
        lb = random_unitary(rng, left_dim)[:k]
        rb = random_unitary(rng, right_dim)[:k]
    mat = (lb.T * coeffs) @ rb
    return unit_state((left_dim, right_dim), mat.reshape(-1))


def staircase(weights: WeightVector) -> tuple:
    """Coarse outcome index for each fine cell."""
    return tuple(k for k, m_k in enumerate(weights.m) for _ in range(m_k))


# the dense fine-grained build the counting route used to make, kept as the
# oracle for born.fine_values: an n x M x M array, SVD'd across (S, C) | E
def _staircase_terms(weights: WeightVector, phases):
    """(coarse k, cell j, amplitude) triples of the fine-grained state."""
    amp = 1.0 / math.sqrt(weights.M)
    return [(k, j, amp * np.exp(1j * phases[k]))
            for j, k in enumerate(staircase(weights))]


def fine_grain(weights: WeightVector, phases) -> StateVector:
    """Explicit fine-grained state, subsystem layout (S, E, C).

    Outcome k keeps its phase on all of its cells.  Cell j of outcome k
    carries amplitude e^{i phi_k}/sqrt(M) on |s_k>|e_j>|c_j>; re-cut as
    (S,C)|E the state is even.
    """
    n = len(weights.m)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError(f"need {n} phases, got {phases.shape}")
    big_m = weights.M
    require_dense(n * big_m * big_m, "dense fine-grained build")
    amps = np.zeros((n, big_m, big_m), dtype=complex)
    for k, j, a in _staircase_terms(weights, phases):
        amps[k, j, j] = a
    return StateVector((n, big_m, big_m), amps.reshape(-1))


# the dense two-register state the records route used to build, kept as the
# oracle for records.partition_support and the coarse marginals it stands for
def build_upsilon(tally, partition) -> StateVector:
    """Two-register state correlating coarse cells with fine outcomes.

    Cell c of the partition contributes sqrt(m_k / M) on |c>|k> for each of
    its outcomes k; an outcome with weight zero contributes no term, since
    there is no record of something that never happened.  Layout: (coarse,
    fine), coarse register first, cells in the order given.  The cells x
    outcomes amplitudes are checked against the dense budget before they
    are built (2,048 singleton cells fit the default budget).
    """
    weights = _weights_of(tally)
    n = len(weights)
    cells = list(partition)
    if not cells:
        raise ValueError("partition needs at least one cell")
    if any(cell.size != n for cell in cells):
        raise ValueError("partition cell universe does not match the outcomes")
    covered = set()
    for cell in cells:
        if covered & cell.members:
            raise ValueError("partition cells overlap")
        covered |= cell.members
    missing = sorted({k for k in range(n) if weights[k] > 0} - covered)
    if missing:
        raise ValueError(f"partition misses {len(missing)} outcomes, first {missing[:8]}")
    total = sum(weights)
    require_dense(len(cells) * n, "upsilon")
    amp = np.zeros((len(cells), n), dtype=complex)
    for c, cell in enumerate(cells):
        for k in cell.members:
            if weights[k] > 0:
                amp[c, k] = np.sqrt(weights[k] / total)
    return StateVector((len(cells), n), amp.reshape(-1))


# the dense reductions the schmidt and pointer routes used to make, kept as
# oracles: the reduced state behind hilbert.reduced_purity, and the
# conditional states behind pointer_score's decoherence-matrix scores
class OrthogonalOutcomeError(ValueError):
    """Projection weight below threshold: the outcome never occurs."""


def conditional_state(state: StateVector, subsystem: int, outcome) -> tuple:
    """Project one subsystem onto an outcome vector.

    Returns (weight, residual state of the remaining subsystems).  The weight
    is the projection norm; outcomes with weight below 1e-12 raise
    OrthogonalOutcomeError.
    """
    n = state.n_subsystems
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"subsystem {subsystem} out of range")
    if n < 2:
        raise ValueError("conditioning needs at least two subsystems")
    out = _as_complex_vector(outcome)
    if out.size != state.dims[subsystem]:
        raise ValueError("outcome dimension mismatch")
    nrm = np.linalg.norm(out)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError("outcome vector must be normalized")
    moved = np.moveaxis(state.tensor(), subsystem, 0)
    residual = np.tensordot(out.conj(), moved, axes=([0], [0]))
    weight = float(np.linalg.norm(residual))
    if weight < ZERO_PROJECTION_TOL:
        raise OrthogonalOutcomeError(
            f"projection weight {weight:g} below {ZERO_PROJECTION_TOL:g}"
        )
    dims = tuple(d for i, d in enumerate(state.dims) if i != subsystem)
    return weight, StateVector(dims, residual.reshape(-1) / weight)


def reduced_probe(state: StateVector, keep) -> np.ndarray:
    """Trace out everything but ``keep``.

    Validation-only oracle: results are cross-checked against Schmidt data in
    tests and never feed a derivation path.
    """
    mat, _, _ = _cut_matrix(state, Bipartition(tuple(keep)))
    rho = mat @ mat.conj().T
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"reduced state trace {tr!r} deviates from 1")
    return rho


# the K x K x L evolved state the pointer route used to build: a truth table
# records the system, the records couple to the environment, and the
# conditionals of the whole state are scored
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


def environment_state(spectrum: EnvSpectrum) -> StateVector:
    """Single-subsystem state sum_nu gamma_nu |e_nu>."""
    return StateVector((spectrum.n_levels,), spectrum.gamma)


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


def einselection_state(couplings: CouplingMatrix, spectrum: EnvSpectrum, amps,
                       t: float) -> StateVector:
    """The (K + 1, K, L) state einselection_run scores: ``amps`` premeasured
    onto the records, joined by the environment and evolved for t."""
    n_rec = couplings.n_records - 1
    premeasured = premeasure(StateVector((n_rec,), amps), TruthTable(np.eye(n_rec)),
                             n_rec + 1)
    return evolve(tensor_product([premeasured, environment_state(spectrum)]), 0, 2,
                  couplings, t)


def oracle_decoherence_factor(couplings: CouplingMatrix, spectrum: EnvSpectrum,
                              k: int, k_other: int, t: float) -> complex:
    """zeta_kk'(t) = sum_nu |gamma_nu|^2 e^{i (g_k'nu - g_knu) t} of one pair
    of coupling rows, at one time, refusing a pair whose phases overflow."""
    g = couplings.g
    for idx in (k, k_other):
        if idx < 0 or idx >= g.shape[0]:
            raise ValueError(f"record index {idx} out of range")
    if spectrum.n_levels != g.shape[1]:
        raise ValueError("spectrum level count does not match the couplings")
    weights = np.abs(spectrum.gamma) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite((g[k_other] - g[k]) * float(t)))
    if not finite:
        raise ValueError(f"coupling phases g*t are not finite at t={float(t)!r}")
    return complex(np.sum(weights * np.exp(1j * (g[k_other] - g[k]) * float(t))))


def branch_form_state(amps, env_rows) -> StateVector:
    """sum_k a_k |A_k>|s_k>|E_k>, layout (apparatus, system, environment).

    Record k sits on apparatus level k (level 0 is the ready level), the
    system vectors are coordinate vectors and row k - 1 of ``env_rows`` is
    E_k; its decoherence matrix is env_rows env_rows^dagger.
    """
    amps = np.asarray(amps, dtype=complex)
    env = np.asarray(env_rows, dtype=complex)
    tens = np.zeros((amps.size + 1, amps.size, env.shape[1]), dtype=complex)
    for k in range(amps.size):
        tens[k + 1, k] = amps[k] * env[k]
    return StateVector(tens.shape, tens.reshape(-1))


def conditionals(state: StateVector, apparatus: int):
    # the state as a (d, rest) matrix whose row a is <a| on the apparatus,
    # and the dimension of the first remaining subsystem, where each
    # conditional is cut
    dims = state.dims
    if len(dims) < 2 or not 0 <= apparatus < len(dims):
        raise ValueError(f"cannot condition subsystem {apparatus} of dims {dims}")
    psi = np.moveaxis(state.tensor(), apparatus, 0).reshape(dims[apparatus], -1)
    return psi, dims[1] if apparatus == 0 else dims[0]


def vector_scores(psi: np.ndarray, first: int, vectors: np.ndarray) -> np.ndarray:
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


def state_scores(state: StateVector, apparatus: int, bases: np.ndarray) -> np.ndarray:
    # scores (n, d) of a stack of candidate bases (n, d, d)
    psi, first = conditionals(state, apparatus)
    _require_orthonormal(bases, psi.shape[0])
    if len(state.dims) == 2:
        return np.zeros(bases.shape[:2])  # each conditional is a single-subsystem state
    return vector_scores(psi, first, bases)


def state_pointer_score(state: StateVector, apparatus: int, candidate_basis) -> PointerScore:
    """pointer_score read off the conditionals of a whole state.

    Each basis vector conditions the remaining subsystems; the normalized
    conditional is cut into (first remaining subsystem | rest) and scores
    1 - s_max^2.  Vectors with projection weight below the 1e-12 floor score
    0, as does every vector of a two-subsystem state, whose conditionals
    have no cut.
    """
    basis = np.asarray(candidate_basis, dtype=complex)
    return _as_score(state_scores(state, apparatus, basis[None])[0])


# the dense envariance machinery envlab.envariance used to run, kept as the
# oracle of its Schmidt-coordinate blocks: every u_s and counter is a d x d
# identity completion, applied to the whole state
def apply_local(state: StateVector, u: LocalUnitary) -> StateVector:
    """Apply a unitary on its target subsystems, identity elsewhere."""
    dims = state.dims
    n = len(dims)
    targets = list(u.targets)
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} subsystems")
    tdims = [dims[t] for t in targets]
    if math.prod(tdims) != u.matrix.shape[0]:
        raise ValueError(
            f"matrix dimension {u.matrix.shape[0]} does not match targets {targets}"
        )
    rest = [i for i in range(n) if i not in targets]
    perm = targets + rest
    tens = np.transpose(state.tensor(), perm).reshape(math.prod(tdims), -1)
    tens = u.matrix @ tens
    shuffled_dims = [dims[i] for i in perm]
    inv = np.argsort(perm)
    out = np.transpose(tens.reshape(shuffled_dims), inv).reshape(-1)
    return StateVector(dims, out)


def _completed(partial: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Extend an isometry defined on the span of ``rows`` by identity on its complement."""
    return partial + np.eye(rows.shape[1], dtype=complex) - rows.T @ rows.conj()


def _schmidt_phases(dec: SchmidtDecomposition, phases, basis, targets,
                    sign: int) -> LocalUnitary:
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (dec.n_terms,):
        raise ValueError(
            f"need {dec.n_terms} phases, got {phases.shape}"
        )
    partial = (basis.T * np.exp(sign * 1j * phases)) @ basis.conj()
    return LocalUnitary(targets, _completed(partial, basis))


def phase_unitary(dec: SchmidtDecomposition, phases) -> LocalUnitary:
    """System-side Schmidt-phase rotation sum e^{i phi_k}|s_k><s_k|."""
    return _schmidt_phases(dec, phases, dec.left_basis, dec.left_targets, 1)


def phase_counter(dec: SchmidtDecomposition, phases) -> LocalUnitary:
    """Environment unitary undoing the Schmidt-phase rotation sum e^{i phi_k}|s_k><s_k|."""
    return _schmidt_phases(dec, phases, dec.right_basis, dec.right_targets, -1)


def swap_unitary(spec: SwapSpec, basis, targets=(0,)) -> LocalUnitary:
    """Exchange basis[k] and basis[l] with phase e^{i phi}, identity elsewhere.

    ``basis`` holds one vector per row over the block addressed by ``targets``.
    """
    basis = np.asarray(basis, dtype=complex)
    if spec.k == spec.l:
        return LocalUnitary(targets, np.eye(basis.shape[1], dtype=complex))
    bk, bl = basis[spec.k], basis[spec.l]
    ph = np.exp(1j * spec.phase)
    mat = np.eye(basis.shape[1], dtype=complex)
    mat -= np.outer(bk, bk.conj()) + np.outer(bl, bl.conj())
    mat += ph * np.outer(bk, bl.conj()) + ph.conjugate() * np.outer(bl, bk.conj())
    return LocalUnitary(targets, mat)


def counterswap(dec: SchmidtDecomposition, spec: SwapSpec) -> LocalUnitary:
    """Environment exchange undoing swap_unitary on Schmidt terms k, l.

    The exchange phase combines phi_kl with the coefficient arguments so that
    for equal-modulus coefficients the composition restores the state exactly:
    the coefficient carried by |eps_k><eps_l| is e^{-i(phi_kl + arg a_l - arg a_k)}.
    """
    if not (0 <= spec.k < dec.n_terms and 0 <= spec.l < dec.n_terms):
        raise ValueError(
            f"swap indices ({spec.k}, {spec.l}) outside {dec.n_terms} Schmidt terms"
        )
    ak, al = dec.coeffs[spec.k], dec.coeffs[spec.l]
    if abs(ak) == 0 or abs(al) == 0:
        raise ValueError("counterswap needs nonzero coefficients at k and l")
    theta = spec.phase + np.angle(al) - np.angle(ak)
    return swap_unitary(SwapSpec(spec.k, spec.l, -theta), dec.right_basis, dec.right_targets)


def partial_swap_unitary(dec: SchmidtDecomposition, new_basis) -> LocalUnitary:
    """System-side rotation sending the spanned Schmidt vectors onto new_basis."""
    spanned, _ = _spanned_indices(dec, new_basis)
    nb = np.asarray(new_basis, dtype=complex)
    old = dec.left_basis[spanned]
    partial = nb.T @ old.conj()
    return LocalUnitary(dec.left_targets, _completed(partial, old))


def partial_swap_counter(dec: SchmidtDecomposition, new_basis) -> LocalUnitary:
    """Environment counter for partial_swap_unitary on an even subspace.

    Builds the rotated environment partners
    |eps~_l> = sum_k e^{i phi_k} <s~_l|s_k> |eps_k> and returns the unitary
    sending e^{i phi_k}|eps_k> to |eps~_k| over the spanned indices, identity
    on the complement.  Requires the spanned coefficients to share a modulus.
    """
    spanned, overlaps = _spanned_indices(dec, new_basis)
    overlaps = overlaps[:, spanned]
    mods = np.abs(np.asarray(dec.coeffs)[spanned])
    if (mods.max() - mods.min()) > EVEN_TOL * mods.max():
        raise ValueError(
            f"subspace is not even: modulus spread {mods.max() - mods.min():g}"
        )
    phases = np.exp(1j * np.angle(np.asarray(dec.coeffs)[spanned]))
    eps = dec.right_basis[spanned]
    eps_new = (overlaps * phases[None, :]) @ eps  # row l = |eps~_l>
    partial = eps_new.T @ (eps.conj() * phases.conj()[:, None])
    return LocalUnitary(dec.right_targets, _completed(partial, eps))


def _block_operator(u: LocalUnitary, left, left_dims) -> np.ndarray:
    """Matrix of u on the full ordered left block (identity off its targets).

    When u covers the whole block its matrix is used as it is, reordered
    only if its target order differs from the block's; the result may then
    be a read-only view of u.matrix.
    """
    pos = [left.index(t) for t in u.targets]
    rest = [p for p in range(len(left_dims)) if p not in pos]
    d = math.prod(left_dims)
    require_dense(d * d, "block operator")
    kron = u.matrix
    if rest:
        kron = np.kron(kron, np.eye(math.prod(left_dims[p] for p in rest)))
    shuffled = [left_dims[p] for p in pos + rest]
    inv = list(np.argsort(pos + rest))
    out = kron.reshape(shuffled * 2).transpose(inv + [len(inv) + i for i in inv])
    return out.reshape(d, d)


@dataclass(frozen=True)
class DenseVerdict:
    envariant: bool
    counter: object  # LocalUnitary or None
    residual_infidelity: float
    gram_deviation: float


def dense_verdict(dec: SchmidtDecomposition, u_s: LocalUnitary) -> DenseVerdict:
    """The envariance verdict read off the d x d block operator of u_s."""
    coeffs = np.asarray(dec.coeffs)
    block = _block_operator(u_s, list(dec.left_targets), dec.left_dims)
    overlap = dec.left_basis.conj() @ block @ dec.left_basis.T  # <s_j|u|s_k>
    ratios = coeffs[None, :] / coeffs[:, None]
    images = (overlap * ratios) @ dec.right_basis  # row j = |w_j>

    gram = images.conj() @ images.T
    gram_dev = float(np.max(np.abs(gram - np.eye(dec.n_terms))))

    weights = np.abs(coeffs) ** 2
    best_op = (images.T * weights) @ dec.right_basis.conj()
    best_overlap = float(np.sum(np.linalg.svd(best_op, compute_uv=False)))
    residual = max(0.0, 1.0 - best_overlap)

    if gram_dev > GRAM_TOL:
        return DenseVerdict(False, None, residual, gram_dev)

    # polish candidate images to exact orthonormality before completing
    uw, _, vhw = np.linalg.svd(images, full_matrices=False)
    polished = uw @ vhw
    partial = dec.right_basis.T @ polished.conj()
    counter = LocalUnitary(dec.right_targets, _completed(partial, polished))
    return DenseVerdict(True, counter, residual, gram_dev)


def dense_envcheck(state: StateVector, cut: Bipartition, *, unitary=None, phases=None,
                   basis=None) -> tuple:
    """(verdict, counter, overlap, restoration) with every operator dense."""
    dec = schmidt(state, cut)
    if unitary is not None:
        u_s = unitary
        verdict = dense_verdict(dec, u_s)
        counter = verdict.counter
    else:
        if phases is not None:
            u_s, counter = phase_unitary(dec, phases), phase_counter(dec, phases)
        else:
            u_s = partial_swap_unitary(dec, basis)
            counter = partial_swap_counter(dec, basis)
        verdict = dense_verdict(dec, u_s)
    moved = apply_local(state, u_s)
    restoration = fidelity(state, apply_local(moved, counter)) if counter is not None else 0.0
    return verdict, counter, fidelity(state, moved), restoration


def dense_protocol(state: StateVector, cut: Bipartition, spec: SwapSpec) -> tuple:
    """The confirm, swap and counterswap fidelities of the whole rotated states."""
    dec = schmidt(state, cut)
    swapped = apply_local(state, swap_unitary(spec, dec.left_basis, dec.left_targets))
    restored = apply_local(swapped, counterswap(dec, spec))
    return (("confirm", fidelity(state, state)), ("swap", fidelity(state, swapped)),
            ("counterswap", fidelity(state, restored)))


def dense_counter(counter, targets) -> LocalUnitary:
    """A BlockUnitary counter as the d x d LocalUnitary it stands for."""
    basis = counter.basis
    return LocalUnitary(targets, _completed(basis.T @ counter.block @ basis.conj(), basis))


def even_cut() -> Bipartition:
    """The (S, C) | E cut the fine-grained state is even across."""
    return Bipartition((0, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
