"""Finite-dimensional composite states and Schmidt machinery.

Conventions used throughout the package:

* A composite state is a flat complex vector over the tensor product of its
  subsystems.  Subsystem 0 is the slowest-varying (most significant) index,
  i.e. ``amps.reshape(dims)`` places subsystem ``i`` on axis ``i``.
* Bases are stored as 2-d arrays with one vector per row.
* Pure-state vectors must be normalized to 1e-9 at construction; files are
  admitted up to a looser 1e-6 and renormalized on request by the caller.

Everything here is plain dense linear algebra.  Composite dimensions are
expected to stay below ~2**22 amplitudes; nothing is sparse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-10
ZERO_PROJECTION_TOL = 1e-12
FILE_NORM_TOL = 1e-6


class OrthogonalOutcomeError(ValueError):
    """Projection weight below threshold: the outcome never occurs."""


def _as_complex_vector(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("amplitudes must form a flat vector")
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of a composite system."""

    dims: tuple
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be a nonempty list of positive integers")
        arr = _as_complex_vector(self.amps)
        if arr.size != math.prod(dims):
            raise ValueError(
                f"amplitude count {arr.size} does not match dims {dims}"
            )
        nrm = float(np.linalg.norm(arr))
        if not math.isfinite(nrm):
            raise ValueError("amplitudes must be finite")
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def normalized(cls, dims, amps) -> "StateVector":
        """Construct after rescaling; rejects the zero vector."""
        arr = _as_complex_vector(amps)
        nrm = float(np.linalg.norm(arr))
        if nrm < ZERO_PROJECTION_TOL:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(tuple(dims), arr / nrm)

    @classmethod
    def basis(cls, dims, index) -> "StateVector":
        """Computational basis state |index_0, index_1, ...>."""
        dims = tuple(int(d) for d in dims)
        flat = int(np.ravel_multi_index(tuple(index), dims))
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[flat] = 1.0
        return cls(dims, amps)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class Bipartition:
    """System/environment cut: ``left`` holds the system-side subsystem indices."""

    left: tuple

    def __post_init__(self):
        left = tuple(sorted({int(i) for i in self.left}))
        if not left:
            raise ValueError("left side of a cut cannot be empty")
        object.__setattr__(self, "left", left)

    def sides(self, n_subsystems: int):
        """Return (left, right) index tuples for a system with n subsystems."""
        if any(i < 0 or i >= n_subsystems for i in self.left):
            raise ValueError(f"cut {self.left} out of range for {n_subsystems} subsystems")
        right = tuple(i for i in range(n_subsystems) if i not in self.left)
        if not right:
            raise ValueError("right side of a cut cannot be empty")
        return self.left, right


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting on an ordered subset of subsystems."""

    targets: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        targets = tuple(int(i) for i in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target subsystem")
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary matrix must be square")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix deviates from unitarity by {dev:g}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Biorthogonal expansion of a state across a cut.

    ``coeffs[k]`` multiplies ``left_basis[k] (x) right_basis[k]``; bases are
    row-per-vector over the ordered left/right subsystem blocks recorded in
    ``left_targets``/``right_targets``.
    """

    coeffs: np.ndarray
    left_basis: np.ndarray = field(repr=False)
    right_basis: np.ndarray = field(repr=False)
    left_targets: tuple = ()
    right_targets: tuple = ()
    left_dims: tuple = ()
    right_dims: tuple = ()

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def probabilities(self) -> np.ndarray:
        return np.abs(np.asarray(self.coeffs)) ** 2


def tensor_product(parts) -> StateVector:
    """Combine component states into one composite state."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor_product needs at least one component")
    amps = parts[0].amps
    dims = list(parts[0].dims)
    for p in parts[1:]:
        amps = np.kron(amps, p.amps)
        dims.extend(p.dims)
    return StateVector(tuple(dims), amps)


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


def _cut_matrix(state: StateVector, cut: Bipartition):
    """Amplitudes reshaped to (left block, right block)."""
    left, right = cut.sides(state.n_subsystems)
    dl = math.prod(state.dims[i] for i in left)
    tens = np.transpose(state.tensor(), left + right)
    return tens.reshape(dl, -1), left, right


def _canonical_group_basis(block: np.ndarray) -> np.ndarray:
    # Deterministic orthonormal basis of span(columns): project coordinate
    # vectors in index order and Gram-Schmidt, so degenerate groups never
    # inherit backend-dependent rotations.
    dim, g = block.shape
    proj = block @ block.conj().T
    cols = []
    for i in range(dim):
        v = proj[:, i].copy()
        for c in cols:
            v -= c * (c.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            cols.append(v / nrm)
        if len(cols) == g:
            break
    if len(cols) != g:
        raise ValueError("failed to span a degenerate coefficient group")
    return np.stack(cols, axis=1)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    ph = vec[idx] / abs(vec[idx])
    return vec * ph.conj()


def schmidt(state: StateVector, cut: Bipartition, zero_tol: float = 1e-12,
            canonicalize: bool = False) -> SchmidtDecomposition:
    """Biorthogonal decomposition across a cut.

    Coefficients come out ordered by nonincreasing modulus with terms of
    modulus <= zero_tol dropped.  Within a degenerate modulus group (relative
    spread 1e-9) the left basis is re-derived from coordinate projections so
    the result is deterministic; each left vector is then phase-fixed and the
    right partners are the relative environment states, phase-fixed the same
    way.  With ``canonicalize`` the coefficient phases are instead absorbed
    into the right basis, leaving every coefficient real nonnegative.
    """
    mat, left, right = _cut_matrix(state, cut)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    keep = s > zero_tol
    s, u = s[keep], u[:, keep]
    if s.size == 0:
        raise ValueError("state has no support above zero_tol")

    # group near-equal singular values, then rebuild each group's basis
    groups, start = [], 0
    for i in range(1, len(s)):
        if (s[start] - s[i]) > 1e-9 * s[start]:
            groups.append(range(start, i))
            start = i
    groups.append(range(start, len(s)))
    for g in groups:
        if len(g) > 1:
            u[:, g] = _canonical_group_basis(u[:, g])
    for k in range(u.shape[1]):
        u[:, k] = _fix_phase(u[:, k])

    partners = u.conj().T @ mat            # row k = relative state of left vector k
    norms = np.linalg.norm(partners, axis=1)
    if canonicalize:
        coeffs = norms.astype(complex)
        right_basis = partners / norms[:, None]
    else:
        phases = np.empty(len(norms), dtype=complex)
        for k in range(len(norms)):
            j = int(np.argmax(np.abs(partners[k])))
            phases[k] = partners[k, j] / abs(partners[k, j])
        coeffs = norms * phases
        right_basis = partners * phases.conj()[:, None] / norms[:, None]

    return SchmidtDecomposition(
        coeffs=coeffs,
        left_basis=u.T.copy(),
        right_basis=right_basis,
        left_targets=left,
        right_targets=right,
        left_dims=tuple(state.dims[i] for i in left),
        right_dims=tuple(state.dims[i] for i in right),
    )


def schmidt_values(state: StateVector, cut: Bipartition,
                   zero_tol: float = 1e-12) -> np.ndarray:
    """Schmidt coefficient moduli above zero_tol, nonincreasing; no bases."""
    mat, _, _ = _cut_matrix(state, cut)
    s = np.linalg.svd(mat, compute_uv=False)
    s = s[s > zero_tol]
    if s.size == 0:
        raise ValueError("state has no support above zero_tol")
    return s


def reconstruct(dec: SchmidtDecomposition) -> StateVector:
    """Reassemble the state a decomposition came from (original subsystem order)."""
    mat = (dec.left_basis.T * np.asarray(dec.coeffs)) @ dec.right_basis
    perm = list(dec.left_targets) + list(dec.right_targets)
    dims_perm = list(dec.left_dims) + list(dec.right_dims)
    inv = np.argsort(perm)
    tens = np.transpose(mat.reshape(dims_perm), inv)
    dims = [0] * len(perm)
    for pos, idx in enumerate(perm):
        dims[idx] = dims_perm[pos]
    return StateVector(tuple(dims), tens.reshape(-1))


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


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for same-shaped states."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(abs(np.vdot(a.amps, b.amps)))


def save_state(state: StateVector, path) -> None:
    """Write a state file: dims plus [re, im] amplitude pairs."""
    doc = {
        "dims": list(state.dims),
        "amps": [[float(z.real), float(z.imag)] for z in state.amps],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_state(state_file, norm_tol: float = FILE_NORM_TOL) -> StateVector:
    """Read a state file; rejects norm deviations beyond norm_tol."""
    if hasattr(state_file, "read"):
        doc = json.load(state_file)
    else:
        with open(state_file) as fh:
            doc = json.load(fh)
    try:
        dims = tuple(int(d) for d in doc["dims"])
        amps = np.array([complex(re, im) for re, im in doc["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"state file norm {nrm!r} deviates from 1 beyond {norm_tol}")
    if nrm > 0:
        amps = amps / nrm
    return StateVector(dims, amps)
