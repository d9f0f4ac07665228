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
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-10
ZERO_PROJECTION_TOL = 1e-12
FILE_NORM_TOL = 1e-6
FILE_AMPLITUDE_BYTES = 54  # "[re, im], " in save_state's format, with 24-character reprs
FILE_HEADER_BYTES = 4096   # the dims, keys and braces around the amplitudes


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


def _unitarity_deviation(mat: np.ndarray) -> float:
    """max |U^dagger U - 1| over all entries.

    A monomial matrix (one nonzero per row and per column, e.g. a phased
    permutation) has a diagonal U^dagger U with entries |u_ij|^2, so its
    deviation is read off the nonzeros in O(d^2); any other matrix pays for
    the product.
    """
    nonzero = mat != 0
    if (np.all(np.count_nonzero(nonzero, axis=0) == 1)
            and np.all(np.count_nonzero(nonzero, axis=1) == 1)):
        entries = mat[nonzero]
        return np.max(np.abs(entries.real ** 2 + entries.imag ** 2 - 1.0))
    return np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary acting on an ordered subset of subsystems."""

    targets: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        targets = tuple(int(i) for i in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target subsystem")
        mat = np.array(self.matrix, dtype=complex)  # the one copy; callers keep theirs
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary matrix must be square")
        if not np.isfinite(mat).all():
            raise ValueError("unitary matrix entries must be finite")
        dev = _unitarity_deviation(mat)
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix deviates from unitarity by {dev:g}")
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


def _cut_matrix(state: StateVector, cut: Bipartition):
    """Amplitudes reshaped to (left block, right block)."""
    left, right = cut.sides(state.n_subsystems)
    dl = math.prod(state.dims[i] for i in left)
    tens = np.transpose(state.tensor(), left + right)
    return tens.reshape(dl, -1), left, right


def _canonical_group_basis(block: np.ndarray) -> np.ndarray:
    # Deterministic orthonormal basis of span(columns): project coordinate
    # vectors in index order and Gram-Schmidt, so degenerate groups never
    # inherit backend-dependent rotations.  The projection of e_i is
    # block @ conj(block[i]), so the work runs on the g-vectors
    # conj(block[i]) and only block @ q is d long: no d x d projector.  Each
    # is orthogonalized twice, so a nearly dependent one still leaves q
    # orthonormal.  A projection of norm <= 1e-9 cannot leave a residual
    # above the 1e-8 acceptance threshold, so only the others are visited.
    g = block.shape[1]
    q, k = np.zeros((g, g), dtype=block.dtype), 0
    for i in np.flatnonzero(np.linalg.norm(block, axis=1) > 1e-9):
        v = block[i].conj()
        for _ in range(2):
            v = v - q[:, :k] @ (q[:, :k].conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            q[:, k], k = v / nrm, k + 1
            if k == g:
                return block @ q
    raise ValueError("failed to span a degenerate coefficient group")


def _lead_phase(vec: np.ndarray):
    """The phase of the largest-magnitude entry (the first, on a tie)."""
    idx = int(np.argmax(np.abs(vec)))
    return vec[idx] / abs(vec[idx])


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
        u[:, k] = u[:, k] * _lead_phase(u[:, k]).conj()

    partners = u.conj().T @ mat            # row k = relative state of left vector k
    norms = np.linalg.norm(partners, axis=1)
    if canonicalize:
        coeffs = norms.astype(complex)
        right_basis = partners / norms[:, None]
    else:
        phases = np.array([_lead_phase(row) for row in partners], dtype=complex)
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
    """Schmidt coefficient moduli above zero_tol, nonincreasing; no bases.

    A partial-permutation cut (at most one nonzero per row and per column, as
    a fine-grained state has) is in Schmidt form up to phases and order, so
    its singular values are the moduli of its nonzeros; any other cut pays
    for the SVD.
    """
    mat, _, _ = _cut_matrix(state, cut)
    nonzero = mat != 0
    if (np.all(np.count_nonzero(nonzero, axis=0) <= 1)
            and np.all(np.count_nonzero(nonzero, axis=1) <= 1)):
        s = np.sort(np.abs(mat[nonzero]))[::-1]
    else:
        s = np.linalg.svd(mat, compute_uv=False)
    s = s[s > zero_tol]
    if s.size == 0:
        raise ValueError("state has no support above zero_tol")
    return s


def reconstruct(dec: SchmidtDecomposition) -> np.ndarray:
    """Amplitudes of the sum of a decomposition's terms, in the original subsystem
    order: the state it came from, unless zero_tol dropped terms."""
    mat = (dec.left_basis.T * np.asarray(dec.coeffs)) @ dec.right_basis
    perm = list(dec.left_targets) + list(dec.right_targets)
    dims_perm = list(dec.left_dims) + list(dec.right_dims)
    inv = np.argsort(perm)
    return np.transpose(mat.reshape(dims_perm), inv).reshape(-1)


def reduced_purity(state: StateVector, cut: Bipartition) -> float:
    """Purity Tr(rho^2) of either side's reduced state.

    Both sides share the nonzero spectrum of rho, so this is ||G||_F^2 for
    the Gram matrix G of the cut on its smaller side: at most as many
    entries as the state has amplitudes, whichever side is kept.
    """
    mat, _, _ = _cut_matrix(state, cut)
    gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    return float(np.linalg.norm(gram) ** 2)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for same-shaped states."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(abs(np.vdot(a.amps, b.amps)))


def save_state(state: StateVector, path) -> None:
    """Write a state file: dims plus [re, im] amplitude pairs."""
    doc = {"dims": list(state.dims), "amps": state.amps.view(float).reshape(-1, 2).tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def _load_matrix(path, dtype) -> np.ndarray:
    """Whitespace-separated text matrix, one row per line; empty is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns only on empty input
        mat = np.loadtxt(path, dtype=dtype, ndmin=2)
    if mat.size == 0:
        raise ValueError(f"no matrix entries in {path}")
    return mat


def load_state(state_file) -> StateVector:
    """Read a state file; rejects norm deviations beyond FILE_NORM_TOL.

    A file longer than the dense budget's amplitudes take in save_state's
    format is refused unread, and the amplitude count is checked against the
    budget before any amplitude is built.
    """
    from .born import DENSE_AMPLITUDE_CAP, DenseBudgetError, require_dense  # born imports us

    with open(state_file) as fh:
        size = os.fstat(fh.fileno()).st_size
        bound = FILE_AMPLITUDE_BYTES * DENSE_AMPLITUDE_CAP + FILE_HEADER_BYTES
        if size > bound:
            raise ValueError(f"state file {state_file} has {size} bytes, above the "
                             f"{bound} that {DENSE_AMPLITUDE_CAP} amplitudes take")
        doc = json.load(fh)
    try:
        dims = tuple(int(d) for d in doc["dims"])
        require_dense(len(doc["amps"]), "state file")
        amps = np.array([complex(re, im) for re, im in doc["amps"]])
    except DenseBudgetError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > FILE_NORM_TOL:
        raise ValueError(f"state file norm {nrm!r} deviates from 1 beyond {FILE_NORM_TOL}")
    if nrm > 0:  # false only for a NaN norm, which passes that check; StateVector refuses it
        amps = amps / nrm
    return StateVector(dims, amps)
