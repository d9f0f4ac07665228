"""Envariance: unitaries on one side of a cut undone from the other side.

A transformation u acting on the system half of an entangled state is
*envariant* when some counter-transformation on the environment half restores
the original state.  The decision procedure is constructive: expanding
u|s_k> in the Schmidt basis turns (u x 1)|psi> into sum_j a_j |s_j>|w_j> with
candidate environment images

    |w_j> = sum_k (a_k / a_j) <s_j|u|s_k> |eps_k>,

and u is envariant exactly when {|w_j>} is orthonormal, in which case the
counter is the unitary sending each |w_j> back to |eps_j>.  The best
achievable restoration overlap over all environment unitaries equals the
nuclear norm of sum_j |a_j|^2 |w_j><eps_j|, which is what the reported
residual infidelity is computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import (
    Bipartition,
    LocalUnitary,
    SchmidtDecomposition,
    StateVector,
    apply_local,
    schmidt,
    fidelity,
)

GRAM_TOL = 1e-8
EVEN_TOL = 1e-9
SPAN_TOL = 1e-7


@dataclass(frozen=True)
class SwapSpec:
    """Pairwise exchange of Schmidt terms k and l with exchange phase."""

    k: int
    l: int
    phase: float = 0.0


@dataclass(frozen=True)
class EnvarianceVerdict:
    envariant: bool
    counter: Optional[LocalUnitary]
    residual_infidelity: float
    gram_deviation: float = 0.0


@dataclass(frozen=True)
class ProtocolTranscript:
    """Ordered fidelity checkpoints of the confirm/swap/counterswap sequence."""

    steps: tuple  # (label, fidelity) pairs
    restoration_failed: bool

    @property
    def final_fidelity(self) -> float:
        return self.steps[-1][1]


def _completed(partial: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """Extend an isometry defined on a subspace by identity on its complement."""
    return partial + np.eye(projector.shape[0], dtype=complex) - projector


def phase_counter(dec: SchmidtDecomposition, phases) -> LocalUnitary:
    """Environment unitary undoing the Schmidt-phase rotation sum e^{i phi_k}|s_k><s_k|."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (dec.n_terms,):
        raise ValueError(
            f"need {dec.n_terms} phases, got {phases.shape}"
        )
    eps = dec.right_basis
    proj = eps.T @ eps.conj()
    partial = (eps.T * np.exp(-1j * phases)) @ eps.conj()
    return LocalUnitary(dec.right_targets, _completed(partial, proj))


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
    if spec.k == spec.l:
        return LocalUnitary(
            dec.right_targets, np.eye(dec.right_basis.shape[1], dtype=complex)
        )
    if not (0 <= spec.k < dec.n_terms and 0 <= spec.l < dec.n_terms):
        raise ValueError(
            f"swap indices ({spec.k}, {spec.l}) outside {dec.n_terms} Schmidt terms"
        )
    ak, al = dec.coeffs[spec.k], dec.coeffs[spec.l]
    if abs(ak) == 0 or abs(al) == 0:
        raise ValueError("counterswap needs nonzero coefficients at k and l")
    theta = spec.phase + np.angle(al) - np.angle(ak)
    ek, el = dec.right_basis[spec.k], dec.right_basis[spec.l]
    mat = np.eye(dec.right_basis.shape[1], dtype=complex)
    mat -= np.outer(ek, ek.conj()) + np.outer(el, el.conj())
    mat += np.exp(-1j * theta) * np.outer(ek, el.conj())
    mat += np.exp(1j * theta) * np.outer(el, ek.conj())
    return LocalUnitary(dec.right_targets, mat)


def partial_swap_unitary(dec: SchmidtDecomposition, new_basis) -> LocalUnitary:
    """System-side rotation sending the spanned Schmidt vectors onto new_basis."""
    spanned, _ = _spanned_indices(dec, new_basis)
    nb = np.asarray(new_basis, dtype=complex)
    old = dec.left_basis[spanned]
    partial = nb.T @ old.conj()
    proj = old.T @ old.conj()
    return LocalUnitary(dec.left_targets, _completed(partial, proj))


def partial_swap_counter(dec: SchmidtDecomposition, new_basis) -> LocalUnitary:
    """Environment counter for partial_swap_unitary on an even subspace.

    Builds the rotated environment partners
    |eps~_l> = sum_k e^{i phi_k} <s~_l|s_k> |eps_k> and returns the unitary
    sending e^{i phi_k}|eps_k> to |eps~_k| over the spanned indices, identity
    on the complement.  Requires the spanned coefficients to share a modulus.
    """
    spanned, overlaps = _spanned_indices(dec, new_basis)
    mods = np.abs(np.asarray(dec.coeffs)[spanned])
    if (mods.max() - mods.min()) > EVEN_TOL * mods.max():
        raise ValueError(
            f"subspace is not even: modulus spread {mods.max() - mods.min():g}"
        )
    phases = np.exp(1j * np.angle(np.asarray(dec.coeffs)[spanned]))
    eps = dec.right_basis[spanned]
    eps_new = (overlaps * phases[None, :]) @ eps  # row l = |eps~_l>
    partial = eps_new.T @ (eps.conj() * phases.conj()[:, None])
    proj = eps.T @ eps.conj()
    return LocalUnitary(dec.right_targets, _completed(partial, proj))


def _spanned_indices(dec: SchmidtDecomposition, new_basis):
    """Schmidt indices whose left vectors span the same subspace as new_basis."""
    nb = np.asarray(new_basis, dtype=complex)
    if nb.ndim != 2 or nb.shape[1] != dec.left_basis.shape[1]:
        raise ValueError("new_basis must be rows over the left block")
    gram = nb.conj() @ nb.T
    if np.max(np.abs(gram - np.eye(len(nb)))) > 1e-9:
        raise ValueError("new_basis is not orthonormal")
    overlaps = nb.conj() @ dec.left_basis.T  # (len(nb), n_terms)
    inside = np.linalg.norm(overlaps, axis=0) ** 2
    spanned = [k for k in range(dec.n_terms) if inside[k] > 1 - SPAN_TOL]
    outside = [k for k in range(dec.n_terms) if SPAN_TOL < inside[k] <= 1 - SPAN_TOL]
    if outside or len(spanned) != len(nb):
        raise ValueError("new_basis does not align with a subset of Schmidt vectors")
    return spanned, overlaps[:, spanned]


def _block_operator(u: LocalUnitary, left, left_dims) -> np.ndarray:
    """Matrix of u on the full ordered left block (identity off its targets)."""
    pos = [left.index(t) for t in u.targets]
    dims = list(left_dims)
    d = math.prod(dims)
    td = math.prod(dims[p] for p in pos)
    tens = np.eye(d, dtype=complex).reshape(dims + [d])
    moved = np.moveaxis(tens, pos, range(len(pos)))
    shape = moved.shape
    out = (u.matrix @ moved.reshape(td, -1)).reshape(shape)
    return np.moveaxis(out, range(len(pos)), pos).reshape(d, d)


def check_envariance(state: StateVector, cut: Bipartition, u_s: LocalUnitary,
                     tol: float = GRAM_TOL) -> EnvarianceVerdict:
    """Decide envariance of a system-side unitary and construct its counter."""
    left, right = cut.sides(state.n_subsystems)
    if not set(u_s.targets) <= set(left):
        raise ValueError(f"unitary targets {u_s.targets} not on the left side {left}")
    dec = schmidt(state, cut)
    coeffs = np.asarray(dec.coeffs)
    block = _block_operator(u_s, list(left), dec.left_dims)
    overlap = dec.left_basis.conj() @ block @ dec.left_basis.T  # <s_j|u|s_k>
    ratios = coeffs[None, :] / coeffs[:, None]
    images = (overlap * ratios) @ dec.right_basis  # row j = |w_j>

    gram = images.conj() @ images.T
    gram_dev = float(np.max(np.abs(gram - np.eye(dec.n_terms))))

    weights = np.abs(coeffs) ** 2
    best_op = (images.T * weights) @ dec.right_basis.conj()
    best_overlap = float(np.sum(np.linalg.svd(best_op, compute_uv=False)))
    residual = max(0.0, 1.0 - best_overlap)

    if gram_dev > tol:
        return EnvarianceVerdict(False, None, residual, gram_dev)

    # polish candidate images to exact orthonormality before completing
    uw, _, vhw = np.linalg.svd(images, full_matrices=False)
    polished = uw @ vhw
    partial = dec.right_basis.T @ polished.conj()
    proj = polished.T @ polished.conj()
    counter = LocalUnitary(dec.right_targets, _completed(partial, proj))
    return EnvarianceVerdict(True, counter, residual, gram_dev)


def protocol_run(state: StateVector, cut: Bipartition, spec: SwapSpec) -> ProtocolTranscript:
    """Confirm, swap two Schmidt terms, counterswap, and record fidelities."""
    dec = schmidt(state, cut)
    if not (0 <= spec.k < dec.n_terms and 0 <= spec.l < dec.n_terms):
        raise ValueError(
            f"swap indices ({spec.k}, {spec.l}) outside {dec.n_terms} Schmidt terms"
        )
    steps = [("confirm", fidelity(state, state))]
    swapped = apply_local(
        state, swap_unitary(spec, dec.left_basis, targets=dec.left_targets)
    )
    steps.append(("swap", fidelity(state, swapped)))
    restored = apply_local(swapped, counterswap(dec, spec))
    final = fidelity(state, restored)
    steps.append(("counterswap", final))
    return ProtocolTranscript(tuple(steps), restoration_failed=final < 1 - 1e-12)


def is_even(dec, tol: float = EVEN_TOL) -> bool:
    """True when all nonzero moduli of dec.coeffs (or dec) agree within tol."""
    mods = np.abs(np.asarray(getattr(dec, "coeffs", dec)))
    mods = mods[mods > 0]
    if mods.size == 0:
        return False
    return float(mods.max() - mods.min()) <= tol * float(mods.max())
