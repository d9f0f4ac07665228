"""Envariance: unitaries on one side of a cut undone from the other side.

A transformation u acting on the system half of an entangled state is
*envariant* when some counter-transformation on the environment half restores
the original state.  Everything is decided in Schmidt coordinates, on two
r x r blocks (r the Schmidt rank): the system block O_jk = <s_j|u|s_k> and
the counter block V_jk = <eps_j|v|eps_k>, each operator being the identity
off the Schmidt span.  Expanding u|s_k> in the Schmidt basis turns
(u x 1)|psi> into sum_j a_j |s_j>|w_j> with candidate environment images

    |w_j> = sum_k (a_k / a_j) O_jk |eps_k>,

and u is envariant exactly when {|w_j>} is orthonormal, in which case the
counter is the unitary sending each |w_j> back to |eps_j>.  The best
achievable restoration overlap over all environment unitaries equals the
nuclear norm of sum_j |a_j|^2 |w_j><eps_j|, which is what the reported
residual infidelity is computed from.  Fidelities are read off the blocks
too: <psi|u x v|psi> = sum_jk conj(a_j) a_k O_jk V_jk exactly, because <s_j|
projects out whatever u moves off the span.  No d x d operator and no
rotated state is built.  The swap/counterswap protocol needs no blocks: its
fidelities depend on the Schmidt moduli alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hilbert import (
    UNITARY_TOL,
    Bipartition,
    LocalUnitary,
    SchmidtDecomposition,
    StateVector,
    _unitarity_deviation,
    schmidt,
    schmidt_values,
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
class BlockUnitary:
    """The unitary 1 + basis^T (block - 1) basis^*: the r x r ``block`` on the
    span of the ``basis`` rows (right Schmidt vectors), the identity off it."""

    basis: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EnvarianceVerdict:
    """Whether u_s is envariant, the counter that was applied (the route's
    own counter, else the polar one, None when u_s is not envariant), the
    best restoration infidelity any environment unitary reaches, how far the
    candidate images are from orthonormal, and the fidelities
    |<psi|u_s|psi>| and |<psi|u_s x counter|psi>| (0 without a counter)."""

    envariant: bool
    counter: Optional[BlockUnitary]
    residual_infidelity: float
    gram_deviation: float
    overlap: float
    restoration: float


@dataclass(frozen=True)
class ProtocolTranscript:
    """Ordered fidelity checkpoints of the confirm/swap/counterswap sequence."""

    steps: tuple  # (label, fidelity) pairs
    restoration_failed: bool

    @property
    def final_fidelity(self) -> float:
        return self.steps[-1][1]


def _fidelity(coeffs, system, counter=None) -> float:
    """|<psi|u x v|psi>| from the system and counter blocks; v = 1 without one."""
    coeffs = np.asarray(coeffs)
    if counter is None:
        return float(abs(np.sum(np.abs(coeffs) ** 2 * np.diag(system))))
    return float(abs(coeffs.conj() @ (system * counter) @ coeffs))


def _spanned_indices(dec: SchmidtDecomposition, new_basis):
    """Schmidt indices whose left vectors span the same subspace as new_basis,
    and the overlaps <nb_i|s_k> with every left Schmidt vector."""
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
    return spanned, overlaps


def _partial_swap_blocks(dec: SchmidtDecomposition, new_basis) -> tuple:
    """System and counter blocks of the rotation of the spanned left Schmidt
    vectors onto new_basis, on an even subspace.

    The system block's spanned columns are <s_j|nb_i>.  The counter sends
    e^{i phi_k}|eps_k> to |eps~_k> = sum_l e^{i phi_l} <nb_k|s_l> |eps_l> over
    the spanned indices, and requires their coefficients to share a modulus.
    """
    spanned, overlaps = _spanned_indices(dec, new_basis)
    nb = np.asarray(new_basis, dtype=complex)
    old = dec.left_basis[spanned]
    system = np.eye(dec.n_terms, dtype=complex)
    system[:, spanned] = overlaps.conj().T
    # the rotation is unitary when new_basis stays in the span and the
    # system block is unitary
    dev = max(float(np.max(np.abs(nb - (nb @ old.conj().T) @ old))),
              float(_unitarity_deviation(system)))
    if dev > UNITARY_TOL:
        raise ValueError(f"matrix deviates from unitarity by {dev:g}")
    coeffs = np.asarray(dec.coeffs)[spanned]
    if not is_even(coeffs):
        mods = np.abs(coeffs)
        raise ValueError(f"subspace is not even: modulus spread {mods.max() - mods.min():g}")
    phases = np.exp(1j * np.angle(coeffs))
    counter = np.eye(dec.n_terms, dtype=complex)
    counter[np.ix_(spanned, spanned)] = (overlaps[:, spanned].T * phases[:, None]
                                         * phases.conj()[None, :])
    return system, counter


def _system_block(dec: SchmidtDecomposition, u: LocalUnitary) -> np.ndarray:
    """O_jk = <s_j|u|s_k>, u applied on its targets to the r left Schmidt vectors."""
    pos = [1 + list(dec.left_targets).index(t) for t in u.targets]
    front = range(1, len(pos) + 1)
    tens = np.moveaxis(dec.left_basis.reshape((dec.n_terms, *dec.left_dims)), pos, front)
    shape = tens.shape
    td = u.matrix.shape[0]
    if math.prod(shape[1:len(pos) + 1]) != td:
        raise ValueError(f"matrix dimension {td} does not match targets {list(u.targets)}")
    moved = (u.matrix @ tens.reshape(dec.n_terms, td, -1)).reshape(shape)
    moved = np.moveaxis(moved, front, pos).reshape(dec.n_terms, -1)
    return dec.left_basis.conj() @ moved.T


def check_envariance(state: StateVector, cut: Bipartition,
                     u_s: LocalUnitary) -> EnvarianceVerdict:
    """Decide envariance of a system-side unitary and construct its counter."""
    left, right = cut.sides(state.n_subsystems)
    if not set(u_s.targets) <= set(left):
        raise ValueError(f"unitary targets {u_s.targets} not on the left side {left}")
    dec = schmidt(state, cut)
    return _envariance_verdict(dec, _system_block(dec, u_s))


def _envariance_verdict(dec: SchmidtDecomposition, system: np.ndarray,
                        counter: np.ndarray = None) -> EnvarianceVerdict:
    """The verdict on u_s from dec's coefficients and u_s's system block,
    applying the given counter block, else the polar one when u_s is envariant."""
    coeffs = np.asarray(dec.coeffs)
    images = system * (coeffs[None, :] / coeffs[:, None])  # row j = |w_j> on the |eps_k>

    gram = images.conj() @ images.T
    gram_dev = float(np.max(np.abs(gram - np.eye(dec.n_terms))))

    weights = np.abs(coeffs) ** 2
    best_overlap = float(np.sum(np.linalg.svd(images.T * weights, compute_uv=False)))
    residual = max(0.0, 1.0 - best_overlap)
    overlap = _fidelity(coeffs, system)
    envariant = gram_dev <= GRAM_TOL

    if counter is None:
        if not envariant:
            return EnvarianceVerdict(False, None, residual, gram_dev, overlap, 0.0)
        # the polar factor of the images is exactly unitary; its conjugate is
        # the block of the counter sending each |w_j> back to |eps_j>
        uw, _, vhw = np.linalg.svd(images)
        counter = (uw @ vhw).conj()
    return EnvarianceVerdict(envariant, BlockUnitary(dec.right_basis, counter), residual,
                             gram_dev, overlap, _fidelity(coeffs, system, counter))


def envcheck_run(state: StateVector, cut: Bipartition, *, phases=None,
                 basis=None) -> EnvarianceVerdict:
    """Apply one system-side unitary, decide its envariance and undo it.

    Give Schmidt-term ``phases``, or the rows of a ``basis`` an even Schmidt
    subspace rotates onto.  One decomposition yields the system block and
    its analytic counter block; the verdict applies that counter, so its
    ``counter`` and ``restoration`` are the analytic ones.  A unitary on the
    left side is checked by ``check_envariance``, with the polar counter.
    """
    dec = schmidt(state, cut)
    if phases is not None:
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (dec.n_terms,):
            raise ValueError(f"need {dec.n_terms} phases, got {phases.shape}")
        system = np.diag(np.exp(1j * phases))
        counter = system.conj()
    else:
        system, counter = _partial_swap_blocks(dec, basis)
    return _envariance_verdict(dec, system, counter)


def protocol_run(state: StateVector, cut: Bipartition, spec: SwapSpec,
                 tol: float = 1e-12) -> ProtocolTranscript:
    """Confirm, swap two Schmidt terms, counterswap, and record fidelities.

    The counterswap exchanges |eps_k>, |eps_l> with the phase
    theta = phi_kl + arg a_l - arg a_k, which cancels the swap's phase and the
    coefficient arguments, so the fidelities depend on the Schmidt moduli only:
    sum_{j != k,l} |a_j|^2 after the swap, that plus 2 |a_k| |a_l| after the
    counterswap.  Restoration fails when the final fidelity is below 1 - tol.
    """
    mods = schmidt_values(state, cut)
    k, l = spec.k, spec.l
    if not (0 <= k < mods.size and 0 <= l < mods.size):
        raise ValueError(f"swap indices ({k}, {l}) outside {mods.size} Schmidt terms")
    swap = final = float(np.sum(mods ** 2))  # k == l: the swap is the identity
    if k != l:
        swap = float(np.sum(np.delete(mods, [k, l]) ** 2))
        final = swap + 2.0 * float(mods[k] * mods[l])
    steps = (("confirm", fidelity(state, state)), ("swap", swap), ("counterswap", final))
    return ProtocolTranscript(steps, restoration_failed=final < 1 - tol)


def is_even(dec) -> bool:
    """True when all nonzero moduli of dec.coeffs (or dec) agree within EVEN_TOL."""
    mods = np.abs(np.asarray(getattr(dec, "coeffs", dec)))
    mods = mods[mods > 0]
    if mods.size == 0:
        return False
    return float(mods.max() - mods.min()) <= EVEN_TOL * float(mods.max())
