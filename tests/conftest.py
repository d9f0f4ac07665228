import math

import numpy as np
import pytest

from envlab.born import WeightVector, require_dense
from envlab.hilbert import Bipartition, StateVector
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


def even_cut() -> Bipartition:
    """The (S, C) | E cut the fine-grained state is even across."""
    return Bipartition((0, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
