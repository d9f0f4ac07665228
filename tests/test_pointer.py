import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import envlab.pointer as pointer
from envlab.hilbert import Bipartition, StateVector, schmidt, tensor_product
from envlab.pointer import (
    CouplingMatrix,
    EnvSpectrum,
    commutator_norm,
    decoherence_matrix,
    find_pointer_basis,
    load_couplings,
    pointer_score,
)
from conftest import (OrthogonalOutcomeError, TruthTable, basis_state, branch_form_state,
                      conditional_state, einselection_state, environment_state, evolve,
                      oracle_decoherence_factor, premeasure, random_state, random_unitary,
                      state_pointer_score, state_scores, unit_state)


def coordinate_table(dim):
    return TruthTable(np.eye(dim))


def unit_rows(rng, n, levels):
    """n random unit-norm environment rows E_k."""
    rows = rng.normal(size=(n, levels)) + 1j * rng.normal(size=(n, levels))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def with_ready_level(basis):
    """A basis of the records alone, put on the apparatus beside its ready level."""
    basis = np.asarray(basis, dtype=complex)
    out = np.eye(basis.shape[0] + 1, dtype=complex)
    out[1:, 1:] = basis
    return out


# ----- truth tables and premeasurement: the dense oracle's recording -----

def test_truth_table_defaults():
    table = coordinate_table(3)
    assert table.n_outcomes == 3 and table.dim_system == 3
    assert np.array_equal(table.system_basis, np.eye(3))
    assert not table.system_basis.flags.writeable


def test_truth_table_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        TruthTable(2.0 * np.eye(3))                      # rows not unit
    with pytest.raises(ValueError, match="orthonormal"):
        TruthTable(np.array([[1.0, 0.0], [1.0, 1.0] / np.sqrt(2)]))  # not orthogonal
    with pytest.raises(ValueError):
        TruthTable(np.ones(3))                           # not one vector per row


def test_premeasure_eigenstate_is_product():
    table = coordinate_table(3)
    phi = basis_state((3,), (1,))
    out = premeasure(phi, table, 4)
    assert out.dims == (4, 3)
    # |s_1> -> |A_2>|s_1> under the default map k -> k+1
    assert np.allclose(out.amps, basis_state((4, 3), (2, 1)).amps)
    assert schmidt(out, Bipartition((0,))).n_terms == 1


def test_premeasure_superposition_entangles(rng):
    table = coordinate_table(3)
    phi = random_state(rng, (3,))
    out = premeasure(phi, table, 4)
    expect = np.zeros((4, 3), dtype=complex)
    for k in range(3):
        expect[k + 1, k] = phi.amps[k]
    assert np.allclose(out.amps, expect.reshape(-1), atol=1e-14)
    dec = schmidt(out, Bipartition((0,)))
    assert np.allclose(np.sort(np.abs(dec.coeffs)),
                       np.sort(np.abs(phi.amps)), atol=1e-12)


def test_premeasure_is_isometry(rng):
    basis = random_unitary(rng, 4)
    table = TruthTable(basis)
    for _ in range(10):
        phi, chi = random_state(rng, (4,)), random_state(rng, (4,))
        mphi = premeasure(phi, table, 5)
        mchi = premeasure(chi, table, 5)
        before = np.vdot(phi.amps, chi.amps)
        after = np.vdot(mphi.amps, mchi.amps)
        assert abs(before - after) < 1e-12


def test_premeasure_apparatus_too_small():
    table = coordinate_table(3)
    phi = basis_state((3,), (0,))
    with pytest.raises(ValueError, match="apparatus too small"):
        premeasure(phi, table, 3)  # 3 outcomes + ready need 4 levels


def test_premeasure_requires_span():
    table = TruthTable(np.eye(3)[:2])
    inside = unit_state((3,), [1.0, 1.0, 0.0])
    out = premeasure(inside, table, 3)
    assert out.dims == (3, 3)
    outside = unit_state((3,), [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        premeasure(outside, table, 3)


def test_premeasure_rejects_nonorthonormal_basis():
    # a non-orthogonal basis has no truth table, so there is nothing to record
    rows = np.array([[1.0, 0.0], [1.0, 1.0] / np.sqrt(2)])
    phi = basis_state((2,), (0,))
    with pytest.raises(ValueError, match="orthonormal"):
        premeasure(phi, TruthTable(rows), 3)


def test_premeasure_leaves_the_system_in_the_recorded_state():
    # records of |s_1>, |s_2> live on levels 1, 2: each record level keeps
    # its system vector, so the two branches stay entangled
    table = TruthTable(np.eye(3)[1:3])
    phi = unit_state((3,), [0.0, 1.0, 1.0])
    out = premeasure(phi, table, 3)
    expect = (np.kron(np.eye(3)[1], np.eye(3)[1])
              + np.kron(np.eye(3)[2], np.eye(3)[2])) / np.sqrt(2)
    assert np.allclose(out.amps, expect, atol=1e-14)
    assert schmidt(out, Bipartition((0,))).n_terms == 2


# ----- coupling evolution (the dense oracle's) and the decoherence factor -----

def test_evolve_zero_time_is_identity(rng):
    state = random_state(rng, (3, 2, 4))
    g = CouplingMatrix(rng.normal(size=(3, 4)))
    out = evolve(state, 0, 2, g, 0.0)
    assert np.array_equal(out.amps, state.amps)


def test_evolve_matches_direct_phase_table(rng):
    state = random_state(rng, (3, 2, 4))
    g = rng.normal(size=(3, 4))
    t = 0.7
    out = evolve(state, 0, 2, CouplingMatrix(g), t)
    expect = state.tensor() * np.exp(-1j * g * t)[:, None, :]
    assert np.allclose(out.amps, expect.reshape(-1), atol=1e-14)
    # same physics with permuted subsystem roles
    state2 = random_state(rng, (4, 2, 3))
    out2 = evolve(state2, 2, 0, CouplingMatrix(g), t)
    expect2 = np.moveaxis(
        np.moveaxis(state2.tensor(), (2, 0), (0, 1)) * np.exp(-1j * g * t)[:, :, None],
        (0, 1), (2, 0))
    assert np.allclose(out2.amps, expect2.reshape(-1), atol=1e-14)


def test_evolve_validation_and_norm(rng):
    state = random_state(rng, (3, 2, 4))
    with pytest.raises(ValueError):
        evolve(state, 0, 0, CouplingMatrix(np.zeros((3, 3))), 1.0)
    with pytest.raises(ValueError):
        evolve(state, 0, 2, CouplingMatrix(np.zeros((3, 3))), 1.0)
    out = evolve(state, 0, 2, CouplingMatrix(rng.normal(size=(3, 4))), 11.3)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_evolve_single_environment_level(rng):
    # one level: every branch only picks up a global phase, so all the
    # pairwise environment overlaps keep modulus 1 and nothing decoheres
    c = random_state(rng, (2,)).amps
    state = branch_form_state(c, np.ones((2, 1)))
    g = CouplingMatrix(np.array([[0.3], [1.1], [2.0]]))
    out = evolve(state, 0, 2, g, 5.0)
    assert np.allclose(np.abs(out.amps), np.abs(state.amps), atol=1e-14)
    spectrum = EnvSpectrum(np.array([1.0]))
    zeta = decoherence_matrix(g, spectrum, 5.0)
    assert np.all(np.abs(np.abs(zeta) - 1.0) < 1e-12)
    score = pointer_score(c, zeta, random_unitary(rng, 3))
    assert score.max_score <= 1e-10


def test_decoherence_factor_trivial_cases(rng):
    # zeta_kl is 1 at t = 0 and on the diagonal, at one time or a sweep
    g = CouplingMatrix(rng.normal(size=(4, 8)))
    spectrum = EnvSpectrum.uniform(8)
    assert np.all(np.abs(decoherence_matrix(g, spectrum, 0.0) - 1.0) < 1e-12)
    sweep = decoherence_matrix(g, spectrum, np.linspace(0.0, 10.0, 7))
    assert sweep.shape == (7, 3, 3)
    assert np.all(np.abs(np.diagonal(sweep, axis1=1, axis2=2) - 1.0) < 1e-12)
    with pytest.raises(ValueError):
        decoherence_matrix(g, EnvSpectrum.uniform(5), 1.0)


def test_decoherence_factor_two_level_cancellation():
    spectrum = EnvSpectrum(np.sqrt([0.5, 0.5]))
    g = CouplingMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, np.pi]]))
    z = decoherence_matrix(g, spectrum, 1.0)[0, 1]
    direct = 0.5 * (np.exp(1j * 0.0) + np.exp(1j * np.pi))
    assert abs(z - direct) < 1e-15
    assert abs(z) < 1e-12


def test_decoherence_factor_decays_to_plateau():
    # 32 uniform levels: |zeta| starts at 1, decays, then fluctuates on the
    # 1/sqrt(32) scale; the plateau magnitude is measured, not derived
    rng = np.random.default_rng(7)
    records = rng.uniform(0.0, 2.0 * np.pi, size=(2, 32))
    g = CouplingMatrix(np.vstack([np.zeros(32), records]))
    spectrum = EnvSpectrum.uniform(32)
    early = np.abs(decoherence_matrix(g, spectrum, np.linspace(0.0, 10.0, 101))[:, 0, 1])
    assert abs(early[0] - 1.0) < 1e-12 and np.all(early <= 1.0 + 1e-12)
    plateau = np.abs(decoherence_matrix(g, spectrum, np.linspace(50.0, 500.0, 61))[:, 0, 1])
    scale = 1.0 / math.sqrt(32)
    assert 0.3 * scale < np.mean(plateau) < 3.0 * scale


def test_modulus_stays_one_iff_rows_differ_by_offset(rng):
    base = rng.normal(size=6)
    offset = CouplingMatrix(np.stack([np.zeros(6), base, base + 0.7]))
    spectrum = EnvSpectrum.uniform(6)
    ts = np.linspace(0.0, 10.0, 41)
    assert np.all(np.abs(np.abs(decoherence_matrix(offset, spectrum, ts)[:, 0, 1]) - 1.0) < 1e-12)
    skewed = CouplingMatrix(np.stack([np.zeros(6), base, base + rng.normal(size=6)]))
    dips = np.abs(decoherence_matrix(skewed, spectrum, ts)[:, 0, 1])
    assert min(dips) < 1.0 - 1e-6


# ----- pointer scores -----

def test_pointer_score_truth_basis_is_zero(rng):
    # orthogonal environment branches: Z is the identity
    c = random_state(rng, (4,)).amps
    score = pointer_score(c, np.eye(4), np.eye(5))
    assert len(score.per_outcome) == 5
    assert score.max_score <= 1e-10


def test_pointer_score_fourier_basis_even_state():
    n = 4
    grid = np.arange(n)
    fourier = with_ready_level(np.exp(2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n))
    score = pointer_score(np.full(n, 0.5), np.eye(n), fourier)
    # the ready level reads no branch; every Fourier vector's conditional has
    # n equal Schmidt weights -> 1 - 1/n
    assert score.per_outcome[0] == 0.0
    for s in score.per_outcome[1:]:
        assert abs(s - (1.0 - 1.0 / n)) < 1e-10
    state = branch_form_state(np.full(n, 0.5), np.eye(n))
    _, residual = conditional_state(state, 0, fourier[2])
    svals = np.linalg.svd(residual.amps.reshape(n, n), compute_uv=False)
    assert abs(max(svals) ** 2 - 1.0 / n) < 1e-12


def test_pointer_score_uncorrelated_environment(rng):
    # every branch meets the same environment state, so every entry of Z is
    # 1 and every conditional is a product
    phi = random_state(rng, (3,))
    env = np.repeat(unit_rows(rng, 1, 5), 3, axis=0)
    zeta = env @ env.conj().T
    for _ in range(3):
        basis = random_unitary(rng, 4)
        assert pointer_score(phi.amps, zeta, basis).max_score <= 1e-10


def test_pointer_score_rejects_bad_basis(rng):
    amps = random_state(rng, (2,)).amps
    with pytest.raises(ValueError):
        pointer_score(amps, np.eye(2), 0.9 * np.eye(3))
    with pytest.raises(ValueError):
        pointer_score(amps, np.eye(2), np.eye(4))
    nearly = random_unitary(rng, 3).T
    nearly[2] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not orthonormal"):
        pointer_score(amps, np.eye(2), nearly)
    with pytest.raises(ValueError, match="decoherence matrix must be 2 x 2"):
        pointer_score(amps, np.eye(3), np.eye(3))
    for flat in (np.zeros(0), np.eye(2)[:1]):
        with pytest.raises(ValueError, match="branch amplitudes must be a flat nonempty vector"):
            pointer_score(flat, np.eye(1), np.eye(2))


def test_descent_stops_once_every_start_has_converged():
    # the coordinate basis of perfectly decohered records scores 0 from the
    # start, so the first sweep leaves no start to descend; another sweep
    # would rotate an empty stack
    amps, zeta = np.array([0.6, 0.8], dtype=complex), np.eye(2, dtype=complex)
    starts = np.eye(3, dtype=complex)[None]
    scores = pointer._zeta_scores(amps, zeta, starts)
    bases, values = pointer._descend(amps, zeta, starts, scores, iterations=4)
    assert values == [0.0]
    assert np.array_equal(bases, starts)


def test_pointer_score_skips_empty_levels():
    # the ready level and the record of a zero amplitude read no branch
    score = pointer_score([0.6, 0.0, 0.8], np.ones((3, 3)), np.eye(4))
    assert score.per_outcome[0] == score.per_outcome[2] == 0.0
    assert len(score.per_outcome) == 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), t=st.floats(0.05, 10.0))
def test_pointer_score_two_branch_dichotomy(seed, t):
    # truth basis stays at zero for every coupling and time; a basis rotated
    # inside the branch pair scores positive exactly when |zeta| < 1, and the
    # value matches the closed form from the 2x2 conditional Gram matrix
    rng = np.random.default_rng(seed)
    g = CouplingMatrix(rng.uniform(0.0, 2.0 * np.pi, size=(3, 8)))
    gamma = rng.normal(size=8) + 1j * rng.normal(size=8)
    spectrum = EnvSpectrum(gamma / np.linalg.norm(gamma))
    c = np.array([0.35, 0.0]) + 0.0j
    c[1] = math.sqrt(1.0 - abs(c[0]) ** 2)
    zeta_matrix = decoherence_matrix(g, spectrum, t)

    truth = pointer_score(c, zeta_matrix, np.eye(3))
    assert truth.max_score <= 1e-10

    theta = 0.3
    rot = with_ready_level([[math.cos(theta), math.sin(theta)],
                            [-math.sin(theta), math.cos(theta)]])
    score = pointer_score(c, zeta_matrix, rot)
    zeta = oracle_decoherence_factor(g, spectrum, 1, 2, t)
    for l in (1, 2):
        w1 = abs(c[0] * rot[l, 1]) ** 2
        w2 = abs(c[1] * rot[l, 2]) ** 2
        total = w1 + w2
        lam_sq = 0.5 * (1.0 + math.sqrt(max(
            0.0, 1.0 - 4.0 * w1 * w2 * (1.0 - abs(zeta) ** 2) / total ** 2)))
        assert abs(score.per_outcome[l] - (1.0 - lam_sq)) < 1e-9
    if abs(zeta) < 1.0 - 1e-6:
        assert score.max_score > 0.0


def reference_scores(state, apparatus, basis):
    """Per-vector oracle: conditional_state, then the top |coeff| of a full schmidt."""
    scores = []
    for row in basis:
        try:
            _, residual = conditional_state(state, apparatus, row)
        except OrthogonalOutcomeError:
            scores.append(0.0)
            continue
        if residual.n_subsystems == 1:
            scores.append(0.0)
            continue
        lam = float(np.max(np.abs(schmidt(residual, Bipartition((0,))).coeffs)))
        scores.append(min(1.0, max(0.0, 1.0 - lam * lam)))
    return scores


def cli_branches(seed, t):
    """What `pointer --search` scores: 3x4 seeded couplings, even records, at t;
    the amplitudes, the decoherence matrix and the dense state they stand for."""
    g = CouplingMatrix(np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (3, 4)))
    spectrum = EnvSpectrum.uniform(4)
    amps = np.full(2, 1.0 / math.sqrt(2), dtype=complex)
    return amps, decoherence_matrix(g, spectrum, t), einselection_state(g, spectrum, amps, t)


def assert_matches_oracle(got, state, apparatus, basis):
    want = reference_scores(state, apparatus, basis)
    assert np.allclose(got.per_outcome, want, rtol=0.0, atol=1e-12)
    assert abs(got.max_score - max(want)) <= 1e-12
    return got


def test_pointer_score_matches_oracle_on_cli_state(rng):
    amps, zeta, state = cli_branches(101, 1.5)
    assert_matches_oracle(pointer_score(amps, zeta, np.eye(3)), state, 0, np.eye(3))
    scores = []
    for _ in range(20):
        basis = random_unitary(rng, 3).T
        scores.append(assert_matches_oracle(pointer_score(amps, zeta, basis), state, 0,
                                            basis).max_score)
    assert max(scores) > 0.01  # premise: random bases see entangled conditionals


# generic states are outside pointer_score's branch form; the dense oracle
# that checks it is itself checked on them

def test_pointer_score_matches_oracle_four_subsystems(rng):
    state = random_state(rng, (3, 2, 2, 3))
    for apparatus in range(4):
        for _ in range(5):
            basis = random_unitary(rng, state.dims[apparatus]).T
            got = state_pointer_score(state, apparatus, basis)
            assert assert_matches_oracle(got, state, apparatus, basis).max_score > 0.0


def test_pointer_score_two_subsystems_scores_zero(rng):
    state = random_state(rng, (3, 4))
    for apparatus in (0, 1):
        basis = random_unitary(rng, state.dims[apparatus]).T
        got = assert_matches_oracle(state_pointer_score(state, apparatus, basis), state,
                                    apparatus, basis)
        assert got.per_outcome == (0.0,) * state.dims[apparatus]


def test_pointer_score_row_orthogonal_to_support(rng):
    # apparatus level 0 is never populated, so a basis keeping |0> as a row
    # has one vector below the projection floor
    phi = random_state(rng, (3,))
    g = CouplingMatrix(rng.normal(size=(4, 2)))
    spectrum = EnvSpectrum(random_state(rng, (2,)).amps)
    state = einselection_state(g, spectrum, phi.amps, 2.0)
    basis = with_ready_level(random_unitary(rng, 3).T)
    got = pointer_score(phi.amps, decoherence_matrix(g, spectrum, 2.0), basis)
    assert_matches_oracle(got, state, 0, basis)
    assert got.per_outcome[0] == 0.0
    assert got.max_score > 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n_rec=st.integers(1, 6), n_single=st.integers(0, 6),
       n_zero=st.integers(0, 5))
def test_zeta_scores_match_dense_oracle_with_single_branch_rows(seed, n_rec, n_single,
                                                                n_zero):
    # n_single basis rows read one record each (a phase times a coordinate
    # vector), the others mix the remaining records, and n_zero amplitudes
    # vanish, so mixed rows can read a single branch too; every single-branch
    # row scores exactly 0, with no eigvalsh call, and every row matches the
    # dense conditionals of sum_k a_k |A_k>|s_k>|E_k>
    rng = np.random.default_rng(seed)
    n_single, n_zero = min(n_single, n_rec), min(n_zero, n_rec - 1)
    amps = random_state(rng, (n_rec,)).amps.copy()
    amps[rng.permutation(n_rec)[:n_zero]] = 0.0
    amps /= np.linalg.norm(amps)
    env = unit_rows(rng, n_rec, 3)
    block = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_rec)))
    if n_single < n_rec:
        block[n_single:, n_single:] = random_unitary(rng, n_rec - n_single).T
    basis = with_ready_level(block[rng.permutation(n_rec)][:, rng.permutation(n_rec)])
    calls = []
    real = np.linalg.eigvalsh

    def counted(gram):
        calls.append(gram.shape[0])
        return real(gram)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", counted)
        got = np.array(pointer_score(amps, env @ env.conj().T, basis).per_outcome)
    want = state_scores(branch_form_state(amps, env), 0, basis[None])[0]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    branches = np.count_nonzero(basis[:, 1:].conj() * amps, axis=1)
    assert np.all(got[branches == 1] == 0.0)
    assert len(calls) == int(n_rec > 2 and np.any(branches > 1))  # two records: closed form


# ----- pointer-basis search -----

def test_find_pointer_basis_recovers_rotated_truth():
    # the coordinate start is the record basis itself, so recovery is checked
    # from the search's five seeded Haar starts alone, each a rotation away
    # from the records: the best descent must come back reading one record
    # per vector
    g = CouplingMatrix(np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, size=(3, 16)))
    spectrum = EnvSpectrum(np.full(16, 0.25))
    t = 6.0
    assert abs(oracle_decoherence_factor(g, spectrum, 1, 2, t)) < 0.3  # premise: well separated
    amps = np.array([math.sqrt(0.4), math.sqrt(0.6)], dtype=complex)
    zeta = decoherence_matrix(g, spectrum, t)
    haar = np.random.default_rng(17)
    starts = np.stack([pointer._haar_basis(haar, 3) for _ in range(5)])
    start_scores = pointer._zeta_scores(amps, zeta, starts)
    assert start_scores.max(axis=1).min() > 0.01  # premise: no start reads records yet

    bases, values = pointer._descend(amps, zeta, starts, start_scores, 48)
    basis = bases[values.index(min(values))]
    assert min(values) <= pointer_score(amps, zeta, np.eye(3)).max_score + 1e-6
    reads = np.abs(basis[:, 1:]) ** 2  # the weight each vector puts on records 1 and 2
    assert np.all(reads.min(axis=1) <= 1e-6 * reads.sum(axis=1))
    assert np.allclose(reads.sum(axis=0), 1.0, atol=1e-12)


def test_find_pointer_basis_product_state_flat(rng):
    # one record leaves the apparatus in a product with the rest, so every
    # basis scores zero
    basis, score = find_pointer_basis(random_state(rng, (1,)).amps, np.eye(1))
    assert score.degenerate_minimum
    assert score.max_score <= 1e-12
    assert np.allclose(basis, np.eye(2))


def test_find_pointer_basis_flat_when_branches_share_environment():
    # |zeta_12| = 1: the two environment branches coincide up to phase, so
    # every basis scores zero and no minimizer is distinguished
    eps = np.stack([np.eye(4)[0], 1j * np.eye(4)[0]])
    _, score = find_pointer_basis(np.sqrt([0.5, 0.5]), eps @ eps.conj().T)
    assert score.degenerate_minimum
    assert score.max_score <= 1e-12


def test_find_pointer_basis_svd_call_budget(monkeypatch, rng):
    # scores come from Gram eigenvalues, so no SVD runs; and each (i, j)
    # rotation bracket is one kernel call for every start at once, so neither
    # a per-trial nor a per-start loop can come back unnoticed: bound
    # 3 + iterations * d(d-1)/2
    calls = {"svd": 0, "eigvalsh": 0, "kernel": 0}

    def counted(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(pointer, "_zeta_scores", counted("kernel", pointer._zeta_scores))
    amps, zeta, _ = cli_branches(101, 1.5)
    _, score = find_pointer_basis(amps, zeta, iterations=48)
    assert not score.degenerate_minimum  # premise: the descent actually runs
    assert 0 < calls["kernel"] <= 3 + 48 * (3 * 2 // 2)
    assert calls["svd"] == calls["eigvalsh"] == 0  # two records: closed form
    amps = random_state(rng, (3,)).amps  # three records: eigvalsh
    env = unit_rows(rng, 3, 2)
    pointer_score(amps, env @ env.conj().T, random_unitary(rng, 4).T)
    find_pointer_basis(amps, env @ env.conj().T, iterations=2)
    assert calls["svd"] == 0 and calls["eigvalsh"] > 0


def test_find_pointer_basis_dimension_cap():
    with pytest.raises(ValueError, match="apparatus dimension 9 above desk scale"):
        find_pointer_basis(np.full(8, 1.0 / math.sqrt(8)), np.eye(8))


# ----- commutation with the coupling Hamiltonian -----

def test_commutator_norm_diagonal_observables(rng):
    g = CouplingMatrix(rng.normal(size=(4, 6)))
    lam = np.diag(rng.normal(size=4))
    assert commutator_norm(lam, g) <= 1e-12
    assert commutator_norm(np.eye(4), g) <= 1e-12


def dense_commutator_norm(lam, g):
    h = np.diag(g.reshape(-1))  # apparatus index slow, environment fast
    full = np.kron(lam, np.eye(g.shape[1]))
    return np.linalg.norm(full @ h - h @ full)


def test_commutator_norm_bitflip_direct():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = np.array([[0.2, 1.0], [0.9, -0.4]])
    got = commutator_norm(x, CouplingMatrix(g))
    assert abs(got - dense_commutator_norm(x, g)) < 1e-12
    assert abs(got - math.sqrt(2.0 * np.sum((g[0] - g[1]) ** 2))) < 1e-12
    assert got > 1.0
    # seeded random hermitian observables against the same dense oracle
    rng = np.random.default_rng(29)
    for k, n_levels in [(2, 3), (3, 1), (4, 5), (6, 2)]:
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        lam = (a + a.conj().T) / 2
        g = rng.normal(size=(k, n_levels))
        got = commutator_norm(lam, CouplingMatrix(g))
        assert abs(got - dense_commutator_norm(lam, g)) < 1e-12


@pytest.mark.parametrize("g_value, t", [(3.0, 1e308), (0.0, math.inf), (1e300, 1e10)])
def test_overflowing_coupling_phases_are_refused(g_value, t):
    # each used to reach the exp and return nan amplitudes with two warnings
    g = CouplingMatrix(np.array([[0.0, 0.0], [g_value, 0.0]]))
    spectrum = EnvSpectrum.uniform(2)
    state = tensor_product([StateVector((2,), np.array([1.0, 0.0])),
                            environment_state(spectrum)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coupling phases g\\*t are not finite"):
            decoherence_matrix(g, spectrum, t)
        with pytest.raises(ValueError, match="coupling phases g\\*t are not finite"):
            evolve(state, 0, 1, g, t)  # the dense oracle refuses it alike


@pytest.mark.parametrize("t", [1.0, np.linspace(0.0, 1.0, 3)], ids=["time", "times"])
def test_one_row_couplings_are_refused(t):
    # the ready level and no record: used to raise ZeroDivisionError while
    # sizing the level chunks
    with pytest.raises(ValueError, match="^couplings need at least two rows: ready level "
                                         "plus records$"):
        decoherence_matrix(CouplingMatrix(np.zeros((1, 3))), EnvSpectrum.uniform(3), t)


def test_einselection_run_holds_no_pairs_by_levels_array():
    # 99 records of 3,000 levels: the sweep's phase check used to subtract
    # every record pair's couplings at once, 4,851 x 3,000 floats (111 MiB),
    # and commutator_norm every pair of rows, 100 x 100 x 3,000 complex
    # values (458 MiB), both past the dense budget and unchecked; the
    # decoherence matrix is 9,801 amplitudes
    g = CouplingMatrix(np.zeros((100, 3000)))
    tracemalloc.start()
    try:
        run = pointer.einselection_run(g, EnvSpectrum.uniform(3000), 1.0, 0.0, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.truth.max_score <= 1e-12 and len(run.sweep[0]) == 1 + 3 * 4851
    assert peak < 16 << 20


def test_commutator_norm_validation(rng):
    g = CouplingMatrix(rng.normal(size=(3, 4)))
    with pytest.raises(ValueError):
        commutator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), g)  # not hermitian
    with pytest.raises(ValueError):
        commutator_norm(np.eye(2), g)  # dimension mismatch
    with pytest.raises(ValueError):
        commutator_norm(np.ones((2, 3)), g)


# ----- supporting types and file input -----

def test_coupling_and_spectrum_types():
    with pytest.raises(ValueError):
        CouplingMatrix(np.ones(3))
    with pytest.raises(ValueError):
        CouplingMatrix(np.array([[1.0, np.inf]]))
    g = CouplingMatrix(np.ones((2, 5)))
    assert g.n_records == 2 and g.n_levels == 5
    with pytest.raises(ValueError):
        EnvSpectrum(np.array([1.0, 1.0]))
    for flat in (np.zeros(0), np.eye(2)[:1]):
        with pytest.raises(ValueError, match="spectrum must be a flat nonempty vector"):
            EnvSpectrum(flat)
    spectrum = EnvSpectrum.uniform(8)
    assert spectrum.n_levels == 8
    env = environment_state(spectrum)
    assert env.dims == (8,)
    assert abs(np.linalg.norm(env.amps) - 1.0) < 1e-12


def test_load_couplings(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0.0 1.0\n2.5 -3.0\n")
    g = load_couplings(path)
    assert np.allclose(g.g, [[0.0, 1.0], [2.5, -3.0]])
    single = tmp_path / "row.txt"
    single.write_text("1 2 3\n")
    assert load_couplings(single).g.shape == (1, 3)
