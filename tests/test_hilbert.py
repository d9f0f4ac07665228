
import json

import numpy as np
import pytest

from envlab.hilbert import (
    Bipartition,
    LocalUnitary,
    StateVector,
    fidelity,
    load_state,
    reconstruct,
    reduced_purity,
    save_state,
    schmidt,
    tensor_product,
)
from conftest import (OrthogonalOutcomeError, apply_local, bell_pair, conditional_state,
                      random_state, random_unitary, reduced_probe, unit_state)

KET0 = StateVector((2,), np.array([1.0, 0.0]))
KET1 = StateVector((2,), np.array([0.0, 1.0]))
PLUS = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector((2,), np.array([1.0, 1.0]))


def test_statevector_rejects_length_mismatch():
    with pytest.raises(ValueError):
        StateVector((2, 2), np.array([1.0, 0.0]))


def test_tensor_product_basis():
    assert np.allclose(tensor_product([KET0, KET0]).amps, [1, 0, 0, 0])


def test_tensor_product_plus_zero():
    got = tensor_product([PLUS, KET0]).amps
    assert np.allclose(got, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_tensor_product_three_random_normalized(rng):
    parts = [random_state(rng, (d,)) for d in (2, 3, 4)]
    joint = tensor_product(parts)
    assert abs(np.linalg.norm(joint.amps) - 1.0) < 1e-12
    # amplitude of a joint index is the product of part amplitudes
    assert np.isclose(
        joint.amps[np.ravel_multi_index((1, 2, 3), (2, 3, 4))],
        parts[0].amps[1] * parts[1].amps[2] * parts[2].amps[3],
    )


def test_tensor_product_empty_rejected():
    with pytest.raises(ValueError):
        tensor_product([])


def test_apply_local_identity(rng):
    psi = random_state(rng, (2, 3))
    u = LocalUnitary((1,), np.eye(3))
    assert np.allclose(apply_local(psi, u).amps, psi.amps)


def test_apply_local_bitflip():
    psi = tensor_product([KET0, KET0])
    x = LocalUnitary((0,), np.array([[0, 1], [1, 0]]))
    assert np.allclose(apply_local(psi, x).amps, [0, 0, 1, 0])


def test_apply_local_disjoint_supports_commute(rng):
    psi = random_state(rng, (3, 4))
    us = LocalUnitary((0,), random_unitary(rng, 3))
    ue = LocalUnitary((1,), random_unitary(rng, 4))
    ab = apply_local(apply_local(psi, us), ue)
    ba = apply_local(apply_local(psi, ue), us)
    assert np.max(np.abs(ab.amps - ba.amps)) < 1e-12


def test_apply_local_norm_preserved(rng):
    for dims in [(2, 2), (3, 4), (2, 3, 2)]:
        psi = random_state(rng, dims)
        tgt = (0,) if len(dims) == 2 else (0, 2)
        d = int(np.prod([dims[t] for t in tgt]))
        u = LocalUnitary(tgt, random_unitary(rng, d))
        assert abs(np.linalg.norm(apply_local(psi, u).amps) - 1) < 1e-12


def test_apply_local_dimension_mismatch():
    psi = bell_pair()
    with pytest.raises(ValueError):
        apply_local(psi, LocalUnitary((0,), np.eye(3)))


def test_local_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        LocalUnitary((0,), np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("build, message", [
    (lambda: StateVector((2,), np.array([[1.0, 0.0]])), "amplitudes must form a flat vector"),
    (lambda: Bipartition(()), "left side of a cut cannot be empty"),
    (lambda: LocalUnitary((0, 0), np.eye(4)), "duplicate target subsystem"),
    (lambda: LocalUnitary((0,), np.eye(2)[:1]), "unitary matrix must be square"),
    (lambda: LocalUnitary((0,), np.ones(2)), "unitary matrix must be square"),
], ids=["nested-amplitudes", "empty-left", "duplicate-target", "wide-matrix", "flat-matrix"])
def test_malformed_states_cuts_and_unitaries_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("caller", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0, 1j], [1j, 0]]),
    np.array([[0, 1], [1, 0]], dtype=np.uint8),
], ids=["real", "complex", "uint8"])
def test_local_unitary_keeps_its_own_read_only_matrix(caller):
    expected = caller.astype(complex)
    u = LocalUnitary((0,), caller)
    assert u.matrix.dtype == complex and np.array_equal(u.matrix, expected)
    assert not np.shares_memory(u.matrix, caller)
    assert caller.flags.writeable  # the caller's array is not frozen
    caller[0, 0] = 7
    assert np.array_equal(u.matrix, expected)
    with pytest.raises(ValueError, match="read-only"):
        u.matrix[0, 0] = 1


def test_schmidt_bell():
    dec = schmidt(bell_pair(), Bipartition((0,)))
    assert np.allclose(np.abs(dec.coeffs), [1 / np.sqrt(2)] * 2)


def test_schmidt_product_state(rng):
    psi = tensor_product([random_state(rng, (3,)), random_state(rng, (4,))])
    dec = schmidt(psi, Bipartition((0,)))
    assert dec.n_terms == 1
    assert np.isclose(abs(dec.coeffs[0]), 1.0)


def test_schmidt_matches_singular_value_oracle(rng):
    # independent oracle: singular values of the reshaped amplitude matrix
    psi = random_state(rng, (3, 4))
    oracle = np.linalg.svd(psi.amps.reshape(3, 4), compute_uv=False)
    dec = schmidt(psi, Bipartition((0,)))
    assert np.allclose(np.abs(dec.coeffs), oracle, atol=1e-12)
    err = np.linalg.norm(reconstruct(dec) - psi.amps)
    assert err < 1e-10


def test_schmidt_invariants_random(rng):
    for dims, left in [((3, 4), (0,)), ((2, 3, 4), (1,)), ((2, 2, 3, 2), (0, 2))]:
        psi = random_state(rng, dims)
        dec = schmidt(psi, Bipartition(left))
        assert abs(np.sum(np.abs(dec.coeffs) ** 2) - 1) < 1e-10
        for basis in (dec.left_basis, dec.right_basis):
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(dec.n_terms))) < 1e-10
        assert np.linalg.norm(reconstruct(dec) - psi.amps) < 1e-9


def test_schmidt_redecomposition_reproduces_moduli(rng):
    psi = random_state(rng, (4, 5))
    dec = schmidt(psi, Bipartition((0,)))
    again = schmidt(StateVector(psi.dims, reconstruct(dec)), Bipartition((0,)))
    assert np.allclose(np.abs(again.coeffs), np.abs(dec.coeffs), atol=1e-9)


def test_schmidt_zero_tol_drops_small_terms():
    amps = np.zeros(9, dtype=complex)
    amps[0] = np.sqrt(1 - 1e-26)
    amps[4] = 1e-13
    psi = StateVector((3, 3), amps)
    assert schmidt(psi, Bipartition((0,)), zero_tol=1e-12).n_terms == 1
    assert schmidt(psi, Bipartition((0,)), zero_tol=0.0).n_terms == 2


def test_schmidt_canonicalize_flag(rng):
    psi = random_state(rng, (3, 3))
    dec = schmidt(psi, Bipartition((0,)), canonicalize=True)
    assert np.allclose(np.imag(dec.coeffs), 0)
    assert np.all(np.real(dec.coeffs) >= 0)
    assert np.linalg.norm(reconstruct(dec) - psi.amps) < 1e-9


def test_schmidt_degenerate_group_deterministic():
    # fourfold-degenerate coefficients: basis must come out reproducible
    psi = StateVector((4, 4), np.eye(4, dtype=complex).reshape(-1) / 2)
    a = schmidt(psi, Bipartition((0,)))
    b = schmidt(psi, Bipartition((0,)))
    assert np.array_equal(a.left_basis, b.left_basis)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.linalg.norm(reconstruct(a) - psi.amps) < 1e-9


def test_conditional_state_record_projection(rng):
    # one-to-one record correlation: conditioning on a record index leaves a
    # product of the matching system and environment states
    s = np.eye(3, dtype=complex)
    eps = random_unitary(rng, 4)[:3]
    c = np.array([0.5, np.sqrt(0.375), np.sqrt(0.375)], dtype=complex)
    amps = np.zeros((3, 3, 4), dtype=complex)
    for k in range(3):
        amps[k] += c[k] * np.multiply.outer(s[k], eps[k])
    psi = unit_state((3, 3, 4), amps.reshape(-1))
    w, residual = conditional_state(psi, 0, [0, 1, 0])
    assert np.isclose(w, abs(c[1]))
    expect = np.multiply.outer(s[1], eps[1]).reshape(-1)
    assert abs(abs(np.vdot(residual.amps, expect)) - 1) < 1e-10
    rec = schmidt(residual, Bipartition((0,)))
    assert rec.n_terms == 1


def test_conditional_state_rotated_record_is_entangled(rng):
    n = 3
    eps = random_unitary(rng, 4)[:n]
    amps = np.zeros((n, n, 4), dtype=complex)
    for k in range(n):
        amps[k] += np.multiply.outer(np.eye(n)[k], eps[k]) / np.sqrt(n)
    psi = StateVector((n, n, 4), amps.reshape(-1))
    fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    _, residual = conditional_state(psi, 0, fourier[1])
    assert schmidt(residual, Bipartition((0,))).n_terms == n


def test_conditional_state_orthogonal_outcome():
    psi = tensor_product([KET0, PLUS])
    with pytest.raises(OrthogonalOutcomeError):
        conditional_state(psi, 0, [0, 1])


def test_conditional_weights_resolve_identity(rng):
    psi = random_state(rng, (4, 5))
    basis = random_unitary(rng, 4)
    total = 0.0
    for row in basis:
        w, _ = conditional_state(psi, 0, row)
        total += w**2
    assert abs(total - 1) < 1e-10


def test_reduced_probe_bell():
    rho = reduced_probe(bell_pair(), (0,))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_reduced_probe_product_rank_one(rng):
    psi = tensor_product([random_state(rng, (3,)), random_state(rng, (2,))])
    rho = reduced_probe(psi, (0,))
    ev = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(ev, [0, 0, 1], atol=1e-10)


def test_reduced_probe_matches_schmidt_squares(rng):
    # >= 100 draws, dims up to (4,5)
    for _ in range(100):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        psi = random_state(rng, dims)
        dec = schmidt(psi, Bipartition((0,)))
        ev = np.sort(np.linalg.eigvalsh(reduced_probe(psi, (0,))))[::-1]
        probs = np.sort(np.abs(dec.coeffs) ** 2)[::-1]
        assert np.allclose(ev[: len(probs)], probs, atol=1e-9)


def test_reduced_purity_matches_the_reduced_probe_on_either_side(rng):
    # Tr(rho^2) of the oracle's reduced state, whichever side is kept and
    # whichever side of the cut is smaller
    for dims, keep in [((2, 3), (0,)), ((3, 7), (1,)), ((6, 2), (0,)), ((2, 2, 3), (0, 2)),
                       ((2, 2, 3), (1,)), ((4, 1), (0,)), ((1, 4), (0,))]:
        psi = random_state(rng, dims)
        rho = reduced_probe(psi, keep)
        want = float(np.trace(rho @ rho).real)
        got = reduced_purity(psi, Bipartition(keep))
        assert abs(got - want) <= 1e-14
        assert abs(got - float(np.sum(np.abs(schmidt(psi, Bipartition(keep)).coeffs) ** 4))) \
            <= 1e-12
    assert abs(reduced_purity(bell_pair(), Bipartition((1,))) - 0.5) <= 1e-15


def test_fidelity_basic(rng):
    psi = random_state(rng, (2, 3))
    assert np.isclose(fidelity(psi, psi), 1.0)
    assert np.isclose(fidelity(KET0, KET1), 0.0)
    rotated = StateVector(psi.dims, psi.amps * np.exp(0.7j))
    assert abs(fidelity(psi, rotated) - 1) < 1e-12
    with pytest.raises(ValueError):
        fidelity(KET0, bell_pair())


def test_state_file_roundtrip(rng, tmp_path):
    psi = random_state(rng, (2, 3))
    path = tmp_path / "psi.state"
    save_state(psi, path)
    back = load_state(path)
    assert back.dims == psi.dims
    assert np.allclose(back.amps, psi.amps, atol=1e-15)


def _comprehension_save(state, path):
    # the amplitude-by-amplitude writer save_state replaced, kept as its oracle
    doc = {"dims": list(state.dims),
           "amps": [[float(z.real), float(z.imag)] for z in state.amps]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


@pytest.mark.parametrize("kind", ["random", "signed-zeros"])
def test_saved_state_file_matches_the_comprehension_writer(kind, rng, tmp_path):
    if kind == "random":
        psi = random_state(rng, (4, 6))
    else:
        amps = np.array([complex(-0.0, 0.0), complex(0.6, -0.0), complex(-0.0, 1e-300),
                         complex(-0.8, -0.0), 0j, 0j])
        psi = StateVector((2, 3), amps)
    save_state(psi, tmp_path / "new.state")
    _comprehension_save(psi, tmp_path / "old.state")
    assert (tmp_path / "new.state").read_bytes() == (tmp_path / "old.state").read_bytes()


def test_state_file_rejects_bad_norm(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text('{"dims": [2], "amps": [[1.0, 0.0], [0.1, 0.0]]}')
    with pytest.raises(ValueError):
        load_state(path)


def test_state_file_rejects_malformed(tmp_path):
    path = tmp_path / "malformed.state"
    path.write_text('{"dims": [2]}')
    with pytest.raises(ValueError):
        load_state(path)
