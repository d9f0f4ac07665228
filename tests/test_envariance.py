import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import envlab.envariance as envariance
from envlab.envariance import (
    SwapSpec,
    check_envariance,
    envcheck_run,
    is_even,
    protocol_run,
)
from envlab.hilbert import (
    Bipartition,
    LocalUnitary,
    StateVector,
    fidelity,
    schmidt,
)
from conftest import (apply_local, bell_pair, conditional_state, counterswap, dense_counter,
                      partial_swap_counter, partial_swap_unitary, phase_counter, random_state,
                      random_unitary, schmidt_form_state, swap_unitary)

CUT = Bipartition((0,))


def restored_by(psi, u, verdict, right=(1,)):
    """psi after u and the verdict's counter, both applied as dense operators."""
    return apply_local(apply_local(psi, u), dense_counter(verdict.counter, right))


def schmidt_phase_unitary(dec, phases):
    """System-side rotation diagonal in the Schmidt basis."""
    lb = dec.left_basis
    partial = (lb.T * np.exp(1j * np.asarray(phases))) @ lb.conj()
    proj = lb.T @ lb.conj()
    mat = partial + np.eye(lb.shape[1]) - proj
    return LocalUnitary(dec.left_targets, mat)


def grid_counter_search(state, u_s, cut=CUT, steps=1000):
    """Exhaustive 2-parameter counter search for 2-dim environments.

    Scans u(theta, phi) = [[cos, e^{i phi} sin], [-e^{-i phi} sin, cos]] on a
    uniform grid and returns the best restoration overlap found.  Test-only
    oracle for non-existence claims.
    """
    eta = apply_local(state, u_s)
    psi_t = state.amps.reshape(2, 2) if state.dims == (2, 2) else state.tensor()
    eta_t = eta.amps.reshape(psi_t.shape)
    # overlap(u_E) = Tr(u_E M) with M_{xy} = sum_s eta[s, x] * conj(psi[s, y])
    m = np.einsum("sx,sy->xy", eta_t, psi_t.conj())
    theta = np.linspace(0.0, np.pi, steps + 1)
    phi = np.linspace(0.0, 2 * np.pi, steps + 1)
    trace_part = np.cos(theta)[:, None] * (m[0, 0] + m[1, 1])
    off = (
        np.exp(1j * phi)[None, :] * m[1, 0]
        - np.exp(-1j * phi)[None, :] * m[0, 1]
    )
    vals = np.abs(trace_part + np.sin(theta)[:, None] * off)
    return float(vals.max())


def test_phase_counter_matrix():
    dec = schmidt(bell_pair(), CUT)
    counter = phase_counter(dec, [np.pi / 2, 0.0])
    assert np.allclose(counter.matrix, np.diag([np.exp(-1j * np.pi / 2), 1.0]), atol=1e-12)
    rotated = apply_local(bell_pair(), schmidt_phase_unitary(dec, [np.pi / 2, 0.0]))
    restored = apply_local(rotated, counter)
    assert fidelity(bell_pair(), restored) >= 1 - 1e-12


def test_phase_counter_zero_phases_is_identity(rng):
    psi = random_state(rng, (3, 3))
    dec = schmidt(psi, CUT)
    counter = phase_counter(dec, np.zeros(dec.n_terms))
    assert np.allclose(counter.matrix, np.eye(3), atol=1e-10)


def test_phase_counter_random_four_term(rng):
    psi = schmidt_form_state(
        np.sqrt([0.1, 0.2, 0.3, 0.4]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
        4, 5, rng,
    )
    dec = schmidt(psi, CUT)
    phases = rng.uniform(0, 2 * np.pi, dec.n_terms)
    rotated = apply_local(psi, schmidt_phase_unitary(dec, phases))
    restored = apply_local(rotated, phase_counter(dec, phases))
    assert fidelity(psi, restored) >= 1 - 1e-12


def test_phase_counter_length_mismatch(rng):
    dec = schmidt(random_state(rng, (2, 2)), CUT)
    with pytest.raises(ValueError):
        phase_counter(dec, [0.0])


def test_swap_counterswap_even_pair(rng):
    for phase in (0.0, 0.9, np.pi):
        psi = schmidt_form_state([1 / np.sqrt(2)] * 2, 3, 3, rng)
        dec = schmidt(psi, CUT)
        spec = SwapSpec(0, 1, phase)
        swapped = apply_local(psi, swap_unitary(spec, dec.left_basis, dec.left_targets))
        restored = apply_local(swapped, counterswap(dec, spec))
        assert fidelity(psi, restored) >= 1 - 1e-12


def test_swap_counterswap_uneven_overlap_closed_form(rng):
    # overlap after swap+counterswap is 2*Re(a1*conj(a2)) for real amplitudes
    a1, a2 = np.sqrt(1 / 3), np.sqrt(2 / 3)
    psi = schmidt_form_state([a1, a2], 2, 2)
    dec = schmidt(psi, CUT)
    spec = SwapSpec(0, 1, 0.7)
    swapped = apply_local(psi, swap_unitary(spec, dec.left_basis, dec.left_targets))
    restored = apply_local(swapped, counterswap(dec, spec))
    assert abs(fidelity(psi, restored) - 2 * np.sqrt(2) / 3) < 1e-12


def test_swap_degenerate_spec_is_identity(rng):
    psi = random_state(rng, (2, 2))
    dec = schmidt(psi, CUT)
    spec = SwapSpec(1, 1, 0.3)
    swapped = apply_local(psi, swap_unitary(spec, dec.left_basis, dec.left_targets))
    restored = apply_local(swapped, counterswap(dec, spec))
    assert fidelity(psi, restored) >= 1 - 1e-12
    assert np.allclose(swap_unitary(spec, dec.left_basis).matrix, np.eye(2))


def test_counterswap_rejects_zero_coefficient():
    from envlab.hilbert import SchmidtDecomposition

    dec = SchmidtDecomposition(
        coeffs=np.array([1.0, 0.0], dtype=complex),
        left_basis=np.eye(2, dtype=complex),
        right_basis=np.eye(2, dtype=complex),
        left_targets=(0,),
        right_targets=(1,),
        left_dims=(2,),
        right_dims=(2,),
    )
    with pytest.raises(ValueError):
        counterswap(dec, SwapSpec(0, 1, 0.0))
    with pytest.raises(ValueError):
        counterswap(dec, SwapSpec(0, 5, 0.0))


def test_counterswap_carries_coefficient_arguments(rng):
    # phases on the coefficients must enter the exchange phase, otherwise
    # restoration only works for real amplitudes
    coeffs = np.array([1, 1]) / np.sqrt(2) * np.exp(1j * np.array([0.4, 1.9]))
    psi = schmidt_form_state(coeffs, 2, 2, rng)
    dec = schmidt(psi, CUT)
    spec = SwapSpec(0, 1, 1.3)
    swapped = apply_local(psi, swap_unitary(spec, dec.left_basis, dec.left_targets))
    restored = apply_local(swapped, counterswap(dec, spec))
    assert fidelity(psi, restored) >= 1 - 1e-12


def test_partial_swap_hadamard_two_dim(rng):
    psi = schmidt_form_state([1 / np.sqrt(2)] * 2, 2, 2, rng)
    dec = schmidt(psi, CUT)
    had = np.stack(
        [
            (dec.left_basis[0] + dec.left_basis[1]) / np.sqrt(2),
            (dec.left_basis[0] - dec.left_basis[1]) / np.sqrt(2),
        ]
    )
    rotated = apply_local(psi, partial_swap_unitary(dec, had))
    restored = apply_local(rotated, partial_swap_counter(dec, had))
    assert fidelity(psi, restored) >= 1 - 1e-10


def test_partial_swap_identity_basis(rng):
    psi = schmidt_form_state([1 / np.sqrt(2)] * 2, 3, 3, rng)
    dec = schmidt(psi, CUT)
    counter = partial_swap_counter(dec, dec.left_basis)
    assert np.allclose(counter.matrix, np.eye(3), atol=1e-10)


def test_partial_swap_even_subspace_in_five_term_state(rng):
    # three equal-modulus terms rotated inside a five-term state
    mods = np.sqrt(np.array([0.15, 0.15, 0.15, 0.25, 0.30]))
    coeffs = mods * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    psi = schmidt_form_state(coeffs, 5, 6, rng)
    dec = schmidt(psi, CUT)
    even_idx = [k for k in range(5) if abs(abs(dec.coeffs[k]) - np.sqrt(0.15)) < 1e-9]
    assert len(even_idx) == 3
    rot = random_unitary(rng, 3)
    new_basis = rot @ dec.left_basis[even_idx]
    counter = partial_swap_counter(dec, new_basis)
    # rotated partners must be orthonormal
    phases = np.exp(1j * np.angle(dec.coeffs[even_idx]))
    overlaps = new_basis.conj() @ dec.left_basis[even_idx].T
    eps_new = (overlaps * phases[None, :]) @ dec.right_basis[even_idx]
    gram = eps_new.conj() @ eps_new.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10
    rotated = apply_local(psi, partial_swap_unitary(dec, new_basis))
    restored = apply_local(rotated, counter)
    assert fidelity(psi, restored) >= 1 - 1e-10


def test_partial_swap_rejects_uneven_subspace(rng):
    psi = schmidt_form_state(np.sqrt([0.2, 0.8]), 2, 2, rng)
    dec = schmidt(psi, CUT)
    with pytest.raises(ValueError):
        partial_swap_counter(dec, dec.left_basis)


def test_check_envariance_phase_unitary(rng):
    psi = random_state(rng, (4, 4))
    dec = schmidt(psi, CUT)
    u = schmidt_phase_unitary(dec, rng.uniform(0, 2 * np.pi, dec.n_terms))
    verdict = check_envariance(psi, CUT, u)
    assert verdict.envariant
    assert verdict.residual_infidelity <= 1e-10
    assert fidelity(psi, restored_by(psi, u, verdict)) >= 1 - 1e-10
    assert abs(verdict.restoration - fidelity(psi, restored_by(psi, u, verdict))) < 1e-12


def test_check_envariance_uneven_swap_rejected():
    psi = schmidt_form_state(np.sqrt([1 / 3, 2 / 3]), 2, 2)
    dec = schmidt(psi, CUT)
    u = swap_unitary(SwapSpec(0, 1, 0.0), dec.left_basis, dec.left_targets)
    verdict = check_envariance(psi, CUT, u)
    assert not verdict.envariant
    assert verdict.counter is None
    # best achievable overlap is 2*a1*a2; grid oracle agrees
    nuclear_best = 2 * np.sqrt(2) / 3
    assert abs(verdict.residual_infidelity - (1 - nuclear_best)) < 1e-10
    grid_best = grid_counter_search(psi, u)
    assert grid_best <= nuclear_best + 1e-9
    assert grid_best >= nuclear_best - 5e-3


def test_check_envariance_support_kernel_mixing():
    # rotating a support direction into a zero-coefficient direction cannot
    # be undone from the environment
    chi = 0.4
    psi = StateVector((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    u = LocalUnitary(
        (0,),
        np.array(
            [[np.cos(chi), -np.sin(chi)], [np.sin(chi), np.cos(chi)]], dtype=complex
        ),
    )
    verdict = check_envariance(psi, CUT, u)
    assert not verdict.envariant
    assert verdict.residual_infidelity > 0
    assert abs(verdict.residual_infidelity - (1 - np.cos(chi))) < 1e-10
    grid_best = grid_counter_search(psi, u)
    assert grid_best <= np.cos(chi) + 1e-9
    assert grid_best >= np.cos(chi) - 5e-3


def test_check_envariance_kernel_only_component(rng):
    # a rotation acting purely on zero-coefficient directions leaves the
    # state alone: envariant with an (effective) identity counter
    psi = schmidt_form_state(np.sqrt([0.5, 0.5]), 4, 4, rng)
    dec = schmidt(psi, CUT)
    kernel = np.eye(4, dtype=complex) - dec.left_basis.T @ dec.left_basis.conj()
    evals, evecs = np.linalg.eigh(kernel)
    kvecs = evecs[:, evals > 0.5].T
    assert len(kvecs) == 2
    mat = np.eye(4, dtype=complex)
    mat -= np.outer(kvecs[0], kvecs[0].conj()) + np.outer(kvecs[1], kvecs[1].conj())
    mat += np.outer(kvecs[0], kvecs[1].conj()) + np.outer(kvecs[1], kvecs[0].conj())
    verdict = check_envariance(psi, CUT, LocalUnitary((0,), mat))
    assert verdict.envariant
    restored = restored_by(psi, LocalUnitary((0,), mat), verdict)
    assert fidelity(psi, restored) >= 1 - 1e-10


def test_check_envariance_soundness_random(rng):
    # whenever the verdict is envariant the counter must restore
    hits = 0
    for _ in range(200):
        dl = int(rng.integers(2, 5))
        dr = int(rng.integers(dl, 6))
        psi = random_state(rng, (dl, dr))
        dec = schmidt(psi, CUT)
        kind = rng.integers(0, 3)
        if kind == 0:
            u = schmidt_phase_unitary(dec, rng.uniform(0, 2 * np.pi, dec.n_terms))
        elif kind == 1 and dec.n_terms >= 2:
            u = swap_unitary(
                SwapSpec(0, 1, float(rng.uniform(0, 2 * np.pi))),
                dec.left_basis,
                dec.left_targets,
            )
        else:
            u = LocalUnitary((0,), random_unitary(rng, dl))
        verdict = check_envariance(psi, CUT, u)
        if verdict.envariant:
            hits += 1
            assert fidelity(psi, restored_by(psi, u, verdict)) >= 1 - 1e-10
            assert verdict.restoration >= 1 - 1e-10
    assert hits > 0


def test_check_envariance_multipartite_left_block(rng):
    # unitary on one subsystem of a two-subsystem left block
    psi = random_state(rng, (2, 2, 3))
    cut = Bipartition((0, 1))
    dec = schmidt(psi, cut)
    u = schmidt_phase_unitary(dec, rng.uniform(0, 2 * np.pi, dec.n_terms))
    verdict = check_envariance(psi, cut, u)
    assert verdict.envariant
    # and a single-target unitary embedded in the block is handled
    sub = LocalUnitary((1,), np.diag([1.0, 1.0]).astype(complex))
    assert check_envariance(psi, cut, sub).envariant


def test_check_envariance_rejects_right_side_targets(rng):
    psi = random_state(rng, (2, 2))
    with pytest.raises(ValueError):
        check_envariance(psi, CUT, LocalUnitary((1,), np.eye(2)))


def test_check_envariance_rejects_a_matrix_of_the_wrong_dimension():
    with pytest.raises(ValueError, match=r"matrix dimension 3 does not match targets \[0\]"):
        check_envariance(bell_pair(), CUT, LocalUnitary((0,), np.eye(3)))


# ----- one counter per route -----

@pytest.fixture
def polar_svds(monkeypatch):
    """Count the np.linalg.svd calls made from envariance.py that compute U and V."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if (kwargs.get("compute_uv", True)
                and sys._getframe(1).f_globals["__name__"] == envariance.__name__):
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_term_phases_route_applies_its_closed_form_counter(rng, polar_svds):
    psi = random_state(rng, (3, 4))
    phases = rng.uniform(0, 2 * np.pi, 3)
    verdict = envcheck_run(psi, CUT, phases=phases)
    assert polar_svds == []
    assert verdict.envariant
    assert np.array_equal(verdict.counter.block, np.diag(np.exp(-1j * phases)))
    assert abs(verdict.restoration - 1.0) <= 1e-12


def test_partial_route_applies_its_closed_form_counter(rng, polar_svds):
    psi = schmidt_form_state(np.sqrt([0.25, 0.25, 0.5]), 3, 3, rng)
    dec = schmidt(psi, CUT)
    group = [k for k in range(3) if abs(abs(dec.coeffs[k]) - 0.5) <= 1e-12]
    basis = random_unitary(rng, 2) @ dec.left_basis[group]
    verdict = envcheck_run(psi, CUT, basis=basis)
    assert polar_svds == []
    assert verdict.envariant
    _, counter = envariance._partial_swap_blocks(dec, basis)
    assert np.array_equal(verdict.counter.block, counter)
    assert abs(verdict.restoration - 1.0) <= 1e-12


def test_unitary_route_keeps_the_polar_counter(rng, polar_svds):
    psi = random_state(rng, (3, 4))
    dec = schmidt(psi, CUT)
    u = schmidt_phase_unitary(dec, rng.uniform(0, 2 * np.pi, dec.n_terms))
    verdict = check_envariance(psi, CUT, u)
    assert polar_svds == [(3, 3)]
    assert verdict.envariant and verdict.counter is not None
    assert abs(verdict.restoration - 1.0) <= 1e-12


def test_a_given_counter_is_applied_even_when_not_envariant(polar_svds):
    # swapping the two terms of sqrt(1/3)|00> + sqrt(2/3)|11> and counterswapping
    # restores 2 sqrt(2)/3 of the state, the closed form of the protocol
    psi = schmidt_form_state(np.sqrt([1 / 3, 2 / 3]), 2, 2)
    dec = schmidt(psi, CUT)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    verdict = envariance._envariance_verdict(dec, swap, swap)
    assert polar_svds == []
    assert not verdict.envariant
    assert verdict.counter.block is swap
    assert abs(verdict.restoration - 2 * np.sqrt(2) / 3) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=5),
    data=st.data(),
)
def test_swap_envariance_iff_pair_even(weights, data):
    # swap envariance of a pair holds exactly when the two moduli agree
    k = data.draw(st.integers(0, len(weights) - 1))
    l = data.draw(st.integers(0, len(weights) - 1).filter(lambda x: x != k))
    total = sum(weights)
    coeffs = np.sqrt(np.array(weights, dtype=float) / total)
    n = len(weights)
    psi = schmidt_form_state(coeffs, n, n)
    dec = schmidt(psi, Bipartition((0,)))
    # map original outcome indices to decomposition order via the left basis
    order = [int(np.argmax(np.abs(dec.left_basis[j]))) for j in range(n)]
    dk, dl = order.index(k), order.index(l)
    u = swap_unitary(SwapSpec(dk, dl, 0.0), dec.left_basis, dec.left_targets)
    verdict = check_envariance(psi, Bipartition((0,)), u)
    assert verdict.envariant == (weights[k] == weights[l])


def test_envariant_unitary_preserves_schmidt_profile(rng):
    psi = schmidt_form_state(np.sqrt([0.1, 0.3, 0.6]), 3, 4, rng)
    dec = schmidt(psi, CUT)
    u = schmidt_phase_unitary(dec, rng.uniform(0, 2 * np.pi, 3))
    eta = apply_local(psi, u)
    dec2 = schmidt(eta, CUT)
    assert np.allclose(
        np.sort(np.abs(dec.coeffs)), np.sort(np.abs(dec2.coeffs)), atol=1e-10
    )
    # nondegenerate moduli: left vectors match up to phase
    for k in range(3):
        assert abs(abs(np.vdot(dec.left_basis[k], dec2.left_basis[k])) - 1) < 1e-9


def test_phase_redecoration_leaves_left_weights(rng):
    # states differing only in coefficient phases give identical left-side
    # conditional weights for any outcome basis
    mods = np.sqrt([0.2, 0.35, 0.45])
    a = schmidt_form_state(mods, 3, 3)
    b = schmidt_form_state(mods * np.exp(1j * rng.uniform(0, 2 * np.pi, 3)), 3, 3)
    basis = random_unitary(rng, 3)
    for row in basis:
        wa, _ = conditional_state(a, 0, row)
        wb, _ = conditional_state(b, 0, row)
        assert abs(wa - wb) < 1e-10


def test_protocol_even_pair(rng):
    psi = schmidt_form_state([1 / np.sqrt(2)] * 2, 2, 2, rng)
    transcript = protocol_run(psi, CUT, SwapSpec(0, 1, 0.4))
    assert [label for label, _ in transcript.steps] == ["confirm", "swap", "counterswap"]
    assert transcript.steps[0][1] == 1.0
    assert transcript.final_fidelity >= 1 - 1e-12
    assert not transcript.restoration_failed


def test_protocol_uneven_pair_flags_failure():
    psi = schmidt_form_state(np.sqrt([1 / 3, 2 / 3]), 2, 2)
    transcript = protocol_run(psi, CUT, SwapSpec(0, 1, 0.0))
    assert abs(transcript.final_fidelity - 2 * np.sqrt(2) / 3) < 1e-12
    assert transcript.restoration_failed


def test_protocol_trivial_swap(rng):
    psi = random_state(rng, (2, 2))
    transcript = protocol_run(psi, CUT, SwapSpec(0, 0, 0.0))
    assert all(abs(f - 1) < 1e-12 for _, f in transcript.steps)


@pytest.mark.parametrize("left", [(0,), (1,)], ids=["cut-0", "cut-1"])
@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_protocol_is_the_moduli_closed_form_on_a_near_degenerate_pair(left, phase, rng):
    # the two leading moduli differ by 3e-10 relative, inside schmidt's 1e-9
    # grouping; the rotation of that group used to move the fidelities off
    # the closed form by 2.3e-10 at cut 0 and by 9.0e-11 at cut 1
    c = np.array([1.0, 1.0 - 3e-10, 0.5])
    c /= np.linalg.norm(c)
    psi = schmidt_form_state(c, 3, 3, rng)
    for k, l in [(0, 1), (0, 2), (1, 2)]:
        steps = dict(protocol_run(psi, Bipartition(left), SwapSpec(k, l, phase)).steps)
        swap = sum(c[j] ** 2 for j in range(3) if j not in (k, l))
        assert abs(steps["swap"] - swap) <= 1e-15
        assert abs(steps["counterswap"] - (swap + 2 * c[k] * c[l])) <= 1e-15


def test_protocol_rejects_out_of_range_indices(rng):
    psi = random_state(rng, (2, 2))
    with pytest.raises(ValueError):
        protocol_run(psi, CUT, SwapSpec(0, 5, 0.0))


def test_is_even_cases(rng):
    assert is_even(schmidt(bell_pair(), CUT))
    uneven = schmidt_form_state(np.sqrt([1 / 3, 2 / 3]), 2, 2)
    assert not is_even(schmidt(uneven, CUT))
    n = 5
    coeffs = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) / np.sqrt(n)
    psi = schmidt_form_state(coeffs, n, n, rng)
    assert is_even(schmidt(psi, CUT))
    # plain coefficient arrays follow the same rule
    assert is_even(coeffs) and is_even(np.abs(coeffs))
    assert not is_even(np.sqrt([1 / 3, 2 / 3]))
    # no nonzero modulus, nothing to be even
    assert not is_even([]) and not is_even([0.0, 0.0])
