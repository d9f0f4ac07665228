from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab.born import (
    BornResult,
    WeightVector,
    _apportion,
    born_from_coefficients,
    born_probabilities,
    coarse_probability,
    even_cut,
    fine_grain,
    rationalize,
)
from envlab.envariance import check_envariance, is_even
from envlab.continuum import Mesh, WaveFunction, born_continuum, discretize
from envlab.hilbert import (
    Bipartition,
    LocalUnitary,
    StateVector,
    reduced_probe,
    schmidt,
    schmidt_values,
)
from conftest import schmidt_form_state

CUT = Bipartition((0,))


def test_weight_vector_validation():
    w = WeightVector((2, 3, 5))
    assert w.M == 10
    assert w.prefix() == (0, 2, 5, 10)
    assert w.staircase() == (0, 0, 1, 1, 1, 2, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        WeightVector((0, 1))


def test_rationalize_half_half():
    w, err = rationalize(np.sqrt([0.5, 0.5]), 10)
    assert w.m == (1, 1) and w.M == 2
    # squaring the amplitude costs one ulp, so "zero" means float-exact
    assert err <= 1e-15


def test_rationalize_two_three_five():
    w, err = rationalize(np.sqrt([0.2, 0.3, 0.5]), 10)
    assert w.m == (2, 3, 5) and w.M == 10
    assert err <= 1e-15


def test_rationalize_inverse_pi_matches_bruteforce_oracle():
    p1 = 1 / np.pi
    best = None
    for big_m in range(2, 114):
        for m1 in range(1, big_m):
            err = max(abs(p1 - m1 / big_m), abs((1 - p1) - (big_m - m1) / big_m))
            if best is None or err < best[0]:
                best = (err, m1, big_m)
    w, err = rationalize([np.sqrt(p1), np.sqrt(1 - p1)], 113)
    assert (w.m[0], w.M) == (best[1], best[2]) == (7, 22)
    assert np.isclose(err, best[0])
    assert err <= 1 / 113


def test_rationalize_rejects_small_m_max():
    with pytest.raises(ValueError):
        rationalize(np.sqrt([0.2, 0.3, 0.5]), 2)


def test_rationalize_rejects_unnormalized():
    with pytest.raises(ValueError):
        rationalize([1.0, 1.0], 10)
    with pytest.raises(ValueError, match="not 1"):
        rationalize([np.nan, 1.0], 10)


def test_fine_grain_one_two():
    fg = fine_grain(WeightVector((1, 2)), [0.0, 0.0])
    assert fg.dims == (2, 3, 3)
    nz = fg.amps[np.abs(fg.amps) > 0]
    assert len(nz) == 3
    assert np.allclose(np.abs(nz), 1 / np.sqrt(3))
    assert is_even(schmidt(fg, even_cut()))


def test_fine_grain_already_even():
    fg = fine_grain(WeightVector((1, 1)), [0.0, 0.0])
    dec = schmidt(fg, even_cut())
    assert dec.n_terms == 2
    assert is_even(dec)


def test_fine_grain_staircase_bookkeeping():
    # term-by-term check of the cell -> outcome map and inherited phases
    phases = [0.3, 1.1, 2.5]
    fg = fine_grain(WeightVector((2, 3, 5)), phases)
    tens = fg.tensor()
    expected_owner = (0, 0, 1, 1, 1, 2, 2, 2, 2, 2)
    for j in range(10):
        k = expected_owner[j]
        val = tens[k, j, j]
        assert abs(val - np.exp(1j * phases[k]) / np.sqrt(10)) < 1e-12
        tens_copy = tens.copy()
        tens_copy[k, j, j] = 0
        assert np.all(tens_copy[:, j, :] == 0) or np.count_nonzero(tens_copy[:, j, :]) == 0
    assert np.count_nonzero(tens) == 10


def test_fine_grain_per_cell_phase_override():
    cell_phases = np.linspace(0, 1.8, 3)
    fg = fine_grain(WeightVector((1, 2)), [0.0, 0.0], cell_phases=cell_phases)
    tens = fg.tensor()
    owners = (0, 1, 1)
    for j in range(3):
        assert abs(tens[owners[j], j, j] - np.exp(1j * cell_phases[j]) / np.sqrt(3)) < 1e-12


def test_fine_grain_rejects_oversized_build():
    with pytest.raises(ValueError):
        fine_grain(WeightVector((1, 4999)), [0.0, 0.0])


def test_born_probabilities_two_three_five():
    psi = schmidt_form_state(np.sqrt([0.2, 0.3, 0.5]), 3, 3)
    result = born_probabilities(psi, CUT, 10)
    assert sorted(result.probs_exact) == [
        Fraction(1, 5),
        Fraction(3, 10),
        Fraction(1, 2),
    ]
    # decomposition order is by falling coefficient
    assert result.probs_exact[0] == Fraction(1, 2)
    assert result.rationalization_error <= 1e-15


def test_born_probabilities_single_term(rng):
    from envlab.hilbert import tensor_product
    from conftest import random_state

    psi = tensor_product([random_state(rng, (3,)), random_state(rng, (2,))])
    result = born_probabilities(psi, CUT, 10)
    assert result.probs_exact == (Fraction(1),)


def test_born_probabilities_one_third(rng):
    psi = schmidt_form_state(np.sqrt([1 / 3, 2 / 3]), 2, 2, rng)
    result = born_probabilities(psi, CUT, 12)
    assert sorted(result.probs_exact) == [Fraction(1, 3), Fraction(2, 3)]


def test_born_probabilities_match_squared_amplitudes(rng):
    psi = schmidt_form_state(np.sqrt([0.2, 0.3, 0.5]), 4, 5, rng)
    dec = schmidt(psi, CUT)
    result = born_probabilities(psi, CUT, 10)
    for p, a in zip(result.probs_float, dec.coeffs):
        assert abs(p - abs(a) ** 2) <= result.rationalization_error + 1e-10


def test_born_pipeline_exact_for_rational_weights():
    amps = np.sqrt(np.array([3, 5, 8]) / 16)
    psi = schmidt_form_state(amps, 3, 3)
    result = born_probabilities(psi, CUT, 16)
    assert sorted(result.probs_exact) == [
        Fraction(3, 16),
        Fraction(5, 16),
        Fraction(1, 2),
    ]
    assert sum(result.probs_exact, Fraction(0)) == 1
    assert result.rationalization_error <= 1e-12


def test_born_agrees_with_reduced_probe_oracle(rng):
    psi = schmidt_form_state(np.sqrt([0.15, 0.35, 0.5]), 3, 4, rng)
    result = born_probabilities(psi, CUT, 20)
    ev = np.sort(np.linalg.eigvalsh(reduced_probe(psi, (0,))))[::-1]
    for p, e in zip(result.probs_float, ev):
        assert abs(p - e) < 1e-9


def test_born_monotone_convergence_in_m_max():
    amps = [np.sqrt(1 / np.pi), np.sqrt(1 - 1 / np.pi)]
    errs = [rationalize(amps, mm)[1] for mm in (10, 100, 1000)]
    assert errs[0] >= errs[1] >= errs[2]


def test_born_sparse_route_matches_dense(rng):
    # a small and a large m_max reach the same exact weights
    psi = schmidt_form_state(np.sqrt([0.2, 0.8]), 2, 2, rng)
    dense = born_probabilities(psi, CUT, 10)
    sparse = born_probabilities(psi, CUT, 3000)
    assert dense.probs_exact == (Fraction(4, 5), Fraction(1, 5))
    assert sparse.probs_exact == dense.probs_exact


def test_fine_cell_swaps_are_envariant(rng):
    fg = fine_grain(WeightVector((2, 3, 5)), [0.4, 1.2, 2.1])
    owners = WeightVector((2, 3, 5)).staircase()
    cut = even_cut()
    pairs = [(0, 4), (1, 9), (3, 5)]
    for j, jp in pairs:
        # swap |s_k(j), c_j> with |s_k(j'), c_j'> on the (S,C) block
        dim = 3 * 10
        a = owners[j] * 10 + j
        b = owners[jp] * 10 + jp
        mat = np.eye(dim, dtype=complex)
        mat[a, a] = mat[b, b] = 0
        mat[a, b] = mat[b, a] = 1
        verdict = check_envariance(fg, cut, LocalUnitary((0, 2), mat))
        assert verdict.envariant


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6))
def test_fine_grain_evenness_postcondition(weights):
    if sum(weights) > 64:
        weights = weights[:2]
    w = WeightVector(tuple(weights))
    fg = fine_grain(w, np.zeros(len(w.m)))
    dec = schmidt(fg, even_cut())
    assert dec.n_terms == w.M
    assert is_even(dec)
    assert np.allclose(np.abs(dec.coeffs), 1 / np.sqrt(w.M), atol=1e-12)


def test_coarse_probability():
    psi = schmidt_form_state([0.5] * 4, 4, 4)
    result = born_probabilities(psi, CUT, 8)
    assert coarse_probability(result, {0, 1}) == Fraction(1, 2)
    assert coarse_probability(result, set()) == 0
    kappa = {0, 2}
    comp = {1, 3}
    assert coarse_probability(result, kappa) + coarse_probability(result, comp) == 1
    with pytest.raises(ValueError):
        coarse_probability(result, {9})


def _apportion_argmax_oracle(probs, big_m):
    # the per-unit argmax apportionment the heap version replaced
    scaled = probs * big_m
    m = np.floor(scaled).astype(np.int64)
    frac = scaled - m
    short = big_m - int(m.sum())
    if short > 0:
        for idx in np.argsort(-frac)[:short]:
            m[idx] += 1
    elif short < 0:
        for _ in range(-short):
            dev = np.where(m > 1, m / big_m - probs, -np.inf)
            m[int(np.argmax(dev))] -= 1
    lifted = m < 1
    m[lifted] = 1
    excess = int(m.sum()) - big_m
    for _ in range(excess):
        dev = np.where((m > 1) & ~lifted, m / big_m - probs, -np.inf)
        m[int(np.argmax(dev))] -= 1
    return m


def _gaussian_cells():
    # the 320-cell mesh of `continuum --dx 0.05`, normalized cell amplitudes
    d = discretize(WaveFunction.gaussian(), Mesh.uniform(-8.0, 0.05, 320))
    c = np.array(d.psi_k) * np.sqrt(d.mesh.cell_widths())
    return d, c / np.linalg.norm(c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-14.0, max_value=0.0), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=2), st.randoms(use_true_random=False))
def test_apportion_heap_matches_argmax_oracle(exponents, which, rnd):
    # heavy tails: many entries floor to zero, so the lift path runs
    probs = 10.0 ** np.array(exponents)
    probs /= probs.sum()
    k = probs.size
    big_m = (k, k + 1, rnd.randint(k, 4 * k))[which]
    assert np.array_equal(_apportion(probs, big_m),
                          _apportion_argmax_oracle(probs, big_m))


def test_apportion_heap_matches_argmax_oracle_on_float_carry():
    # floors that overshoot M take the shave branch (short < 0); as in
    # rationalize, M is at least the number of terms
    probs = np.array([0.7, 0.7, 0.1, 0.35, 0.35])
    for big_m in (5, 7, 10, 20):
        assert int(np.floor(probs * big_m).sum()) > big_m
        got = _apportion(probs, big_m)
        assert got.sum() == big_m
        assert np.array_equal(got, _apportion_argmax_oracle(probs, big_m))


def test_apportion_heap_matches_argmax_oracle_on_gaussian_sweep():
    _, a = _gaussian_cells()
    probs = np.sort(np.abs(a) ** 2)[::-1]
    for big_m in range(320, 2000, 37):
        assert np.array_equal(_apportion(probs, big_m),
                              _apportion_argmax_oracle(probs, big_m))


def test_born_from_coefficients_matches_diagonal_state_route():
    # the route born_continuum used to take: an n x n diagonal state
    _, a = _gaussian_cells()
    n = a.size
    state = StateVector((n, n), np.diag(a).reshape(-1))
    old = born_probabilities(state, Bipartition((0,)), 800, zero_tol=0.0)
    new = born_from_coefficients(np.sort(np.abs(a))[::-1], 800)
    assert new.probs_exact == old.probs_exact
    assert new.weights == old.weights
    assert new.rationalization_error == old.rationalization_error


def test_schmidt_values_match_schmidt_moduli(rng):
    from conftest import random_state

    cases = [(random_state(rng, dims), Bipartition(left)) for dims, left in (
        ((4, 6), (0,)), ((3, 5, 2), (0, 2)), ((2, 3, 4), (1,)), ((7, 7), (1,)))]
    cases.append((fine_grain(WeightVector((100, 150, 250)), [0.0, 0.0, 0.0]),
                  even_cut()))
    for state, cut in cases:
        values = schmidt_values(state, cut)
        moduli = np.abs(schmidt(state, cut).coeffs)
        assert values.shape == moduli.shape
        assert np.max(np.abs(values - moduli)) <= 1e-12
    assert is_even(values) and values.size == 500


def test_schmidt_values_reject_empty_support():
    state = StateVector.basis((2, 2), (0, 1))
    with pytest.raises(ValueError, match="no support"):
        schmidt_values(state, CUT, zero_tol=1.0)


def test_counting_route_svd_calls(monkeypatch, rng):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    d, _ = _gaussian_cells()
    born_continuum(d, m_max=400)
    assert calls == []
    psi = schmidt_form_state(np.sqrt([0.2, 0.3, 0.5]), 4, 5, rng)
    born_probabilities(psi, CUT, 10)
    assert calls == [False]
