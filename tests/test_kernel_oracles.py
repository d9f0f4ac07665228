"""Bit-exact oracles for the rewritten freq cross-check kernels.

Each oracle is the earlier, slower implementation of a kernel, kept here
verbatim.  The current kernels must reproduce it exactly (``==`` on floats
and arrays, never closeness), because the CLI prints their results and its
output is pinned byte for byte.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import envlab.frequencies as frequencies
from envlab.envariance import _block_operator
from envlab.frequencies import (
    ExperimentSpec,
    _full_index,
    _history_terms,
    _sample_pairs,
    _sc_part,
    _validate_history,
    build_superensemble_explicit,
    history_census,
    history_counts,
    maverick_mass,
    swap_restoration,
)
from envlab.hilbert import LocalUnitary, _canonical_group_basis
from conftest import random_unitary


# ----- oracles: the earlier implementations -----

def oracle_group_basis(block):
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


def oracle_block_operator(u, left, left_dims):
    pos = [left.index(t) for t in u.targets]
    dims = list(left_dims)
    d = math.prod(dims)
    td = math.prod(dims[p] for p in pos)
    tens = np.eye(d, dtype=complex).reshape(dims + [d])
    moved = np.moveaxis(tens, pos, range(len(pos)))
    shape = moved.shape
    out = (u.matrix @ moved.reshape(td, -1)).reshape(shape)
    return np.moveaxis(out, range(len(pos)), pos).reshape(d, d)


def _interleave(sc, env):
    idx = []
    for l, e in enumerate(env):
        idx.extend((sc[2 * l], sc[2 * l + 1], e))
    return tuple(idx)


def oracle_swap_restoration(spec, pair, phases=(0.0, 0.0)):
    a = _validate_history(spec, pair[0])
    b = _validate_history(spec, pair[1])
    if a == b:
        raise ValueError("histories must differ")
    terms = _history_terms(spec, phases)
    sc_a, sc_b = _sc_part(_full_index(spec, a)), _sc_part(_full_index(spec, b))
    amp_a, amp_b = terms[_full_index(spec, a)], terms[_full_index(spec, b)]
    swapped = {}
    for idx, amp in terms.items():
        sc, env = _sc_part(idx), idx[2::3]
        if sc == sc_a:
            sc = sc_b
        elif sc == sc_b:
            sc = sc_a
        swapped[_interleave(sc, env)] = amp
    restored = {}
    for idx, amp in swapped.items():
        sc, env = _sc_part(idx), idx[2::3]
        if env == a:
            env, amp = b, amp * (amp_b / amp_a)
        elif env == b:
            env, amp = a, amp * (amp_a / amp_b)
        restored[_interleave(sc, env)] = amp
    overlap = sum(terms[idx].conjugate() * restored.get(idx, 0.0) for idx in terms)
    return float(abs(overlap))


def oracle_history_counts(spec):
    n_runs, m, big_m = spec.runs, spec.m, spec.M
    return tuple(
        math.comb(n_runs, n) * m ** (n_runs - n) * (big_m - m) ** n
        for n in range(n_runs + 1)
    )


def oracle_maverick_mass(spec, delta_r):
    dr = Fraction(delta_r)
    total = spec.M ** spec.runs
    mass = Fraction(0)
    for n, c in enumerate(oracle_history_counts(spec)):
        if abs(Fraction(n, spec.runs) - spec.beta_sq) > dr:
            mass += Fraction(c, total)
    return mass


# ----- _canonical_group_basis -----

def _group_block(seed, dim, g, n_support, tiny_scale):
    # an isometry on n_support rows, exact zeros on the others, and a few
    # of those zero rows lifted to tiny_scale (zero, near the 1e-9 skip
    # threshold, or near the 1e-8 acceptance threshold)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(dim)
    block = np.zeros((dim, g), dtype=complex)
    block[rows[:n_support]] = random_unitary(rng, n_support)[:, :g]
    tiny = rows[n_support:][: rng.integers(0, dim - n_support + 1)]
    block[tiny] = tiny_scale * (rng.standard_normal((len(tiny), g))
                                + 1j * rng.standard_normal((len(tiny), g)))
    return block


def _same_outcome(fn, oracle, *args):
    try:
        expected = oracle(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            fn(*args)
        return
    got = fn(*args)
    assert got.shape == expected.shape and np.array_equal(got, expected)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.data())
@settings(max_examples=120, deadline=None)
def test_group_basis_matches_oracle_bit_for_bit(seed, dim, data):
    g = data.draw(st.integers(1, dim))
    n_support = data.draw(st.integers(g, dim))
    scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-10, 5e-10, 2e-9, 5e-9, 3e-8]))
    block = _group_block(seed, dim, g, n_support, scale)
    _same_outcome(_canonical_group_basis, oracle_group_basis, block)


def test_group_basis_rank_deficient_raises_like_oracle():
    block = _group_block(5, 12, 4, 4, 0.0)
    block[:, 3] = block[:, 2]
    with pytest.raises(ValueError, match="failed to span"):
        oracle_group_basis(block)
    with pytest.raises(ValueError, match="failed to span"):
        _canonical_group_basis(block)


@pytest.mark.parametrize("runs", [2, 3, 5])
def test_group_basis_on_degenerate_superensemble_cut(runs):
    # the 2^runs-fold group of the left singular vectors in freq's dense check
    spec = ExperimentSpec(m=1, M=2, runs=runs)
    state, _ = build_superensemble_explicit(spec, swap_pairs=0)
    sc = [i for i in range(3 * runs) if i % 3 != 2]
    env = [i for i in range(3 * runs) if i % 3 == 2]
    mat = np.transpose(state.amps.reshape(state.dims), sc + env)
    u, s, _ = np.linalg.svd(mat.reshape(4 ** runs, -1), full_matrices=False)
    group = u[:, s > 1e-12]
    assert group.shape[1] == 2 ** runs
    _same_outcome(_canonical_group_basis, oracle_group_basis, group)


# ----- _block_operator -----

def _check_block_operator(seed, left_dims, left, targets):
    rng = np.random.default_rng(seed)
    td = math.prod(left_dims[left.index(t)] for t in targets)
    u = LocalUnitary(tuple(targets), random_unitary(rng, td))
    # == treats 0.0 and -0.0 alike: every entry is an entry of u or a zero
    got = _block_operator(u, list(left), tuple(left_dims))
    expected = oracle_block_operator(u, list(left), tuple(left_dims))
    assert got.shape == expected.shape and np.array_equal(got, expected)


@given(st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_block_operator_matches_oracle_bit_for_bit(seed, data):
    left_dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    left = data.draw(st.permutations(range(9)))[:len(left_dims)]
    targets = data.draw(st.lists(st.sampled_from(left), min_size=1,
                                 max_size=len(left), unique=True))
    _check_block_operator(seed, left_dims, left, targets)


@pytest.mark.parametrize("left_dims, left, targets", [
    ((2, 3, 2, 2), (0, 1, 2, 3), (0, 2)),        # non-contiguous
    ((2, 3, 2, 2), (0, 1, 2, 3), (3, 1)),        # reversed, non-contiguous
    ((2, 3, 4), (0, 1, 2), (2, 1, 0)),           # every axis, reversed
    ((3, 2, 2), (7, 4, 5), (5, 7)),              # unsorted subsystem labels
    ((2, 2) * 3, (0, 1, 3, 4, 6, 7), (0, 1, 3, 4, 6, 7)),  # freq's (S, C) block
])
def test_block_operator_target_orders(left_dims, left, targets):
    _check_block_operator(11, left_dims, left, targets)


# ----- swap_restoration -----

SMALL_SPECS = [(m, big_m, runs) for big_m in (2, 3, 4) for m in range(1, big_m)
               for runs in range(1, 9) if big_m ** runs <= 256]


@given(st.sampled_from(SMALL_SPECS), st.integers(0, 2 ** 32 - 1),
       st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)))
@settings(max_examples=120, deadline=None)
def test_swap_restoration_matches_oracle_bit_for_bit(spec_args, seed, phases):
    spec = ExperimentSpec(*spec_args)
    for pair in _sample_pairs(spec, 3, seed):
        assert swap_restoration(spec, pair, phases) == oracle_swap_restoration(
            spec, pair, phases)


def test_report_restorations_match_oracle_bit_for_bit():
    spec = ExperimentSpec(m=1, M=3, runs=4)
    phases = (0.4, -1.3)
    _, dense = build_superensemble_explicit(spec, phases, swap_pairs=4, seed=2)
    sparse = history_census(spec, phases, swap_pairs=4, seed=2)
    for check in dense.swap_checks + sparse.swap_checks:
        assert check.restoration == oracle_swap_restoration(spec, check.pair, phases)


# ----- exact tallies -----

@pytest.mark.parametrize("m, big_m", [(1, 2), (1, 3), (2, 3), (3, 7), (5, 12)])
def test_history_counts_match_comb_formula(m, big_m):
    for runs in range(1, 301):
        spec = ExperimentSpec(m=m, M=big_m, runs=runs)
        assert history_counts(spec).counts == oracle_history_counts(spec)


@pytest.mark.parametrize("delta_r", ["1/10", "0.05", "1/3", 0.2])
def test_maverick_mass_matches_fraction_sum(delta_r):
    for m, big_m, runs in [(1, 3, 200), (2, 5, 97), (1, 2, 150)]:
        spec = ExperimentSpec(m=m, M=big_m, runs=runs)
        assert maverick_mass(spec, delta_r) == oracle_maverick_mass(spec, delta_r)


# ----- one history expansion per report -----

@pytest.fixture
def expansion_counter(monkeypatch):
    calls = []
    real = frequencies._history_terms

    def counted(spec, phases):
        calls.append(spec)
        return real(spec, phases)

    monkeypatch.setattr(frequencies, "_history_terms", counted)
    return calls


@pytest.mark.parametrize("pairs", [0, 1, 5])
def test_one_expansion_per_report(pairs, expansion_counter):
    spec = ExperimentSpec(m=1, M=3, runs=3)
    report = history_census(spec, swap_pairs=pairs, seed=4)
    assert len(report.swap_checks) == pairs and len(expansion_counter) == 1
    _, report = build_superensemble_explicit(spec, swap_pairs=pairs, seed=4)
    assert len(report.swap_checks) == pairs and len(expansion_counter) == 2


def test_restoration_input_checks_run_before_any_expansion(expansion_counter):
    spec = ExperimentSpec(m=1, M=2, runs=3)
    with pytest.raises(ValueError, match="histories must differ"):
        swap_restoration(spec, ((0, 1, 1), (0, 1, 1)))
    with pytest.raises(ValueError, match="history must list 3 cell indices below 2"):
        swap_restoration(spec, ((0, 1, 2), (0, 1, 1)))
    with pytest.raises(ValueError, match="history must list 3 cell indices below 2"):
        swap_restoration(spec, ((0, 1), (0, 1, 1)))
    assert expansion_counter == []
    assert swap_restoration(spec, ((0, 1, 0), (0, 1, 1))) >= 1 - 1e-12
    assert len(expansion_counter) == 1
