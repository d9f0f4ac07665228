"""Oracles for the rewritten freq cross-check, unitarity and lattice kernels.

Each oracle is the earlier, slower implementation of a kernel, kept here
verbatim.  The current kernels must reproduce it exactly (``==`` on floats
and arrays, never closeness), because the CLI prints their results and its
output is pinned byte for byte.  The one exception is the unitarity
deviation of a monomial matrix, which sums the same products in a different
order: there the verdict must agree and the deviation within a few ulps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import envlab.envariance as envariance
import envlab.frequencies as frequencies
import envlab.hilbert as hilbert
import envlab.records as records
from envlab.envariance import _block_operator, check_envariance
from envlab.frequencies import (
    SWAP_BLOCK_CAP,
    ExperimentSpec,
    SwapCheck,
    _full_index,
    _history_terms,
    _restoration,
    _sample_pairs,
    _sc_part,
    _sc_targets,
    _validate_history,
    build_superensemble_explicit,
    history_census,
    history_counts,
    maverick_mass,
    superensemble,
    swap_restoration,
)
from envlab.hilbert import (
    UNITARY_TOL,
    Bipartition,
    LocalUnitary,
    _canonical_group_basis,
    _unitarity_deviation,
    apply_local,
    fidelity,
)
from envlab.records import RecordEvent, complement, join, meet, verify_axioms
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


def oracle_unitarity_deviation(mat):
    return np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))


def oracle_dense_swap_check(spec, state, pair):
    sc_dims = (2, spec.M) * spec.runs
    block = math.prod(sc_dims)
    flat_a = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[0])), sc_dims))
    flat_b = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[1])), sc_dims))
    u = np.eye(block, dtype=complex)
    u[flat_a, flat_a] = u[flat_b, flat_b] = 0.0
    u[flat_a, flat_b] = u[flat_b, flat_a] = 1.0
    swap = LocalUnitary(_sc_targets(spec), u)
    verdict = check_envariance(state, Bipartition(_sc_targets(spec)), swap)
    if not verdict.envariant:
        return False, 0.0
    restored = apply_local(apply_local(state, swap), verdict.counter)
    return True, fidelity(state, restored)


def oracle_swap_checks(spec, state, terms, swap_pairs, seed):
    checks = []
    dense_ok = state is not None and (2 * spec.M) ** spec.runs <= SWAP_BLOCK_CAP
    for pair in _sample_pairs(spec, swap_pairs, seed):
        sparse_fid = _restoration(spec, terms, pair)
        if dense_ok:
            envariant, counter_fid = oracle_dense_swap_check(spec, state, pair)
            checks.append(SwapCheck(pair, sparse_fid, envariant, counter_fid))
        else:
            checks.append(SwapCheck(pair, sparse_fid))
    return tuple(checks)


def oracle_meet(a, b):
    records._require_shared_universe(a, b)
    return RecordEvent(a.universe, a.members & b.members)


def oracle_join(a, b):
    records._require_shared_universe(a, b)
    return RecordEvent(a.universe, a.members | b.members)


def oracle_complement(a):
    return RecordEvent(a.universe, a.universe - a.members)


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


# ----- unitarity of monomial matrices -----

def _phased_permutation(seed, dim):
    rng = np.random.default_rng(seed)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rng.permutation(dim), np.arange(dim)] = np.exp(
        1j * rng.uniform(-np.pi, np.pi, dim))
    return mat, rng


def _same_unitarity_verdict(mat):
    # the guard as it stood: the dense deviation against UNITARY_TOL
    dense = oracle_unitarity_deviation(mat)
    if dense > UNITARY_TOL:
        with pytest.raises(ValueError, match=f"deviates from unitarity by {dense:g}"):
            LocalUnitary((0,), mat)
    else:
        LocalUnitary((0,), mat)
    return dense


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200),
       st.sampled_from([0.0, 1e-11]))
@settings(max_examples=120, deadline=None)
def test_monomial_deviation_matches_dense_oracle(seed, dim, wobble):
    mat, rng = _phased_permutation(seed, dim)
    mat *= 1 + wobble * rng.uniform(-1, 1, dim)
    dense = _same_unitarity_verdict(mat)
    fast = _unitarity_deviation(mat)
    eps = np.finfo(float).eps
    assert abs(fast - dense) <= 4 * eps * np.max(np.abs(mat)) ** 2


@pytest.mark.parametrize("dim", [1, 2, 7, 64])
def test_scaled_permutation_is_rejected_like_oracle(dim):
    mat, _ = _phased_permutation(dim, dim)
    mat *= 1 + 1e-9
    assert _same_unitarity_verdict(mat) > UNITARY_TOL


def test_permutation_with_a_zero_column_takes_the_dense_route():
    mat, _ = _phased_permutation(3, 9)
    mat[:, 4] = 0.0
    assert _unitarity_deviation(mat) == oracle_unitarity_deviation(mat) == 1.0
    with pytest.raises(ValueError, match="deviates from unitarity by 1"):
        LocalUnitary((0,), mat)


def test_near_monomial_matrix_takes_the_dense_route():
    # the extra entry gives its row and column two nonzeros; read as monomial
    # it would show |1e-14|^2 - 1 as a deviation of 1
    mat, _ = _phased_permutation(5, 9)
    i, j = np.argwhere(mat == 0)[0]
    mat[i, j] = 1e-14
    assert _unitarity_deviation(mat) == oracle_unitarity_deviation(mat)
    _same_unitarity_verdict(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_unitary_is_rejected(bad):
    # nan compared false against the tolerance, so the guard used to pass it
    mat, _ = _phased_permutation(2, 4)
    mat[np.flatnonzero(mat[:, 0])[0], 0] = bad
    with pytest.raises(ValueError, match="unitary matrix entries must be finite"):
        LocalUnitary((0,), mat)
    dense = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match="unitary matrix entries must be finite"):
        LocalUnitary((0,), dense)


# ----- one Schmidt decomposition per freq report -----

@pytest.fixture
def kernel_calls(monkeypatch):
    calls = {"schmidt": 0, "verdict": 0, "unitarity": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    schmidt = counted("schmidt", hilbert.schmidt)
    monkeypatch.setattr(envariance, "schmidt", schmidt)
    monkeypatch.setattr(frequencies, "schmidt", schmidt)
    monkeypatch.setattr(frequencies, "_envariance_verdict",
                        counted("verdict", frequencies._envariance_verdict))
    monkeypatch.setattr(hilbert, "_unitarity_deviation",
                        counted("unitarity", hilbert._unitarity_deviation))
    return calls


@pytest.mark.parametrize("pairs, decompositions", [(8, 1), (0, 0)])
def test_one_schmidt_decomposition_per_report(pairs, decompositions, kernel_calls):
    spec = ExperimentSpec(m=1, M=2, runs=5)
    route, report = superensemble(spec, swap_pairs=pairs, seed=1)
    assert route == "explicit" and len(report.swap_checks) == pairs
    assert all(c.envariant is True for c in report.swap_checks)
    # every pair still gets a dense verdict, and every swap and counter
    # still passes the unitarity guard
    assert kernel_calls == {"schmidt": decompositions, "verdict": pairs,
                            "unitarity": 2 * pairs}


@pytest.mark.parametrize("m, big_m, runs, phases", [
    (1, 2, 2, (0.0, 0.0)),
    (1, 3, 3, (0.4, -1.3)),
    (2, 3, 4, (0.0, 0.0)),
    (1, 2, 5, (2.1, 0.7)),
])
def test_swap_checks_match_per_pair_decomposition_oracle(m, big_m, runs, phases):
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    state, report = build_superensemble_explicit(spec, phases, swap_pairs=8, seed=3)
    expected = oracle_swap_checks(spec, state, _history_terms(spec, phases), 8, 3)
    assert all(c.envariant is not None for c in expected)
    assert report.swap_checks == expected


# ----- trusted lattice results -----

@st.composite
def event_pairs(draw):
    universe = draw(st.frozensets(st.integers(0, 40), min_size=1, max_size=16))
    members = st.frozensets(st.sampled_from(sorted(universe)))
    return (RecordEvent(universe, draw(members)),
            RecordEvent(universe, draw(members)))


def _same_event(got, expected):
    assert type(got) is RecordEvent
    assert got == expected and hash(got) == hash(expected)


@given(event_pairs())
@settings(max_examples=200, deadline=None)
def test_lattice_results_equal_validated_events(events):
    a, b = events
    _same_event(meet(a, b), oracle_meet(a, b))
    _same_event(join(a, b), oracle_join(a, b))
    _same_event(complement(a), oracle_complement(a))
    _same_event(complement(complement(a)), a)


def test_lattice_results_still_require_one_universe():
    a = RecordEvent(frozenset({0, 1}), frozenset({0}))
    b = RecordEvent(frozenset({0, 1, 2}), frozenset({0}))
    for op in (meet, join):
        with pytest.raises(ValueError, match="different universes"):
            op(a, b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_axioms_matches_validating_oracle(seed, monkeypatch):
    trusted = verify_axioms(12, 500, seed)
    monkeypatch.setattr(records, "meet", oracle_meet)
    monkeypatch.setattr(records, "join", oracle_join)
    monkeypatch.setattr(records, "complement", oracle_complement)
    assert verify_axioms(12, 500, seed) == trusted
    assert trusted.clean and trusted.passes == tuple(
        (name, 500) for name in records.AXIOM_NAMES)
