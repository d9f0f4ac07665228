"""Oracles for the rewritten freq cross-check, unitarity, lattice, counting,
pointer-search, decoherence-sweep and structured-output kernels.

Each oracle is the earlier, slower implementation of a kernel, kept here
verbatim.  The current kernels must reproduce it exactly (``==`` on floats
and arrays, never closeness), because the CLI prints their results and its
output is pinned byte for byte.  Some exceptions compare within a
tolerance: the unitarity deviation of a monomial matrix, which sums the
same products in a different order, and the Schmidt values of a
partial-permutation cut whose nonzeros differ in modulus, or of the
fine-grained state (whose dense build lives in conftest.py), where the SVD
rounds the exact singular values (the moduli) a few more times, all
within a few ulps; there the verdict and the route must agree as well.
And the pointer scores: the dense state kernel (now in conftest.py) takes
the top Gram eigenvalue of each conditional instead of its top singular
value, within 1e-12 of the SVD scores, and the shipped kernel reads the
same Gram matrices off the decoherence matrix, within 1e-12 of the dense
state kernel.  The pointer-search oracles still compare the batched descent
with the per-start descent exactly, both scored by the shipped kernel.  And
the envariance verdicts, counters and fidelities, which the shipped code
reads off r x r Schmidt-coordinate blocks: the dense d x d operators applied
to the whole state (in conftest.py) agree within 1e-12.  And the canonical
basis of a degenerate Schmidt group, which the shipped code builds in the
group's g coordinates and the oracle from the d x d projector: the same
raise or none, the same shape, entries within 1e-12 and orthonormal columns
within 1e-12 (groups of coordinate vectors still agree bit for bit).  And the
decoherence sweep, which the shipped code reads off E E^dagger at each time:
the per-pair oracle rounds each phase differently, so its zeta values agree
within 1e-15 per radian of the largest |g t|, and its times exactly.
"""

import contextlib
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import envlab.born as born
import envlab.cli as cli
import envlab.envariance as envariance
import envlab.frequencies as frequencies
import envlab.hilbert as hilbert
import envlab.pointer as pointer
import envlab.records as records
from envlab.born import WeightVector, _apportion, _chunk_rows, fine_values
from envlab.envariance import (SwapSpec, _envariance_verdict, check_envariance, envcheck_run,
                               protocol_run)
from envlab.frequencies import (
    SWAP_BLOCK_CAP,
    ExperimentSpec,
    SwapCheck,
    _dense_state,
    _history_terms,
    _restoration,
    _sample_pairs,
    _sc_targets,
    history_counts,
    maverick_mass,
    superensemble,
)
from envlab.hilbert import (
    UNITARY_TOL,
    Bipartition,
    LocalUnitary,
    _canonical_group_basis,
    _cut_matrix,
    _unitarity_deviation,
    fidelity,
    schmidt,
    schmidt_values,
)
from envlab.records import (
    AXIOM_NAMES,
    UNIVERSE_CAP,
    AxiomReport,
    RecordEvent,
    _diagonals,
    _random_event,
    complement,
    join,
    meet,
    verify_axioms,
)
from envlab.report import Report, Table, emit_report, format_value
from conftest import (_block_operator, apply_local, dense_counter, dense_envcheck,
                      dense_protocol, dense_verdict, einselection_state, even_cut, fine_grain,
                      oracle_decoherence_factor, phase_unitary, random_unitary, state_scores,
                      unit_state, vector_scores)


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


def oracle_history_terms(spec, phases) -> dict:
    phases = tuple(float(p) for p in phases)
    modulus = spec.M ** (-spec.runs / 2.0)
    terms = {}
    for cells in itertools.product(range(spec.M), repeat=spec.runs):
        idx, total_phase = [], 0.0
        for j in cells:
            s = 0 if j < spec.m else 1
            idx.extend((s, j, j))
            total_phase += phases[s]
        terms[tuple(idx)] = modulus * complex(
            math.cos(total_phase), math.sin(total_phase))
    return terms


def _sc_part(idx: tuple) -> tuple:
    return tuple(x for i, x in enumerate(idx) if i % 3 != 2)


def _full_index(spec, cells: tuple) -> tuple:
    idx = []
    for j in cells:
        idx.extend((0 if j < spec.m else 1, j, j))
    return tuple(idx)


def _interleave(sc, env):
    idx = []
    for l, e in enumerate(env):
        idx.extend((sc[2 * l], sc[2 * l + 1], e))
    return tuple(idx)


def oracle_swap_restoration(spec, pair, phases=(0.0, 0.0)):
    a, b = (tuple(int(j) for j in cells) for cells in pair)
    for cells in (a, b):
        if len(cells) != spec.runs or any(not 0 <= j < spec.M for j in cells):
            raise ValueError(f"history must list {spec.runs} cell indices below {spec.M}")
    if a == b:
        raise ValueError("histories must differ")
    terms = oracle_history_terms(spec, phases)
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
    # a decomposition per pair, then the shipped block check on the swap's
    # exchanged (S, C) entries
    sc_dims = (2, spec.M) * spec.runs
    flat_a = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[0])), sc_dims))
    flat_b = int(np.ravel_multi_index(_sc_part(_full_index(spec, pair[1])), sc_dims))
    dec = schmidt(state, Bipartition(_sc_targets(spec)))
    swapped = dec.left_basis.copy()
    swapped[:, [flat_a, flat_b]] = swapped[:, [flat_b, flat_a]]
    verdict = _envariance_verdict(dec, dec.left_basis.conj() @ swapped.T)
    if not verdict.envariant:
        return False, 0.0
    return True, verdict.restoration


def oracle_swap_checks(spec, state, terms, swap_pairs, seed):
    checks = []
    dense_ok = state is not None and (2 * spec.M) ** spec.runs <= SWAP_BLOCK_CAP
    for pair in _sample_pairs(spec, swap_pairs, seed):
        sparse_fid = _restoration(spec, *terms, pair)
        if dense_ok:
            envariant, counter_fid = oracle_dense_swap_check(spec, state, pair)
            checks.append(SwapCheck(pair, sparse_fid, envariant, counter_fid))
        else:
            checks.append(SwapCheck(pair, sparse_fid))
    return tuple(checks)


def oracle_meet(a, b):
    records._require_shared_universe(a, b)
    return RecordEvent(a.size, a.members & b.members)


def oracle_join(a, b):
    records._require_shared_universe(a, b)
    return RecordEvent(a.size, a.members | b.members)


def oracle_complement(a):
    return RecordEvent(a.size, frozenset(range(a.size)) - a.members)


def oracle_projector(event):
    return np.diag([1.0 if k in event.members else 0.0 for k in range(event.size)])


def oracle_rationalize(amplitudes, m_max: int) -> tuple:
    amps = np.asarray(amplitudes, dtype=complex)
    probs = np.abs(amps) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"squared amplitudes sum to {total!r}, not 1")
    k = len(probs)
    if m_max < k:
        raise ValueError(f"m_max={m_max} cannot give {k} terms weight >= 1")

    best = None
    for big_m in range(k, int(m_max) + 1):
        m = _apportion(probs, big_m)
        err = float(np.max(np.abs(probs - m / big_m)))
        if best is None or err < best[1]:
            best = (m, err, big_m)
    m, err, _ = best
    return WeightVector(tuple(int(x) for x in m)), err


def oracle_schmidt_values(state, cut, zero_tol=1e-12):
    mat, _, _ = _cut_matrix(state, cut)
    s = np.linalg.svd(mat, compute_uv=False)
    s = s[s > zero_tol]
    if s.size == 0:
        raise ValueError("state has no support above zero_tol")
    return s


# the dense projector route: (n, n) projectors, their matrix products and an
# n x n identity; set sides go through the records module, so a fault
# patched into meet, join or complement reaches this oracle too
def _dense_m(a, b):
    return a @ b if isinstance(a, np.ndarray) else records.meet(a, b)


def _dense_j(a, b):
    return a + b - a @ b if isinstance(a, np.ndarray) else records.join(a, b)


def _dense_c(a):
    return np.eye(a.shape[-1]) - a if isinstance(a, np.ndarray) else records.complement(a)


_DENSE_IDENTITIES = (
    ("commutativity", lambda k, l, m, top: (_dense_m(k, l), _dense_m(l, k))),
    ("commutativity", lambda k, l, m, top: (_dense_j(k, l), _dense_j(l, k))),
    ("associativity", lambda k, l, m, top: (_dense_m(_dense_m(k, l), m),
                                            _dense_m(k, _dense_m(l, m)))),
    ("associativity", lambda k, l, m, top: (_dense_j(_dense_j(k, l), m),
                                            _dense_j(k, _dense_j(l, m)))),
    ("absorptivity", lambda k, l, m, top: (_dense_j(k, _dense_m(k, l)), k)),
    ("absorptivity", lambda k, l, m, top: (_dense_m(k, _dense_j(k, l)), k)),
    ("distributivity", lambda k, l, m, top: (_dense_m(k, _dense_j(l, m)),
                                             _dense_j(_dense_m(k, l), _dense_m(k, m)))),
    ("distributivity", lambda k, l, m, top: (_dense_j(k, _dense_m(l, m)),
                                             _dense_m(_dense_j(k, l), _dense_j(k, m)))),
    ("orthocompleteness", lambda k, l, m, top: (_dense_j(k, _dense_c(k)), top)),
    ("orthocompleteness", lambda k, l, m, top: (_dense_m(k, _dense_c(k)), _dense_c(top))),
    ("orthocompleteness", lambda k, l, m, top: (_dense_c(_dense_c(k)), k)),
    ("orthocompleteness", lambda k, l, m, top: (_dense_j(k, _dense_m(l, _dense_c(l))), k)),
    ("orthocompleteness", lambda k, l, m, top: (_dense_m(k, _dense_j(l, _dense_c(l))), k)),
)


def oracle_random_event(rng, n):
    # one draw per record, in record order
    density = rng.random()
    members = frozenset(k for k in range(n) if rng.random() < density)
    return RecordEvent(n, members)


def oracle_verify_axioms(universe_size, trials=500, seed=0):
    n = int(universe_size)
    if n < 1:
        raise ValueError("universe_size must be >= 1")
    top_event = RecordEvent(n, range(n))
    top_matrix = np.eye(n)
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(AXIOM_NAMES, 0)
    violations = []
    for trial in range(int(trials)):
        events = tuple(oracle_random_event(rng, n) for _ in range(3))
        projs = tuple(oracle_projector(e) for e in events)
        failed = set()
        for name, identity in _DENSE_IDENTITIES:
            ev_l, ev_r = identity(*events, top_event)
            mat_l, mat_r = identity(*projs, top_matrix)
            if ev_l.members != ev_r.members:
                failed.add(name)
                violations.append((name, trial, "set sides differ"))
            if float(np.max(np.abs(mat_l - mat_r))) > 1e-12:
                failed.add(name)
                violations.append((name, trial, "projector sides differ"))
            if float(np.max(np.abs(oracle_projector(ev_l) - mat_l))) > 1e-12:
                failed.add(name)
                violations.append((name, trial, "set and projector semantics split"))
        for name in AXIOM_NAMES:
            if name not in failed:
                counts[name] += 1
    return AxiomReport(
        universe_size=n,
        trials=int(trials),
        passes=tuple((name, counts[name]) for name in AXIOM_NAMES),
        violations=tuple(violations),
    )


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


def _same_outcome(block):
    """The group basis and the oracle's of block, after checking that both
    raise alike or neither does (None, None then) and that the shapes agree."""
    try:
        expected = oracle_group_basis(block)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _canonical_group_basis(block)
        return None, None
    got = _canonical_group_basis(block)
    assert got.shape == expected.shape
    return got, expected


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 200), st.data())
@settings(max_examples=120, deadline=None)
def test_group_basis_matches_oracle_within_round_off(seed, dim, data):
    # the oracle projects with the d x d projector, the kernel in the
    # group's g coordinates: the same coordinate vectors are accepted in the
    # same order, and the products round differently
    g = data.draw(st.integers(1, dim))
    n_support = data.draw(st.integers(g, dim))
    scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-10, 5e-10, 2e-9, 5e-9, 3e-8]))
    got, expected = _same_outcome(_group_block(seed, dim, g, n_support, scale))
    if got is not None:
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert np.max(np.abs(got.conj().T @ got - np.eye(g))) <= 1e-12


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
    state = _dense_state(spec, *_history_terms(spec, (0.0, 0.0)))
    sc = [i for i in range(3 * runs) if i % 3 != 2]
    env = [i for i in range(3 * runs) if i % 3 == 2]
    mat = np.transpose(state.amps.reshape(state.dims), sc + env)
    u, s, _ = np.linalg.svd(mat.reshape(4 ** runs, -1), full_matrices=False)
    group = u[:, s > 1e-12]
    assert group.shape[1] == 2 ** runs
    # a group of coordinate vectors: the two routes agree bit for bit
    got, expected = _same_outcome(group)
    assert np.array_equal(got, expected)


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


# left block dims, its subsystem labels in block order, and a unitary's targets
TARGET_ORDERS = [
    ((2, 3, 2, 2), (0, 1, 2, 3), (0, 2)),        # non-contiguous
    ((2, 3, 2, 2), (0, 1, 2, 3), (3, 1)),        # reversed, non-contiguous
    ((2, 3, 4), (0, 1, 2), (2, 1, 0)),           # every axis, reversed
    ((3, 2, 2), (7, 4, 5), (5, 7)),              # unsorted subsystem labels
    ((2, 2) * 3, (0, 1, 3, 4, 6, 7), (0, 1, 3, 4, 6, 7)),  # freq's (S, C) block
]


@pytest.mark.parametrize("left_dims, left, targets", TARGET_ORDERS)
def test_block_operator_target_orders(left_dims, left, targets):
    _check_block_operator(11, left_dims, left, targets)


def test_block_operator_is_checked_against_the_budget():
    # a 2x2 unitary on a (2, 1100) left block would need a 2200 x 2200
    # operator, above the amplitude cap, which the budget used to refuse;
    # the unitary now acts on the r left Schmidt vectors alone, so the
    # verdict comes back in a fraction of that operator's 74 MiB
    assert born.DENSE_AMPLITUDE_CAP == 2048 ** 2 < 2200 ** 2
    state = unit_state((2, 1100, 2), np.ones(4400))
    u = LocalUnitary((0,), np.array([[0, 1], [1, 0]]))
    tracemalloc.start()
    try:
        verdict = check_envariance(state, Bipartition((0, 1)), u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rank one: the swap moves |s_0> = |+>|1100-uniform> onto itself
    assert verdict.envariant and verdict.restoration >= 1 - 1e-12
    assert peak <= 2 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ----- Schmidt-coordinate envariance against the dense operators -----

def _labelled_state(rng, kind, left_dims, left, right_dim):
    """A state whose subsystems ``left`` (in block order) have ``left_dims``;
    the first other label has ``right_dim`` levels and the rest one.

    ``kind`` is "random", "rank-deficient" (Schmidt rank one below full) or
    "degenerate" (a leading group of equal coefficients, random phases).
    """
    n = max(left) + 2
    dims = [1] * n
    for label, d in zip(left, left_dims):
        dims[label] = d
    right = [i for i in range(n) if i not in left]
    dims[right[0]] = right_dim
    order = sorted(left) + right
    dl, dr = math.prod(left_dims), right_dim
    rank = min(dl, dr)
    if kind == "random":
        mat = rng.standard_normal((dl, dr)) + 1j * rng.standard_normal((dl, dr))
    else:
        k = max(rank - 1, 1) if kind == "rank-deficient" else rank
        mods = rng.uniform(0.2, 1.0, k)
        if kind == "degenerate":
            mods[:max(2, k - 1)] = mods.max()
        coeffs = mods * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        mat = (random_unitary(rng, dl)[:, :k] * coeffs) @ random_unitary(rng, dr)[:k]
    tens = mat.reshape([dims[i] for i in order])
    tens = np.transpose(tens, np.argsort(order))
    return unit_state(dims, tens.reshape(-1)), Bipartition(tuple(left))


def _same_verdict(got, want, state, cut, u):
    assert got.envariant == want.envariant
    assert abs(got.gram_deviation - want.gram_deviation) <= 1e-12
    assert abs(got.residual_infidelity - want.residual_infidelity) <= 1e-12
    moved = apply_local(state, u)
    assert abs(got.overlap - fidelity(state, moved)) <= 1e-12
    if want.counter is None:
        assert got.counter is None and got.restoration == 0.0
        return
    right = cut.sides(state.n_subsystems)[1]
    lifted = dense_counter(got.counter, right)
    assert np.max(np.abs(lifted.matrix - want.counter.matrix)) <= 1e-12
    restored = fidelity(state, apply_local(moved, want.counter))
    assert abs(got.restoration - restored) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(TARGET_ORDERS),
       st.sampled_from(["random", "rank-deficient", "degenerate"]), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_schmidt_blocks_match_the_dense_oracle(seed, order, kind, right_dim):
    rng = np.random.default_rng(seed)
    left_dims, left, targets = order
    state, cut = _labelled_state(rng, kind, left_dims, left, right_dim)
    dec = schmidt(state, cut)
    r = dec.n_terms

    # a random unitary on the targets, and a Schmidt-phase rotation of the
    # whole block, which is envariant and gets the polished counter
    td = math.prod(left_dims[left.index(t)] for t in targets)
    u = LocalUnitary(targets, random_unitary(rng, td))
    _same_verdict(check_envariance(state, cut, u), dense_verdict(dec, u), state, cut, u)
    phases = rng.uniform(0, 2 * np.pi, r)
    u = phase_unitary(dec, phases)
    _same_verdict(check_envariance(state, cut, u), dense_verdict(dec, u), state, cut, u)

    # Schmidt-term phases with their analytic counter
    run = envcheck_run(state, cut, phases=phases)
    want, counter, overlap, restoration = dense_envcheck(state, cut, phases=phases)
    assert run.envariant == want.envariant
    assert abs(run.overlap - overlap) <= 1e-12
    assert abs(run.restoration - restoration) <= 1e-12
    right = cut.sides(state.n_subsystems)[1]
    assert np.max(np.abs(dense_counter(run.counter, right).matrix - counter.matrix)) <= 1e-12

    # a phased swap of two terms and its counterswap
    k, l = (int(i) for i in rng.integers(0, r, 2))
    spec = SwapSpec(k, l, float(rng.uniform(0, 2 * np.pi)))
    got = protocol_run(state, cut, spec).steps
    for (label, fid), (want_label, want_fid) in zip(got, dense_protocol(state, cut, spec)):
        assert label == want_label and abs(fid - want_fid) <= 1e-12

    # a rotation of the degenerate group onto a random basis of its span
    if kind == "degenerate" and r >= 2:
        mods = np.abs(dec.coeffs)
        group = [i for i in range(r) if abs(mods[i] - mods[0]) <= 1e-9 * mods[0]]
        basis = random_unitary(rng, len(group)) @ dec.left_basis[group]
        run = envcheck_run(state, cut, basis=basis)
        want, counter, overlap, restoration = dense_envcheck(state, cut, basis=basis)
        assert run.envariant == want.envariant
        assert abs(run.gram_deviation - want.gram_deviation) <= 1e-12
        assert abs(run.overlap - overlap) <= 1e-12
        assert abs(run.restoration - restoration) <= 1e-12
        lifted = dense_counter(run.counter, right)
        assert np.max(np.abs(lifted.matrix - counter.matrix)) <= 1e-12


def _partial_on_an_even_pair(rows, tmp_path, capsys):
    # --partial on the even pair |0>, |1> of a 3 x 3 state
    state, basis = tmp_path / "even.state", tmp_path / "basis.txt"
    amps = np.zeros(9)
    amps[0] = amps[4] = math.sqrt(0.5)
    hilbert.save_state(hilbert.StateVector((3, 3), amps), state)
    np.savetxt(basis, rows)
    code = cli.main(["envcheck", "--state", str(state), "--cut", "0", "--partial", str(basis)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("tilt, shown", [(1e-6, "1e-06"), (1e-9, "1e-09")])
def test_partial_basis_tilted_out_of_the_span_exits_two(tilt, shown, tmp_path, capsys):
    # a Hadamard with one row tilted toward |2>, off the Schmidt span: the
    # rotation could not be unitary
    half = math.cos(tilt) / math.sqrt(2)
    rows = [[half, half, math.sin(tilt)], [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0]]
    assert _partial_on_an_even_pair(rows, tmp_path, capsys) == (
        2, "", f"error: matrix deviates from unitarity by {shown}\n")


@pytest.mark.parametrize("stretch, code", [(1e-10, 2), (4e-11, 0)])
def test_partial_basis_stretched_in_the_span_is_checked(stretch, code, tmp_path, capsys):
    # a Hadamard row 1 + stretch long stays in the span, and passes the 1e-9
    # orthonormality check; the system block's unitarity guards it
    rows = np.diag([1 + stretch, 1.0]) @ np.array([[1, 1, 0], [1, -1, 0]]) / math.sqrt(2)
    got = _partial_on_an_even_pair(rows, tmp_path, capsys)
    assert got[0] == code
    if code == 2:
        assert got[1:] == ("", "error: matrix deviates from unitarity by 2e-10\n")


# ----- history expansion and sparse swap restoration -----

SMALL_SPECS = [(m, big_m, runs) for big_m in (2, 3, 4) for m in range(1, big_m)
               for runs in range(1, 9) if big_m ** runs <= 256]


@given(st.sampled_from(SMALL_SPECS),
       st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)))
@settings(max_examples=120, deadline=None)
def test_history_expansion_matches_dict_oracle(spec_args, phases):
    # the same keys in the same order, and the same amplitudes bit for bit
    spec = ExperimentSpec(*spec_args)
    keys, amps = _history_terms(spec, phases)
    terms = oracle_history_terms(spec, phases)
    assert [tuple(k) for k in keys.tolist()] == list(terms)
    assert [repr(a) for a in amps.tolist()] == [repr(a) for a in terms.values()]


@given(st.sampled_from(SMALL_SPECS), st.integers(0, 2 ** 32 - 1),
       st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)))
@settings(max_examples=120, deadline=None)
def test_swap_restoration_matches_oracle_bit_for_bit(spec_args, seed, phases):
    spec = ExperimentSpec(*spec_args)
    for pair in _sample_pairs(spec, 3, seed):
        assert _restoration(spec, *_history_terms(spec, phases), pair) == \
            oracle_swap_restoration(spec, pair, phases)


def test_report_restorations_match_oracle_bit_for_bit(monkeypatch):
    spec = ExperimentSpec(m=1, M=3, runs=4)
    phases = (0.4, -1.3)
    route, dense = superensemble(history_counts(spec), phases, swap_pairs=4, seed=2)
    assert route == "explicit"
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 18 ** 4 - 1)
    route, sparse = superensemble(history_counts(spec), phases, swap_pairs=4, seed=2)
    assert route == "sparse-census"
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
        assert maverick_mass(history_counts(spec), delta_r) == oracle_maverick_mass(spec, delta_r)


@pytest.mark.parametrize("m, big_m, runs", [(1, 3, 30), (2, 5, 17), (3, 7, 12)])
def test_maverick_mass_matches_fraction_sum_at_every_tie(m, big_m, runs):
    # a threshold equal to some |n/N - |beta|^2| puts that n on the boundary
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    tally = history_counts(spec)
    ties = {abs(Fraction(n, runs) - spec.beta_sq) for n in range(runs + 1)}
    for delta_r in sorted(t for t in ties if 0 < t < 1):
        assert maverick_mass(tally, delta_r) == oracle_maverick_mass(spec, delta_r)


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
def test_one_expansion_per_report(pairs, expansion_counter, monkeypatch):
    spec = ExperimentSpec(m=1, M=3, runs=3)
    route, report = superensemble(history_counts(spec), swap_pairs=pairs, seed=4)
    assert route == "explicit"
    assert len(report.swap_checks) == pairs and len(expansion_counter) == 1
    route, report = superensemble(history_counts(spec), swap_pairs=pairs, seed=4,
                                  with_register=True)
    assert route == "explicit"
    assert report.swap_checks == () and len(expansion_counter) == 2
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 18 ** 3 - 1)
    route, report = superensemble(history_counts(spec), swap_pairs=pairs, seed=4)
    assert route == "sparse-census"
    assert len(report.swap_checks) == pairs and len(expansion_counter) == 3


def test_one_history_expansion_per_restoration_call(expansion_counter):
    # _restoration reads the expansion it is given and builds none of its own
    spec = ExperimentSpec(m=1, M=2, runs=3)
    keys, amps = frequencies._history_terms(spec, (0.0, 0.0))
    assert _restoration(spec, keys, amps, ((0, 1, 0), (0, 1, 1))) >= 1 - 1e-12
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
    route, report = superensemble(history_counts(spec), swap_pairs=pairs, seed=1)
    assert route == "explicit" and len(report.swap_checks) == pairs
    assert all(c.envariant is True for c in report.swap_checks)
    # every pair still gets a dense verdict; no swap or counter is built as
    # a LocalUnitary, so none passes the unitarity guard
    assert kernel_calls == {"schmidt": decompositions, "verdict": pairs,
                            "unitarity": 0}


@pytest.mark.parametrize("m, big_m, runs, phases", [
    (1, 2, 2, (0.0, 0.0)),
    (1, 3, 3, (0.4, -1.3)),
    (2, 3, 4, (0.0, 0.0)),
    (1, 2, 5, (2.1, 0.7)),
])
def test_swap_checks_match_per_pair_decomposition_oracle(m, big_m, runs, phases):
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    route, report = superensemble(history_counts(spec), phases, swap_pairs=8, seed=3)
    assert route == "explicit"
    terms = _history_terms(spec, phases)
    expected = oracle_swap_checks(spec, _dense_state(spec, *terms), terms, 8, 3)
    assert all(c.envariant is not None for c in expected)
    assert report.swap_checks == expected


# ----- trusted lattice results -----

@st.composite
def event_pairs(draw):
    size = draw(st.integers(1, 41))
    members = st.frozensets(st.integers(0, size - 1))
    return (RecordEvent(size, draw(members)),
            RecordEvent(size, draw(members)))


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
    a = RecordEvent(2, frozenset({0}))
    b = RecordEvent(3, frozenset({0}))
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


# ----- pruned denominator scan -----

@st.composite
def spectra(draw):
    k = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # heavy tails over twelve decades: the small entries get lifted
        weights = [10.0 ** draw(st.floats(-12, 0)) for _ in range(k)]
    else:
        # small integer weights: equal entries and exact error ties
        weights = [draw(st.integers(1, 4)) for _ in range(k)]
    amps = np.sqrt(np.array(weights, dtype=float) / math.fsum(weights))
    return amps, draw(st.integers(k, k + 300))


@given(spectra())
@settings(max_examples=150, deadline=None)
def test_rationalize_matches_full_scan(spectrum):
    amps, m_max = spectrum
    assert born.rationalize(amps, m_max) == oracle_rationalize(amps, m_max)


@pytest.mark.parametrize("weights", [(1,), (1, 1), (1,) * 7, (1,) * 40, (1, 2),
                                     (2, 3, 5), (1, 1, 2, 2), (100, 150, 250)])
def test_rationalize_ties_match_full_scan(weights):
    amps = np.sqrt(np.array(weights) / sum(weights))
    for m_max in (len(weights), 2 * sum(weights), 3 * sum(weights) + 1):
        assert born.rationalize(amps, m_max) == oracle_rationalize(amps, m_max)


def test_rationalize_tie_goes_to_the_smaller_denominator():
    # errors tie exactly at M = 46, 48 and 50, and the larger M has the
    # smaller bound, so it is visited first and must not win the tie
    weights = np.array([0.2561585805028376, 0.007464455171485789, 0.22390621005583314,
                        0.004115289925779774, 0.0025445270174136313])
    amps = np.sqrt(weights / weights.sum())
    bounds = born._error_bounds(np.abs(amps.astype(complex)) ** 2, 46, 51)
    assert bounds[4] < bounds[2] < bounds[0]
    weights_m, err = born.rationalize(amps, 50)
    assert weights_m.M == 46 and (weights_m, err) == oracle_rationalize(amps, 50)


# the counting workload's three rationalize inputs, and the _apportion calls
# the pruned scan makes on them (the full scan makes 1681, 1801 and 1985)
COUNTING_CALLS = {
    "gaussian": (["continuum", "--dx", "0.05", "--interval=-1,1", "--m-max", "2000"],
                 389),
    "adaptive": (["continuum", "--adaptive", "--cells", "200", "--x0=-6", "--x1", "6",
                  "--m-max", "2000"], 23),
    "rand64": (["born", "--state", "{state}", "--cut", "0", "--m-max", "2048"], 1),
}


@pytest.fixture(scope="module")
def counting_spectra(tmp_path_factory):
    state = str(tmp_path_factory.mktemp("counting") / "rand64.state")
    runs = {}
    real_rationalize, real_apportion = born.rationalize, born._apportion
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["state", "--dims", "64,64", "--seed", "1",
                         "--save", state]) == 0
        for name, (argv, _) in COUNTING_CALLS.items():
            run = runs[name] = {"apportion": 0}

            def spy(amplitudes, m_max, run=run):
                run["input"] = (np.array(amplitudes), m_max)
                return real_rationalize(amplitudes, m_max)

            def counted(probs, big_m, run=run):
                run["apportion"] += 1
                return real_apportion(probs, big_m)

            mp.setattr(born, "rationalize", spy)
            mp.setattr(born, "_apportion", counted)
            assert cli.main([state if a == "{state}" else a for a in argv]) == 0
    return runs


@pytest.mark.parametrize("name", sorted(COUNTING_CALLS))
def test_rationalize_on_counting_spectra_matches_full_scan(name, counting_spectra):
    amps, m_max = counting_spectra[name]["input"]
    assert born.rationalize(amps, m_max) == oracle_rationalize(amps, m_max)


@pytest.mark.parametrize("name", sorted(COUNTING_CALLS))
def test_pruned_scan_work_count(name, counting_spectra):
    # a change that quietly undoes the pruning fails here
    assert counting_spectra[name]["apportion"] <= COUNTING_CALLS[name][1]


@pytest.mark.parametrize("rows", [1, 3])
def test_chunked_bounds_match_unchunked(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    weights = 10.0 ** rng.uniform(-9, 0, 20)
    amps = np.sqrt(weights / math.fsum(weights))
    probs = np.abs(amps.astype(complex)) ** 2
    whole = born._error_bounds(probs, 20, 260)
    # the cap shrinks to 3 or 1 rows of 20 per chunk, and the visit to
    # blocks of 60 or 20 denominators
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 512 * 20 * rows)
    assert _chunk_rows(20) == rows and _chunk_rows(1) == 20 * rows
    assert np.array_equal(born._error_bounds(probs, 20, 260), whole)
    assert born.rationalize(amps, 259) == oracle_rationalize(amps, 259)


def test_chunks_fit_the_budget_by_arithmetic():
    cap = born.DENSE_AMPLITUDE_CAP
    for row in (1, 64, 320, 12 * 12, 90 * 90):
        assert 512 * row * _chunk_rows(row) <= cap
    # a row over the chunk share, even one over the whole cap, is a chunk alone
    assert _chunk_rows(91 * 91) == 1 and _chunk_rows(4000 * 4000) == 1


# ----- Schmidt values of partial-permutation cuts -----

@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("weights", [(1, 1), (2, 3, 5), (1, 2, 3, 4, 5, 6, 7),
                                     (100, 150, 250)])
def test_fine_grained_values_equal_the_svd(weights, svd_calls):
    fine = fine_grain(WeightVector(weights), np.zeros(len(weights)))
    got = schmidt_values(fine, even_cut())
    assert svd_calls == []
    assert np.array_equal(got, oracle_schmidt_values(fine, even_cut()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=5).filter(lambda m: sum(m) <= 40),
       st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
def test_fine_values_equal_the_dense_svd(weights, phases):
    # the dense oracle builds the n x M x M state and takes its singular values
    w, phases = WeightVector(weights), phases[:len(weights)]
    got = fine_values(w, phases)
    expected = oracle_schmidt_values(fine_grain(w, phases), even_cut())
    assert got.shape == expected.shape == (w.M,)
    assert np.all(np.abs(got - expected) <= 8 * np.spacing(expected))
    assert envariance.is_even(got) == envariance.is_even(expected)


@st.composite
def partial_permutations(draw):
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    k = draw(st.integers(1, min(rows, cols)))
    r = draw(st.permutations(range(rows)))[:k]
    c = draw(st.permutations(range(cols)))[:k]
    mods = draw(st.lists(st.floats(1e-5, 1.0), min_size=k, max_size=k))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k))
    mat = np.zeros((rows, cols), dtype=complex)
    mat[r, c] = np.array(mods) * np.exp(1j * np.array(phases))
    return mat


@given(partial_permutations())
@settings(max_examples=200, deadline=None)
def test_partial_permutation_values_match_the_svd(mat):
    # zero rows and columns wherever k < rows or cols
    state = unit_state(mat.shape, mat.reshape(-1))
    cut = Bipartition((0,))
    calls = []
    real = np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        got = schmidt_values(state, cut)
    expected = oracle_schmidt_values(state, cut)
    assert calls == []
    assert got.shape == expected.shape
    assert np.all(np.diff(got) <= 0)
    assert np.all(np.abs(got - expected) <= 8 * np.spacing(expected))


@pytest.mark.parametrize("extra", [(1, 3), (0, 2)], ids=["second-in-column",
                                                      "second-in-row"])
def test_near_partial_permutation_takes_the_svd(extra, svd_calls):
    mat = np.zeros((6, 4), dtype=complex)
    mat[[0, 2, 5], [3, 0, 1]] = [0.6, 0.64j, -0.48]
    mat[extra] = 1e-14
    state = unit_state(mat.shape, mat.reshape(-1))
    got = schmidt_values(state, Bipartition((0,)))
    assert svd_calls == [(6, 4)]
    assert np.array_equal(got, oracle_schmidt_values(state, Bipartition((0,))))


def test_born_weights_takes_no_svd(svd_calls):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["born", "--weights", "100,150,250", "--subset", "0,1"]) == 0
    assert svd_calls == []
    assert "fine_terms = 500" in out.getvalue() and "fine_even = true" in out.getvalue()


# ----- projector diagonals for the axioms -----

@pytest.mark.parametrize("n", range(1, 13))
def test_projectors_from_masks_match_list_oracle(n):
    events = [RecordEvent(n, frozenset(k for k in range(n) if bits >> k & 1))
              for bits in range(2 ** n)]
    expected = np.stack([np.diag(oracle_projector(e)) for e in events])
    assert np.array_equal(_diagonals(events, n), expected)


@given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
@example(UNIVERSE_CAP, 5)
@settings(max_examples=60, deadline=None)
def test_vector_draw_matches_per_record_draw(n, seed):
    drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _random_event(drawn, n) == oracle_random_event(expected, n)
    # the generator is left where the per-record draw leaves it
    assert drawn.random() == expected.random()


@pytest.mark.parametrize("universe", [1, 6, 12, 40, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_axioms_matches_per_trial_oracle(universe, seed):
    assert verify_axioms(universe, 300, seed) == oracle_verify_axioms(universe, 300, seed)


def _faulty_meet(a, b):
    return records._lattice_result(a.size, a.members | b.members)


def _faulty_matrix_meet(a, b):
    # halves a diagonal stack and a dense diagonal matrix alike
    return 0.5 * (a * b) if isinstance(a, np.ndarray) else records.meet(a, b)


@pytest.mark.parametrize("name, fault", [("meet", _faulty_meet),
                                         ("_m", _faulty_matrix_meet)])
def test_verify_axioms_violations_keep_their_order(name, fault, monkeypatch):
    monkeypatch.setattr(records, name, fault)
    if name == "_m":  # the oracle's own mirror takes the same fault
        monkeypatch.setitem(globals(), "_dense_m", fault)
    got = verify_axioms(6, 40, 2)
    assert got.violations and not got.clean
    assert got == oracle_verify_axioms(6, 40, 2)


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_chunked_axiom_stacks_match_per_trial_oracle(per_chunk, monkeypatch):
    expected = oracle_verify_axioms(12, 40, 3)
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 512 * 12 * per_chunk)
    assert _chunk_rows(12) == per_chunk
    assert verify_axioms(12, 40, 3) == expected
    monkeypatch.setattr(records, "meet", _faulty_meet)
    assert verify_axioms(12, 40, 3) == oracle_verify_axioms(12, 40, 3)


def test_axiom_audit_holds_no_dense_projectors():
    # the (trials, n, n) stacks of the dense route took 21 MiB here
    tracemalloc.start()
    try:
        verify_axioms(512, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# ----- pointer search, decoherence sweep and structured output -----

def oracle_vector_scores(psi, first, vectors):
    # the SVD scoring kernel: 1 - s_max^2 of every normalized conditional
    cond = vectors.conj() @ psi
    weights = np.linalg.norm(cond, axis=-1)
    live = weights >= hilbert.ZERO_PROJECTION_TOL
    rows = cond[live] / weights[live][:, None]
    top = np.linalg.svd(rows.reshape(len(rows), first, -1), compute_uv=False)[:, 0]
    scores = np.zeros(weights.shape)
    scores[live] = np.clip(1.0 - top * top, 0.0, 1.0)
    return scores


@st.composite
def conditional_stacks(draw, first):
    # a (d, first * rest) state matrix whose rows are product, maximally
    # entangled or generic conditionals, some but not all of them zero (the
    # SVD kernel cannot reshape an empty stack), and a (n, d, d) stack of
    # candidate vectors: the coordinate vectors (each picks one row, so zero
    # rows give zero-weight vectors) and random unit vectors
    rest, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["product", "maximal", "generic", "zero"]),
                          min_size=d, max_size=d).filter(lambda ks: set(ks) != {"zero"}))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rows = []
    for kind in kinds:
        if kind == "product":
            row = np.outer(cplx(first), cplx(rest))
        elif kind == "maximal":
            k = min(first, rest)
            left = np.linalg.qr(cplx(first, first))[0][:, :k]
            right = np.linalg.qr(cplx(rest, rest))[0][:k]
            row = left @ right
        elif kind == "generic":
            row = cplx(first, rest)
        else:
            row = np.zeros((first, rest))
        rows.append(rng.uniform(0.1, 3.0) * row.reshape(-1))
    vectors = cplx(draw(st.integers(1, 4)), d, d)
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    vectors[0] = np.eye(d)
    return np.array(rows, dtype=complex), vectors


# the dense state kernel is the oracle of the decoherence-matrix kernel
# below, so it is checked against the SVD scores first
@pytest.mark.parametrize("first", range(1, 8))  # 2 is the closed form
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_gram_scores_match_the_svd_scores(first, data):
    psi, vectors = data.draw(conditional_stacks(first))
    got = vector_scores(psi, first, vectors)
    want = oracle_vector_scores(psi, first, vectors)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12)
    zero = np.linalg.norm(vectors.conj() @ psi, axis=-1) < hilbert.ZERO_PROJECTION_TOL
    assert np.all(got[zero] == 0.0)


def test_gram_scores_of_product_and_maximally_entangled_conditionals():
    # exact landmarks: a product scores 0, k evenly entangled terms 1 - 1/k
    rng = np.random.default_rng(5)
    for first, rest in [(1, 3), (2, 2), (2, 5), (3, 3), (4, 2), (7, 8)]:
        k = min(first, rest)
        u = np.linalg.qr(rng.normal(size=(first, first)))[0][:, :k]
        v = np.linalg.qr(rng.normal(size=(rest, rest)))[0][:k]
        psi = np.stack([np.outer(rng.normal(size=first), rng.normal(size=rest)).reshape(-1),
                        (u @ v).reshape(-1)])
        got = vector_scores(psi, first, np.eye(2, dtype=complex))
        assert abs(got[0]) <= 1e-15 and abs(got[1] - (1 - 1 / k)) <= 1e-14


@st.composite
def einselection_draws(draw):
    # couplings (ready row plus K records), a spectrum, a time and K branch
    # amplitudes, some of them zero, and a stack of candidate bases: the
    # coordinate basis, one mixing the ready level into the records, and
    # Haar-random bases
    n_rec, levels = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = pointer.CouplingMatrix(rng.uniform(-8.0, 8.0, (n_rec + 1, levels)))
    gamma = rng.normal(size=levels) + 1j * rng.normal(size=levels)
    spectrum = pointer.EnvSpectrum(gamma / np.linalg.norm(gamma))
    amps = rng.normal(size=n_rec) + 1j * rng.normal(size=n_rec)
    amps[draw(st.lists(st.integers(0, n_rec - 1), max_size=n_rec - 1))] = 0.0
    d = n_rec + 1
    mixed = np.eye(d, dtype=complex)
    mixed[[0, 0, -1, -1], [0, -1, 0, -1]] = np.array([1.0, 1.0, 1.0, -1.0]) / math.sqrt(2)
    bases = np.stack([np.eye(d, dtype=complex), mixed]
                     + [random_unitary(rng, d) for _ in range(draw(st.integers(0, 3)))])
    return g, spectrum, draw(st.floats(0.0, 20.0)), amps / np.linalg.norm(amps), bases


@given(einselection_draws())
@settings(max_examples=100, deadline=None)
def test_decoherence_matrix_scores_match_the_dense_state_scores(run):
    # scoring D_c Z D_c^dagger against scoring the conditionals of the whole
    # evolved state, which the pointer route used to build
    g, spectrum, t, amps, bases = run
    zeta = pointer.decoherence_matrix(g, spectrum, t)
    got = np.stack([pointer.pointer_score(amps, zeta, basis).per_outcome for basis in bases])
    want = state_scores(einselection_state(g, spectrum, amps, t), 0, bases)
    assert np.all(np.abs(got - want) <= 1e-12)
    zero = np.abs(bases[:, :, 1:].conj() * amps).max(axis=2) == 0.0
    assert np.all(got[zero] == 0.0) and np.all(want[zero] == 0.0)


@given(einselection_draws())
@settings(max_examples=60, deadline=None)
def test_decoherence_matrix_matches_the_decoherence_factors(run):
    # Z multiplies e^{-i g_k t} by e^{i g_l t} where the factor takes one
    # e^{i (g_l - g_k) t}; each phase carries its own rounding of about
    # 1e-16 per radian, so the two agree to 1e-15 per radian of the largest
    # |g t|, and to 1e-15 below one radian
    g, spectrum, t, _, _ = run
    zeta = pointer.decoherence_matrix(g, spectrum, t)
    n_rec = g.n_records - 1
    assert zeta.shape == (n_rec, n_rec)
    tol = 1e-15 * max(1.0, float(np.max(np.abs(g.g))) * t)
    for k in range(1, n_rec + 1):
        for l in range(1, n_rec + 1):
            assert abs(zeta[k - 1, l - 1] - oracle_decoherence_factor(g, spectrum, k, l, t)) \
                <= tol


def test_chunked_decoherence_matrix_and_scores_match_whole(monkeypatch):
    # a chunk of one level for Z and of one vector for the scores
    g = pointer.CouplingMatrix(np.random.default_rng(4).uniform(0.0, 7.0, (4, 16)))
    spectrum = pointer.EnvSpectrum.uniform(16)
    amps = np.array([0.6, 0.0, 0.8], dtype=complex)
    bases = np.stack([random_unitary(np.random.default_rng(s), 4) for s in range(5)])
    whole = pointer.decoherence_matrix(g, spectrum, 2.5)
    scores = pointer._zeta_scores(amps, whole, bases)
    assert _chunk_rows(3) >= 16 and _chunk_rows(9) >= 5 * 4  # premise: one chunk each
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 512 * 3)
    assert _chunk_rows(3) == 1 and _chunk_rows(9) == 1
    assert np.max(np.abs(pointer.decoherence_matrix(g, spectrum, 2.5) - whole)) <= 1e-15
    assert np.array_equal(pointer._zeta_scores(amps, whole, bases), scores)


def oracle_scores(amps, zeta, bases):
    # scores (n, K + 1) of a stack of candidate bases (n, K + 1, K + 1): every
    # conditional of every basis comes from one call of the shipped scoring
    # kernel
    d = amps.size + 1
    if bases.shape[1:] != (d, d):
        raise ValueError(f"candidate basis must be {d} x {d}, one vector per row")
    gram = bases.conj() @ bases.transpose(0, 2, 1)
    if np.max(np.abs(gram - np.eye(d))) > 1e-9:
        raise ValueError("candidate basis is not orthonormal")
    return pointer._zeta_scores(amps, zeta, bases)


def oracle_descend(amps, zeta, basis, value, iterations):
    d = basis.shape[0]
    span = math.pi / 2
    phis = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    for _ in range(max(1, int(iterations))):
        # the 32 two-level rotations of this bracket, theta slow and phi fast
        grid = [(float(t), p) for t in np.linspace(-span, span, 9) if t != 0.0
                for p in phis]
        c = np.array([math.cos(t) for t, _ in grid])[:, None]
        s = np.array([math.sin(t) * complex(math.cos(p), math.sin(p))
                      for t, p in grid])[:, None]
        for i in range(d):
            for j in range(i + 1, d):
                # mixing rows i and j with c real keeps each trial orthonormal
                trials = np.repeat(basis[None], len(grid), axis=0)
                trials[:, i] = c * basis[i] + s * basis[j]
                trials[:, j] = -s.conj() * basis[i] + c * basis[j]
                best, best_val = None, value
                for k, v in enumerate(oracle_scores(amps, zeta, trials).max(axis=1)):
                    if v < best_val - 1e-15:
                        best, best_val = k, float(v)
                if best is not None:
                    basis, value = trials[best], best_val
        span *= 0.5
        if value <= 1e-14:
            break
    return basis, value


def oracle_find_pointer_basis(amps, zeta, iterations=48):
    d = amps.size + 1
    if d > pointer.SEARCH_DIM_CAP:
        raise ValueError(f"apparatus dimension {d} above desk scale ({pointer.SEARCH_DIM_CAP})")
    rng = np.random.default_rng(17)  # fixed: the search must be reproducible
    starts = np.stack([np.eye(d, dtype=complex)]
                      + [pointer._haar_basis(rng, d) for _ in range(5)])
    start_scores = oracle_scores(amps, zeta, starts)
    maxima = [float(v) for v in start_scores.max(axis=1)]
    if max(maxima) - min(maxima) <= pointer.FLAT_LANDSCAPE_TOL:
        return starts[0], pointer._as_score(start_scores[0], True)
    best_basis, best_val = starts[0], maxima[0]
    for basis, val in zip(starts, maxima):
        got_basis, got_val = oracle_descend(amps, zeta, basis, val, iterations)
        if got_val < best_val:
            best_basis, best_val = got_basis, got_val
    return best_basis, pointer._as_score(
        oracle_scores(amps, zeta, best_basis[None])[0])


def oracle_decoherence_rows(couplings, spectrum, ts):
    # the sweep as the pointer command printed it: one call per (t, pair)
    n = couplings.n_records
    pairs = [(k, l) for k in range(1, n) for l in range(k + 1, n)]
    zeta_rows = []
    for t in ts:
        row = [float(t)]
        for k, l in pairs:
            z = oracle_decoherence_factor(couplings, spectrum, k, l, float(t))
            row += [float(z.real), float(z.imag), float(abs(z))]
        zeta_rows.append(tuple(row))
    return zeta_rows


def oracle_format_value(value):
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def oracle_emit_structured(rep):
    payload = {
        "title": rep.title,
        "scalars": {name: oracle_format_value(v) for name, v in rep.scalars},
        "tables": [
            {
                "name": t.name,
                "columns": list(t.columns),
                "rows": [[oracle_format_value(c) for c in row] for row in t.rows],
            }
            for t in rep.tables
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _search_branches(g, t, amps):
    # the amplitudes and decoherence matrix `pointer --search` scores, made
    # as the command makes them
    n_rec = g.shape[0] - 1
    if amps is None:
        amps = np.full(n_rec, 1.0 / math.sqrt(n_rec), dtype=complex)
    zeta = pointer.decoherence_matrix(pointer.CouplingMatrix(g),
                                      pointer.EnvSpectrum.uniform(g.shape[1]), t)
    return np.asarray(amps, dtype=complex), zeta


@st.composite
def pointer_runs(draw):
    # couplings, --time, --amps (real, as the command reads them), the sweep
    # and a short search
    n_app, n_lev = draw(st.integers(3, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.uniform(0.0, 2 * math.pi, (n_app, n_lev))
    argv = ["pointer", "--couplings", "g.txt", "--search",
            "--time", repr(draw(st.floats(0.0, 10.0))),
            f"--t0={draw(st.floats(-20.0, 20.0))!r}",
            f"--t1={draw(st.floats(-20.0, 20.0))!r}",
            "--steps", str(draw(st.integers(0, 60))),
            "--iterations", str(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        amps = rng.normal(size=n_app - 1)
        argv.append("--amps=" + ",".join(repr(float(a)) for a in amps))
    return g, argv


@given(pointer_runs())
@settings(max_examples=30, deadline=None)
def test_pointer_route_matches_per_time_and_per_start_oracles(run):
    g, argv = run
    args = cli._build_parser().parse_args(argv)
    couplings = pointer.CouplingMatrix(g)
    with mock.patch.object(cli, "load_couplings", lambda path: couplings):
        rep, _ = cli.HANDLERS["pointer"](args)
    tables = {t.name: t for t in rep.tables}
    spectrum = pointer.EnvSpectrum.uniform(g.shape[1])
    ts = np.linspace(args.t0, args.t1, args.steps)
    # the sweep's Z = E E^dagger rounds each phase apart from the per-pair
    # oracle, so its zeta cells agree within the per-radian rule, t exactly
    shape = (len(ts), len(tables["decoherence"].columns))
    got = np.array(tables["decoherence"].rows, dtype=float).reshape(shape)
    want = np.array(oracle_decoherence_rows(couplings, spectrum, ts), dtype=float).reshape(shape)
    assert np.array_equal(got[:, 0], want[:, 0])
    tol = 1e-15 * max(1.0, float(np.max(np.abs(g))) * float(np.max(np.abs(ts), initial=0.0)))
    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= tol)
    amps = None
    if args.amps:
        raw = np.array(args.amps, dtype=float).astype(complex)
        amps = tuple(raw / np.linalg.norm(raw))
    basis, score = oracle_find_pointer_basis(*_search_branches(g, args.time, amps),
                                             args.iterations)
    # repr, unlike ==, tells -0.0 from 0.0, which print differently
    assert repr(tables["found_basis"].rows) == repr(cli._matrix_table("found_basis", basis).rows)
    assert repr(dict(rep.scalars)["found_score"]) == repr(score.max_score)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_batched_search_matches_oracle_on_random_states(seed, n_rec, levels, iterations):
    # on random branch forms, amplitudes beside unit-norm environment rows
    # E_k, every start and every cached row can decide the outcome; on the
    # command's states the coordinate start usually wins
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_rec) + 1j * rng.normal(size=n_rec)
    env = rng.normal(size=(n_rec, levels)) + 1j * rng.normal(size=(n_rec, levels))
    env /= np.linalg.norm(env, axis=1, keepdims=True)
    amps, zeta = amps / np.linalg.norm(amps), env @ env.conj().T
    basis, score = pointer.find_pointer_basis(amps, zeta, iterations)
    want_basis, want_score = oracle_find_pointer_basis(amps, zeta, iterations)
    assert np.array_equal(basis, want_basis) and score == want_score


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_search_matches_oracle_on_the_search_workload(seed):
    # the benchmark's 3x4 couplings at --time 1.5, full 48 iterations
    g = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (3, 4))
    amps, zeta = _search_branches(g, 1.5, None)
    basis, score = pointer.find_pointer_basis(amps, zeta)
    want_basis, want_score = oracle_find_pointer_basis(amps, zeta)
    assert not score.degenerate_minimum  # premise: the descent runs
    assert np.array_equal(basis, want_basis) and score == want_score


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_chunked_sweep_matches_unchunked(per_chunk, monkeypatch):
    # chunks of times hold all 16 levels, so no sum is reordered
    g = pointer.CouplingMatrix(np.random.default_rng(per_chunk).uniform(0, 7, (4, 16)))
    spectrum = pointer.EnvSpectrum.uniform(16)
    ts = np.linspace(-3.0, 40.0, 101)
    whole = pointer.decoherence_matrix(g, spectrum, ts)
    assert _chunk_rows(3 * 16) >= len(ts)  # premise: the default sweep is one chunk
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 512 * 3 * 16 * per_chunk)
    assert _chunk_rows(3) >= 16 and _chunk_rows(3 * 16) == per_chunk
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    assert np.array_equal(pointer.decoherence_matrix(g, spectrum, ts), whole)
    # every (times, records, levels) temporary stays within the chunk share
    assert max(sizes) <= 3 * 16 * per_chunk <= born.DENSE_AMPLITUDE_CAP // 512


@given(einselection_draws(), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
       st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_every_sweep_row_is_the_decoherence_matrix_at_its_time(run, t0, t1, steps):
    g, spectrum, _, amps, _ = run
    ts = np.linspace(t0, t1, steps)
    zetas = pointer.decoherence_matrix(g, spectrum, ts)
    sweep = pointer.einselection_run(g, spectrum, 1.0, t0, t1, steps, amps).sweep
    assert zetas.shape == (steps, g.n_records - 1, g.n_records - 1) and len(sweep) == steps
    for t, zeta, row in zip(ts, zetas, sweep):
        one = pointer.decoherence_matrix(g, spectrum, t)
        assert np.array_equal(zeta, one)
        pairs = [complex(one[k, l]) for k in range(len(one)) for l in range(k + 1, len(one))]
        assert np.array_equal(row, [t] + [part for z in pairs
                                          for part in (z.real, z.imag, abs(z))])


def test_sweep_refuses_an_overflowing_phase_at_its_first_time():
    g = pointer.CouplingMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]))
    spectrum = pointer.EnvSpectrum.uniform(2)
    ts = np.array([1.0, -1e308, 5e307])
    with pytest.raises(ValueError, match="not finite at t=-1e\\+308"):
        pointer.decoherence_matrix(g, spectrum, ts)
    # the time the pointer command names, not the one of largest modulus
    g10 = pointer.CouplingMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]]))
    with pytest.raises(ValueError, match="not finite at t=5e\\+307"):
        pointer.decoherence_matrix(g10, spectrum, np.linspace(0, 1e308, 3))


_names = st.text(max_size=8)
_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10 ** 20, 10 ** 20),
    st.booleans(), st.none(), st.text(max_size=6),
    st.fractions(max_denominator=1000),
    st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-9, 9)))


@st.composite
def reports(draw):
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        columns = tuple(draw(st.lists(_names, max_size=4)))
        rows = draw(st.lists(st.tuples(*[_cells] * len(columns)), max_size=4))
        tables.append(Table(draw(_names), columns, tuple(rows)))
    scalars = draw(st.lists(st.tuples(_names, _cells), max_size=5))
    title = draw(st.one_of(_names, st.sampled_from(['"q"', "b\\s", "\x00\x1f\t\n", "Σψ—é"])))
    return Report(title, tuple(scalars), tuple(tables))


@given(reports())
@settings(max_examples=300, deadline=None)
def test_structured_output_matches_json_dumps(rep):
    assert emit_report(rep, "structured") == oracle_emit_structured(rep)


@given(_cells)
@settings(max_examples=300, deadline=None)
def test_format_value_matches_isinstance_chain(value):
    assert format_value(value) == oracle_format_value(value)


def test_structured_output_edge_reports():
    # empty scalars and tables, a table with no rows, duplicate scalar names
    # (the last value at the first name's place), quotes, backslashes,
    # control characters and non-ASCII text
    cases = [
        Report("t"),
        Report("", (), (Table("e", (), ()),)),
        Report('a"b\\c\x01', (("x", 1.5), ("y", None), ("x", True)),
               (Table("é", ("c", "d"), ()),
                Table("ψ\n", ("c",), ((Fraction(1, 3),), (" ",))))),
    ]
    for rep in cases:
        assert emit_report(rep, "structured") == oracle_emit_structured(rep)
