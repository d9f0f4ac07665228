import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab.born import WeightVector, born_probabilities, coarse_probability
from envlab.hilbert import Bipartition, StateVector
from envlab.records import (
    AXIOM_NAMES,
    UNIVERSE_CAP,
    RecordEvent,
    complement,
    conditional_probability,
    event_probabilities,
    join,
    lemma5_recursion,
    meet,
    parse_event,
    partition_support,
    verify_axioms,
)
from conftest import build_upsilon
from test_kernel_oracles import oracle_projector


def event(universe_size, *members):
    return RecordEvent(universe_size, frozenset(members))


def test_record_event_validation():
    with pytest.raises(ValueError):
        RecordEvent(0, frozenset())
    with pytest.raises(ValueError):
        RecordEvent(2, frozenset({2}))
    ev = event(4, 1, 3)
    assert np.array_equal(oracle_projector(ev), np.diag([0.0, 1.0, 0.0, 1.0]))


def test_meet_join_complement_basics():
    kappa = event(4, 0, 2)
    lam = event(4, 2, 3)
    assert meet(kappa, kappa) == kappa
    assert join(kappa, complement(kappa)) == event(4, 0, 1, 2, 3)
    assert meet(kappa, lam) == event(4, 2)
    assert join(kappa, lam) == event(4, 0, 2, 3)
    with pytest.raises(ValueError):
        meet(kappa, event(5, 0))


def test_double_complement_identity():
    for members in ((), (0,), (1, 3), (0, 1, 2, 3)):
        ev = event(4, *members)
        assert complement(complement(ev)) == ev


def test_distributivity_concrete_eight_elements():
    kappa = event(8, 0, 1, 2, 5)
    lam = event(8, 1, 3, 5, 7)
    mu = event(8, 2, 3, 4, 5)
    lhs = meet(kappa, join(lam, mu))
    rhs = join(meet(kappa, lam), meet(kappa, mu))
    assert lhs == rhs
    # same identity at the matrix level, written out independently
    pk, pl, pm = oracle_projector(kappa), oracle_projector(lam), oracle_projector(mu)
    mat_lhs = pk @ (pl + pm - pl @ pm)
    mat_rhs = pk @ pl + pk @ pm - (pk @ pl) @ (pk @ pm)
    assert np.array_equal(mat_lhs, mat_rhs)
    assert np.array_equal(mat_lhs, oracle_projector(lhs))


def test_verify_axioms_universe_eight():
    report = verify_axioms(8, trials=500, seed=11)
    assert report.clean
    assert report.universe_size == 8 and report.trials == 500
    assert [name for name, _ in report.passes] == list(AXIOM_NAMES)
    assert all(count == 500 for _, count in report.passes)


def test_verify_axioms_degenerate_universe():
    report = verify_axioms(1, trials=50, seed=3)
    assert report.clean
    assert all(count == 50 for _, count in report.passes)
    with pytest.raises(ValueError):
        verify_axioms(0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_set_and_projector_semantics_agree(data, n):
    mask_a = data.draw(st.integers(0, 2**n - 1))
    mask_b = data.draw(st.integers(0, 2**n - 1))
    a = event(n, *(k for k in range(n) if mask_a >> k & 1))
    b = event(n, *(k for k in range(n) if mask_b >> k & 1))
    pa, pb = oracle_projector(a), oracle_projector(b)
    assert np.array_equal(oracle_projector(meet(a, b)), pa @ pb)
    assert np.array_equal(oracle_projector(join(a, b)), pa + pb - pa @ pb)
    assert np.array_equal(oracle_projector(complement(a)), np.eye(n) - pa)


def test_event_probability_even_universe():
    tally = (1, 1, 1, 1)
    events = (event(4, 1, 2), event(4), event(4, 0, 1, 2, 3))
    assert event_probabilities(tally, events) == (Fraction(1, 2), 0, 1)
    assert event_probabilities(tally, ()) == ()


def test_event_probability_weighted_inputs():
    w = WeightVector((2, 3, 5))
    assert event_probabilities(w.m, [event(3, 0, 2)]) == (Fraction(7, 10),)
    amps = np.sqrt([5 / 8, 3 / 8]).astype(complex)
    state = StateVector((2, 2), np.diag(amps).reshape(-1))
    result = born_probabilities(state, Bipartition((0,)), 16)
    assert event_probabilities(result.weights.m, [event(2, 0)]) == result.probs_exact[:1]
    assert event_probabilities(result.weights.m, [event(2, 0)]) == (Fraction(5, 8),)
    with pytest.raises(ValueError, match="event universe does not match the 3 outcome"):
        event_probabilities(w.m, [event(3, 0), event(4, 0)])
    with pytest.raises(ValueError, match="tally has no support"):
        event_probabilities((0, 0), [event(2, 0)])
    # the tally is checked once per call, even with no event to price
    with pytest.raises(ValueError, match="tally has no support"):
        event_probabilities((0, 0), ())


def test_conditional_probability_is_indicator():
    kappa = event(5, 1, 2)
    assert conditional_probability(kappa, 1) == 1
    assert conditional_probability(kappa, 4) == 0
    with pytest.raises(ValueError):
        conditional_probability(kappa, 7)


def test_additivity_and_monotonicity_exhaustive():
    weights = (3, 1, 4, 1, 5)
    n = len(weights)
    subsets = [frozenset(k for k in range(n) if mask >> k & 1)
               for mask in range(2**n)]
    events = [RecordEvent(n, sa) for sa in subsets]
    probs = event_probabilities(weights, events)
    for sa, a, pa in zip(subsets, events, probs):
        for sb, b, pb in zip(subsets, events, probs):
            if not sa & sb:
                assert event_probabilities(weights, [join(a, b)]) == (pa + pb,)
            if sa <= sb:
                assert pa <= pb


def test_build_upsilon_even_partition():
    tally = (1, 1, 1, 1)
    cells = [event(4, 0, 1), event(4, 2, 3)]
    ups = build_upsilon(tally, cells)
    assert ups.dims == (2, 4)
    tens = ups.tensor()
    coarse = np.sum(np.abs(tens) ** 2, axis=1)
    assert np.allclose(coarse, [0.5, 0.5])
    for c, p in enumerate(event_probabilities(tally, cells)):
        assert abs(coarse[c] - float(p)) < 1e-12
    assert np.allclose(np.abs(tens[0]), [0.5, 0.5, 0.0, 0.0])
    assert partition_support(tally, cells) == np.count_nonzero(ups.amps) == 4


def test_build_upsilon_matches_coarse_probability():
    amps = np.sqrt([1 / 2, 3 / 10, 1 / 5]).astype(complex)
    state = StateVector((3, 3), np.diag(amps).reshape(-1))
    result = born_probabilities(state, Bipartition((0,)), 16)
    cells = [event(3, 0, 1), event(3, 2)]
    ups = build_upsilon(result.weights.m, cells)
    coarse = np.sum(np.abs(ups.tensor()) ** 2, axis=1)
    assert abs(coarse[0] - float(coarse_probability(result, (0, 1)))) < 1e-12
    assert abs(coarse[1] - float(coarse_probability(result, (2,)))) < 1e-12
    assert event_probabilities(result.weights.m, cells) == (
        coarse_probability(result, (0, 1)), coarse_probability(result, (2,)))
    assert partition_support(result.weights.m, cells) == np.count_nonzero(ups.amps)


def test_build_upsilon_singleton_partition_duplicates_fine():
    w = WeightVector((2, 3, 5))
    cells = [event(3, k) for k in range(3)]
    ups = build_upsilon(w.m, cells)
    tens = ups.tensor()
    assert np.allclose(tens, np.diag(np.sqrt([0.2, 0.3, 0.5])))
    assert partition_support(w.m, cells) == np.count_nonzero(ups.amps) == 3


def test_build_upsilon_drops_zero_weight_outcomes():
    tally = (2, 0, 3)
    cells = [event(3, 0, 1), event(3, 2)]
    ups = build_upsilon(tally, cells)
    tens = ups.tensor()
    assert np.all(tens[:, 1] == 0)  # nothing ever records outcome 1
    assert np.allclose(np.sum(np.abs(tens) ** 2, axis=1), [0.4, 0.6])
    assert partition_support(tally, cells) == np.count_nonzero(ups.amps) == 2
    # a zero-weight outcome may also go uncovered
    assert partition_support(tally, [event(3, 0), event(3, 2)]) == 2


def test_build_upsilon_rejects_bad_partitions():
    tally = (1, 1, 1, 1)
    with pytest.raises(ValueError, match="overlap"):
        partition_support(tally, [event(4, 0, 1), event(4, 1, 2, 3)])
    with pytest.raises(ValueError, match=r"misses 2 outcomes, first \[2, 3\]"):
        partition_support(tally, [event(4, 0, 1)])
    with pytest.raises(ValueError, match="at least one cell"):
        partition_support(tally, [])
    with pytest.raises(ValueError, match="universe does not match"):
        partition_support(tally, [event(5, 0, 1), event(5, 2, 3, 4)])
    with pytest.raises(ValueError, match="tally has no support"):
        partition_support((0, 0, 0, 0), [event(4, 0, 1)])
    # the check refuses what the dense oracle refuses, with its message
    for bad_tally, cells in ((tally, [event(4, 0, 1), event(4, 1, 2, 3)]),
                             (tally, [event(4, 0, 1)]), (tally, []),
                             (tally, [event(5, 0, 1), event(5, 2, 3, 4)]),
                             ((0, 0, 0, 0), [event(4, 0, 1)])):
        with pytest.raises(ValueError) as new:
            partition_support(bad_tally, cells)
        with pytest.raises(ValueError) as oracle:
            build_upsilon(bad_tally, cells)
        assert str(new.value) == str(oracle.value)


def test_lemma5_recursion_examples():
    got = lemma5_recursion(event(4, 1, 2))
    assert got == Fraction(3, 4) * Fraction(2, 3)
    assert got == Fraction(1, 2)
    assert lemma5_recursion(event(6, *range(6))) == 1
    assert lemma5_recursion(event(5)) == 0


def test_lemma5_recursion_matches_counting_exhaustively():
    for n in range(1, 9):
        for size in range(n + 1):
            members = range(size)
            assert lemma5_recursion(event(n, *members)) == Fraction(size, n)
    with pytest.raises(ValueError):
        lemma5_recursion(event(3, 5))
    with pytest.raises(ValueError):
        lemma5_recursion(event(0))


def test_parse_event_cli_syntax():
    ev = parse_event("1,2,5", 8)
    assert ev.members == frozenset({1, 2, 5})
    assert ev.size == 8
    assert parse_event("", 4).members == frozenset()
    assert parse_event(" 3 , 1 ", 4).members == frozenset({1, 3})
    with pytest.raises(ValueError):
        parse_event("9", 4)
    with pytest.raises(ValueError):
        parse_event("a,b", 4)


def test_parsed_cells_share_one_universe():
    # every cell used to hold its own set of the 2,049 records, about 370 MiB
    # traced before the partition reached the upsilon budget
    tracemalloc.start()
    try:
        cells = [parse_event(str(k), 2049) for k in range(2049)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert all(cell.size == 2049 for cell in cells)
    with pytest.raises(ValueError, match=r"members \[-1, 9\] outside the universe"):
        parse_event("9,-1,2", 4)
    with pytest.raises(ValueError, match="universe cannot be empty"):
        parse_event("", 0)


def test_universe_size_is_checked_before_its_set_is_built():
    assert parse_event("0", UNIVERSE_CAP).size == UNIVERSE_CAP
    message = f"universe of {UNIVERSE_CAP + 1} records is above the cap of {UNIVERSE_CAP}"
    with pytest.raises(ValueError, match=message):
        parse_event("0", UNIVERSE_CAP + 1)
    with pytest.raises(ValueError, match=message):
        lemma5_recursion(event(UNIVERSE_CAP + 1, 0))
