import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envlab.born as born
import envlab.frequencies as frequencies
from envlab.born import DenseBudgetError, WeightVector
from envlab.frequencies import (
    ExperimentSpec,
    HistoryTally,
    SuperensembleReport,
    SwapCheck,
    _dense_state,
    _history_terms,
    _restoration,
    deviation,
    frequency_distribution,
    gaussian_approx,
    gaussian_reference,
    history_counts,
    maverick_mass,
    multinomial_history_counts,
    superensemble,
)
from envlab.hilbert import StateVector
from conftest import conditional_state, fine_grain


# Oracles: brute-force history enumeration, written before the module and
# kept independent of it.  A history assigns one of M cells to each run;
# outcome "1" fires when the cell index is >= m.

def enumerated_tally(m, big_m, runs):
    counts = [0] * (runs + 1)
    for cells in itertools.product(range(big_m), repeat=runs):
        n = sum(1 for j in cells if j >= m)
        counts[n] += 1
    return tuple(counts)


def enumerated_maverick(m, big_m, runs, delta_r):
    beta_sq = Fraction(big_m - m, big_m)
    total = big_m ** runs
    tally = enumerated_tally(m, big_m, runs)
    return sum(
        (Fraction(tally[n], total) for n in range(runs + 1)
         if abs(Fraction(n, runs) - beta_sq) > delta_r),
        Fraction(0),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(m=0, M=2, runs=1)
    with pytest.raises(ValueError):
        ExperimentSpec(m=2, M=2, runs=1)
    with pytest.raises(ValueError):
        ExperimentSpec(m=3, M=2, runs=1)
    with pytest.raises(ValueError):
        ExperimentSpec(m=1, M=2, runs=0)


def test_spec_exact_weights():
    spec = ExperimentSpec(m=1, M=3, runs=7)
    assert spec.beta_sq == Fraction(2, 3)
    assert spec.alpha_beta == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-15)


def test_history_counts_symmetric_coin():
    tally = history_counts(ExperimentSpec(m=1, M=2, runs=2))
    assert tally.counts == (1, 2, 1)
    assert tally.total == 4


def test_history_counts_third_weight_three_runs():
    # 27 histories of a 1/3:2/3 split, counted by hand via the oracle
    assert enumerated_tally(1, 3, 3) == (1, 6, 12, 8)
    tally = history_counts(ExperimentSpec(m=1, M=3, runs=3))
    assert tally.counts == (1, 6, 12, 8)


@given(
    m=st.integers(min_value=1, max_value=3),
    big_m=st.integers(min_value=2, max_value=4),
    runs=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_history_counts_match_enumeration(m, big_m, runs):
    if m >= big_m:
        m = big_m - 1
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    assert history_counts(spec).counts == enumerated_tally(m, big_m, runs)


@given(
    m=st.integers(min_value=1, max_value=11),
    big_m=st.integers(min_value=2, max_value=12),
    runs=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_history_counts_exact_total_and_mirror(m, big_m, runs):
    if m >= big_m:
        m = big_m - 1
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    counts = history_counts(spec).counts
    assert sum(counts) == big_m ** runs
    mirrored = history_counts(ExperimentSpec(m=big_m - m, M=big_m, runs=runs))
    assert mirrored.counts == counts[::-1]


def test_tally_validation():
    spec = ExperimentSpec(m=1, M=2, runs=2)
    with pytest.raises(ValueError, match="M\\^runs"):
        HistoryTally(spec, (1, 2, 2))
    with pytest.raises(ValueError, match="per detection"):
        HistoryTally(spec, (2, 2))


def test_frequency_distribution_examples():
    probs = frequency_distribution(history_counts(ExperimentSpec(m=1, M=2, runs=2)))
    assert probs == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    probs = frequency_distribution(history_counts(ExperimentSpec(m=1, M=3, runs=3)))
    assert probs == (Fraction(1, 27), Fraction(2, 9), Fraction(4, 9), Fraction(8, 27))
    assert sum(probs) == 1


@given(
    m=st.integers(min_value=1, max_value=7),
    big_m=st.integers(min_value=2, max_value=8),
    runs=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_mode_tracks_squared_amplitude(m, big_m, runs):
    if m >= big_m:
        m = big_m - 1
    spec = ExperimentSpec(m=m, M=big_m, runs=runs)
    probs = frequency_distribution(history_counts(spec))
    assert sum(probs) == 1
    mode = max(range(len(probs)), key=probs.__getitem__)
    assert abs(Fraction(mode) - spec.runs * spec.beta_sq) <= 1


def test_multinomial_matches_binomial():
    table = multinomial_history_counts((1, 2), runs=3)
    binom = history_counts(ExperimentSpec(m=1, M=3, runs=3)).counts
    # composition (n_0, n_1) has n_1 detections of outcome "1"
    for n in range(4):
        assert table[(3 - n, n)] == binom[n]
    assert sum(table.values()) == 27


def test_multinomial_three_outcomes():
    table = multinomial_history_counts((1, 2, 2), runs=4)
    assert sum(table.values()) == 5 ** 4
    assert table[(4, 0, 0)] == 1
    assert table[(0, 4, 0)] == 2 ** 4
    assert table[(1, 1, 2)] == math.factorial(4) // 2 * 1 * 2 * 4
    with pytest.raises(ValueError):
        multinomial_history_counts((1, 0), runs=2)
    with pytest.raises(ValueError):
        multinomial_history_counts((1, 2), runs=0)


def test_multinomial_counts_compositions_before_enumerating(monkeypatch):
    # C(N + K - 1, K - 1) is checked by arithmetic: at the cap the
    # enumeration is reached (and stopped by the patch), one above it not
    def no_enumeration(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(frequencies, "_compositions", no_enumeration)
    # 2^65535 is past the digit limit for printing, checked first; lifting
    # the limit leaves the composition count alone to decide
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    cap = frequencies.COMPOSITION_CAP
    with pytest.raises(AssertionError, match="enumeration ran"):
        multinomial_history_counts((1, 1), runs=cap - 1)
    with pytest.raises(ValueError, match=f"2 outcomes over {cap} runs give more "
                                         f"than {cap} compositions"):
        multinomial_history_counts((1, 1), runs=cap)


def test_multinomial_checks_the_printable_total_first(monkeypatch):
    # (sum of cells)^N must print, so 2^15000 (4,516 digits) is refused
    # before the cells, the runs and the compositions are looked at
    def no_enumeration(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(frequencies, "_compositions", no_enumeration)
    message = r"\(sum of cells\)\^N = 2\^15000 has 4516 digits, above the 4300-digit"
    with pytest.raises(ValueError, match=message):
        multinomial_history_counts((1, 1), runs=15000)
    with pytest.raises(ValueError, match=message):
        multinomial_history_counts((2, 0), runs=15000)


def test_gaussian_peak_and_deviation():
    spec = ExperimentSpec(m=2, M=4, runs=100)
    assert deviation(spec) == pytest.approx(5.0, abs=1e-12)
    peak = 1.0 / (math.sqrt(2.0 * math.pi * 100) * 0.5)
    # both conventions agree at the peak, where the exponent vanishes
    assert gaussian_approx(spec, 50) == pytest.approx(peak, abs=1e-15)
    assert gaussian_reference(spec, 50) == pytest.approx(peak, abs=1e-15)
    # one deviation out they differ by exactly exp(-1) vs exp(-1/2)
    off = 50 + deviation(spec)
    assert gaussian_approx(spec, off) == pytest.approx(peak * math.exp(-1.0), rel=1e-12)
    assert gaussian_reference(spec, off) == pytest.approx(peak * math.exp(-0.5), rel=1e-12)


def test_gaussian_sup_norm_gap_shrinks():
    def gaps(runs):
        spec = ExperimentSpec(m=1, M=2, runs=runs)
        probs = [float(p) for p in frequency_distribution(history_counts(spec))]
        printed = max(abs(p - gaussian_approx(spec, n)) for n, p in enumerate(probs))
        standard = max(abs(p - gaussian_reference(spec, n)) for n, p in enumerate(probs))
        return printed, standard

    printed_64, standard_64 = gaps(64)
    printed_128, standard_128 = gaps(128)
    printed_256, standard_256 = gaps(256)
    assert printed_64 > printed_128 > printed_256
    assert standard_64 > standard_128 > standard_256
    # the halved exponent is the better model at every size
    assert standard_64 < printed_64
    assert standard_128 < printed_128
    assert standard_256 < printed_256


def test_maverick_window_examples():
    # single run, 1/4 : 3/4 split: n=0 deviates by 3/4, n=1 by 1/4
    spec = ExperimentSpec(m=1, M=4, runs=1)
    assert maverick_mass(history_counts(spec), Fraction(3, 10)) == Fraction(1, 4)
    assert maverick_mass(history_counts(spec), Fraction(1, 5)) == 1
    assert maverick_mass(history_counts(spec), Fraction(4, 5)) == 0
    # boundary is exclusive: deviation exactly delta_r stays in the window
    sym = ExperimentSpec(m=1, M=2, runs=2)
    assert maverick_mass(history_counts(sym), Fraction(1, 2)) == 0
    assert maverick_mass(history_counts(sym), Fraction(49, 100)) == Fraction(1, 2)


def test_maverick_matches_enumeration():
    spec = ExperimentSpec(m=1, M=3, runs=5)
    for dr in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        assert maverick_mass(history_counts(spec), dr) == enumerated_maverick(1, 3, 5, dr)


def test_maverick_exact_tail_hundred_runs():
    spec = ExperimentSpec(m=1, M=2, runs=100)
    window = sum(
        (Fraction(math.comb(100, n), 2 ** 100) for n in range(40, 61)),
        Fraction(0),
    )
    mass = maverick_mass(history_counts(spec), "0.1")
    assert mass == 1 - window
    assert 0 < mass < Fraction(1, 20)


def test_maverick_strictly_decreasing():
    masses = [
        maverick_mass(history_counts(ExperimentSpec(m=1, M=2, runs=n)), "0.1")
        for n in (25, 100, 400)
    ]
    assert masses[0] > masses[1] > masses[2] > 0


def test_maverick_validation():
    spec = ExperimentSpec(m=1, M=2, runs=4)
    with pytest.raises(ValueError):
        maverick_mass(history_counts(spec), 0)
    with pytest.raises(ValueError):
        maverick_mass(history_counts(spec), 1)


def _tensor(spec, phases=(0.0, 0.0), with_register=False):
    return _dense_state(spec, *_history_terms(spec, phases), with_register)


def test_superensemble_two_runs_even_coin():
    spec = ExperimentSpec(m=1, M=2, runs=2)
    route, report = superensemble(history_counts(spec), swap_pairs=3, seed=11)
    assert route == "explicit"
    state = _tensor(spec)
    assert state.dims == (2, 2, 2, 2, 2, 2)
    assert np.count_nonzero(state.amps) == report.total_terms == 4
    assert report.census == (1, 2, 1)
    assert report.census_matches
    assert report.max_modulus_dev <= 1e-15
    assert np.abs(np.vdot(state.amps, state.amps) - 1.0) <= 1e-12
    assert len(report.swap_checks) == 3
    for check in report.swap_checks:
        assert check.restoration >= 1 - 1e-12
        assert check.envariant is True
        assert check.counter_fidelity >= 1 - 1e-12


def test_superensemble_phases_enter_amplitudes():
    spec = ExperimentSpec(m=1, M=2, runs=2)
    state = _tensor(spec, (0.3, -0.8))
    idx = np.ravel_multi_index((0, 0, 0, 1, 1, 1), state.dims)
    expected = 0.5 * np.exp(1j * (0.3 - 0.8))
    assert state.amps[idx] == pytest.approx(expected, abs=1e-15)
    # phases never disturb the census, the moduli, or envariance
    route, report = superensemble(history_counts(spec), phases=(0.3, -0.8), seed=5)
    assert route == "explicit"
    assert report.census == (1, 2, 1)
    assert report.max_modulus_dev <= 1e-15
    for check in report.swap_checks:
        assert check.restoration >= 1 - 1e-12
        assert check.envariant is True
        assert check.counter_fidelity >= 1 - 1e-12


def test_single_run_is_fine_grained_state():
    spec = ExperimentSpec(m=1, M=3, runs=1)
    state = _tensor(spec)
    mirror = fine_grain(WeightVector((1, 2)), (0.0, 0.0))
    assert state.dims == mirror.dims
    assert np.allclose(state.amps, mirror.amps, atol=1e-15)


def test_superensemble_exchangeable_across_runs():
    spec = ExperimentSpec(m=1, M=2, runs=3)
    state = _tensor(spec, (0.4, 1.1))
    arr = state.amps.reshape(state.dims)
    swapped = np.transpose(arr, (6, 7, 8, 3, 4, 5, 0, 1, 2))
    assert np.allclose(arr, swapped, atol=1e-15)


def test_routes_agree_on_one_spec(monkeypatch):
    # one spec with nonzero phases, counted on the explicit route and then,
    # with the dense budget one amplitude short, on the sparse-census route
    spec = ExperimentSpec(m=1, M=2, runs=4)
    phases = (0.3, -0.8)
    route, explicit = superensemble(history_counts(spec), phases, swap_pairs=3, seed=3)
    assert route == "explicit"
    monkeypatch.setattr(born, "DENSE_AMPLITUDE_CAP", 8 ** 4 - 1)
    route, sparse = superensemble(history_counts(spec), phases, swap_pairs=3, seed=3)
    assert route == "sparse-census"
    assert sparse.census == explicit.census == explicit.tally
    assert sparse.total_terms == explicit.total_terms == 16
    assert sparse.max_modulus_dev == explicit.max_modulus_dev
    assert ([c.restoration for c in sparse.swap_checks]
            == [c.restoration for c in explicit.swap_checks])
    assert all(c.envariant is True for c in explicit.swap_checks)
    assert all(c.envariant is None and c.counter_fidelity is None
               for c in sparse.swap_checks)


def test_history_census_beyond_dense_cap():
    # 18^6 amplitudes would blow the dense cap; the census still runs sparsely
    spec = ExperimentSpec(m=1, M=3, runs=6)
    with pytest.raises(DenseBudgetError, match="amplitudes"):
        _tensor(spec)
    route, report = superensemble(history_counts(spec), swap_pairs=4, seed=9)
    assert route == "sparse-census"
    assert report.total_terms == 729
    assert report.census == report.tally == history_counts(spec).counts
    assert report.max_modulus_dev <= 1e-12
    for check in report.swap_checks:
        assert check.restoration >= 1 - 1e-12


def test_history_census_term_cap():
    # 2^13 histories: past the sparse term cap as well as the dense budget
    assert superensemble(history_counts(ExperimentSpec(m=1, M=2, runs=13))) == (
        "skipped-beyond-desk-scale", None)


def test_swap_restoration_all_pairs():
    spec = ExperimentSpec(m=1, M=2, runs=2)
    histories = list(itertools.product(range(2), repeat=2))
    keys, amps = _history_terms(spec, (0.7, -0.2))
    for a, b in itertools.combinations(histories, 2):
        fid = _restoration(spec, keys, amps, (a, b))
        assert fid >= 1 - 1e-12


def test_dense_swap_checks_hold_one_block_operator():
    # the checks build no swap operator: each reads its 32 x 32 system block
    # off the left Schmidt vectors with two (S, C) entries exchanged; the
    # basis of the 32-fold degenerate Schmidt group is built from its 32
    # columns (1024 x 32), not from a 1024 x 1024 (16 MiB) projector
    spec = ExperimentSpec(m=1, M=2, runs=5)
    superensemble(history_counts(ExperimentSpec(m=1, M=2, runs=2)), swap_pairs=1)  # warm caches
    tracemalloc.start()
    try:
        route, report = superensemble(history_counts(spec), swap_pairs=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route == "explicit" and len(report.swap_checks) == 8
    assert all(c.envariant is True for c in report.swap_checks)
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_register_counts_detections():
    spec = ExperimentSpec(m=1, M=2, runs=2)
    route, report = superensemble(history_counts(spec), with_register=True)
    assert route == "explicit"
    assert report.census == report.tally
    assert report.swap_checks == ()
    state = _tensor(spec, with_register=True)
    assert state.dims == (3, 2, 2, 2, 2, 2, 2)
    probs = frequency_distribution(history_counts(spec))
    for n in range(3):
        weight, _ = conditional_state(state, 0, np.eye(3)[n])
        assert weight ** 2 == pytest.approx(float(probs[n]), abs=1e-12)


def test_register_check_reads_the_tensor(monkeypatch):
    # a tensor whose register digit is off by one for some terms is refused
    real = frequencies._dense_state

    def shifted(spec, keys, amps, with_register=False):
        state = real(spec, keys, amps, with_register)
        tens = np.roll(state.amps.reshape(state.dims[0], -1), 1, axis=0)
        return StateVector(state.dims, tens.reshape(-1))

    monkeypatch.setattr(frequencies, "_dense_state", shifted)
    with pytest.raises(ValueError, match="register digit disagrees"):
        superensemble(history_counts(ExperimentSpec(m=1, M=2, runs=2)), with_register=True)


def test_register_run_cap():
    with pytest.raises(ValueError, match="runs <= 3"):
        superensemble(history_counts(ExperimentSpec(m=1, M=2, runs=4)), with_register=True)


def test_register_budget_is_checked_before_run_cap():
    # too big to build at all: the budget decides first, so the route is
    # skipped instead of refused by the register limit
    tally = history_counts(ExperimentSpec(m=1, M=10, runs=4))
    assert superensemble(tally, with_register=True) == (
        "skipped-beyond-desk-scale", None)


@pytest.mark.parametrize("spec, register, route", [
    (ExperimentSpec(m=1, M=2, runs=2), False, "explicit"),
    (ExperimentSpec(m=1, M=3, runs=6), False, "sparse-census"),
    (ExperimentSpec(m=1, M=3, runs=6), True, "skipped-beyond-desk-scale"),
    (ExperimentSpec(m=2, M=10, runs=8), False, "skipped-beyond-desk-scale"),
])
def test_superensemble_routes(spec, register, route):
    got, report = superensemble(history_counts(spec), with_register=register)
    assert got == route
    if route.startswith("skipped"):
        assert report is None
    else:
        assert report.census == report.tally and not report.failed


def test_superensemble_checks_phases_before_routing():
    for spec in (ExperimentSpec(m=1, M=2, runs=2), ExperimentSpec(m=2, M=10, runs=8)):
        with pytest.raises(ValueError, match="one phase per coarse outcome"):
            superensemble(history_counts(spec), phases=(1.0, 2.0, 3.0))


def test_superensemble_report_failed_rule():
    def report(census=(1, 1), dev=0.0, checks=()):
        return SuperensembleReport(census=census, tally=(1, 1), total_terms=2,
                                   max_modulus_dev=dev, swap_checks=checks)

    pair = ((0,), (1,))
    assert not report().failed
    assert not report(dev=1e-12, checks=(SwapCheck(pair, 1 - 1e-12, None),)).failed
    assert report(census=(2, 0)).failed
    assert report(dev=2e-12).failed
    assert report(checks=(SwapCheck(pair, 1 - 2e-12),)).failed
    assert report(checks=(SwapCheck(pair, 1.0, False, 0.0),)).failed
