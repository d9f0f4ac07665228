"""Acceptance battery: ten contract-level checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances are part of each criterion's statement and are not
tuned here; the module suites carry the fine-grained coverage.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

import envlab.cli as cli
from envlab.born import DENSE_AMPLITUDE_CAP, born_probabilities
from envlab.continuum import (
    CoefficientSequence,
    Mesh,
    WaveFunction,
    discretize,
    interval_probability,
    truncate,
)
from envlab.envariance import (
    SwapSpec,
    check_envariance,
    envcheck_run,
    protocol_run,
)
from envlab.frequencies import (
    ExperimentSpec,
    history_counts,
    maverick_mass,
    superensemble,
)
from envlab.hilbert import (
    Bipartition,
    LocalUnitary,
    StateVector,
    fidelity,
    save_state,
    schmidt,
)
from envlab.pointer import (
    CouplingMatrix,
    EnvSpectrum,
    commutator_norm,
    decoherence_matrix,
    pointer_score,
)
from envlab.records import verify_axioms
from conftest import (apply_local, conditional_state, oracle_decoherence_factor, phase_counter,
                      phase_unitary, random_state, random_unitary, schmidt_form_state,
                      state_pointer_score, swap_unitary)

CUT = Bipartition((0,))


def schmidt_phase_unitary(dec, phases) -> LocalUnitary:
    """Left-block unitary applying e^{i phi_k} to Schmidt vector k."""
    sb = dec.left_basis
    proj = sb.T @ sb.conj()
    rot = (sb.T * np.exp(1j * np.asarray(phases))) @ sb.conj()
    mat = rot + np.eye(sb.shape[1], dtype=complex) - proj
    return LocalUnitary(dec.left_targets, mat)


def test_criterion_01_born_exact_path():
    # weights (2,3,5) through schmidt -> rationalize -> fine_grain -> count
    state = schmidt_form_state(np.sqrt([0.2, 0.3, 0.5]), 3, 3)
    result = born_probabilities(state, CUT, m_max=64)
    assert tuple(sorted(result.probs_exact)) == (
        Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    # 100 random rational-weight states, M <= 64, pipeline within 1e-10
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        big_m = int(rng.integers(n, 65))
        cuts = np.sort(rng.choice(np.arange(1, big_m), size=n - 1,
                                  replace=False))
        m = np.diff(np.concatenate(([0], cuts, [big_m]))).astype(int)
        coeffs = np.sqrt(m / big_m) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        left = int(rng.integers(n, 8))
        right = int(rng.integers(n, 8))
        state = schmidt_form_state(coeffs, left, right, rng)
        result = born_probabilities(state, CUT, m_max=64)
        expect = np.sort(m / big_m)[::-1]
        assert np.max(np.abs(np.array(result.probs_float) - expect)) <= 1e-10


def test_criterion_02_counters_and_zero_false_positives():
    rng = np.random.default_rng(202)
    for _ in range(200):
        dl = int(rng.integers(2, 6))
        dr = int(rng.integers(2, 7))
        k = int(rng.integers(2, min(dl, dr) + 1))
        mags = np.sort(rng.uniform(0.3, 1.0, size=k))
        if mags[-1] < 1.01 * mags[0]:
            mags[-1] = 1.05 * mags[0]  # guarantee a detectable uneven pair
        coeffs = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        state = schmidt_form_state(coeffs, dl, dr, rng)
        dec = schmidt(state, CUT)
        phases = rng.uniform(0, 2 * np.pi, len(dec.coeffs))
        counter = phase_counter(dec, phases)
        moved = apply_local(state, schmidt_phase_unitary(dec, phases))
        assert fidelity(state, apply_local(moved, counter)) >= 1 - 1e-10
        # swap across the extreme pair: modulus ratio >= 1.01 by construction
        u_swap = swap_unitary(SwapSpec(0, len(dec.coeffs) - 1), dec.left_basis)
        assert check_envariance(state, CUT, u_swap).envariant is False


def test_criterion_03_swap_overlap_closed_form():
    a1, a2 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = a1, a2
    transcript = protocol_run(StateVector((2, 2), amps), CUT, SwapSpec(0, 1))
    assert abs(transcript.final_fidelity - 2 * math.sqrt(2) / 3) <= 1e-12
    assert abs(transcript.final_fidelity - 2 * (a1 * a2)) <= 1e-12


def schmidt_record_basis(dec, dim: int) -> np.ndarray:
    """Schmidt rows completed to a full orthonormal basis of the left block."""
    rows = np.asarray(dec.left_basis, dtype=complex)
    if rows.shape[0] == dim:
        return rows
    _, _, vh = np.linalg.svd(rows)
    return np.vstack([rows, vh[rows.shape[0]:]])


def test_criterion_04_phase_redecoration_invariance():
    # weights are phase-blind for any outcome vector; on generic states the
    # dense oracle's record scores are compared on the Schmidt basis, whose
    # conditionals only pick up a global phase (scores of superposition bases
    # are phase-sensitive there by design: that sensitivity is what
    # disqualifies them as records).  In the branch form sum_k a_k
    # |A_k>|s_k>|E_k> that pointer_score takes, a phase on a_k can be undone
    # on the system, so every basis scores alike on the twin
    rng = np.random.default_rng(404)
    branch_rng = np.random.default_rng(406)
    for _ in range(50):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                int(rng.integers(2, 5)))
        state = random_state(rng, dims)
        dec = schmidt(state, CUT)
        phases = rng.uniform(0, 2 * np.pi, len(dec.coeffs))
        twin = apply_local(state, schmidt_phase_unitary(dec, phases))
        outcomes = [np.eye(dims[0])[i] for i in range(dims[0])]
        outcomes += [row for row in dec.left_basis]
        for outcome in outcomes:
            w_orig, _ = conditional_state(state, 0, outcome)
            w_twin, _ = conditional_state(twin, 0, outcome)
            assert abs(w_orig - w_twin) <= 1e-10
        records = schmidt_record_basis(dec, dims[0])
        s_orig = state_pointer_score(state, 0, records)
        s_twin = state_pointer_score(twin, 0, records)
        gap = max(abs(a - b) for a, b in
                  zip(s_orig.per_outcome, s_twin.per_outcome))
        assert gap <= 1e-10

        amps = random_state(branch_rng, (dims[0],)).amps
        env = random_state(branch_rng, (dims[0], dims[2])).amps.reshape(dims[0], dims[2])
        env = env / np.linalg.norm(env, axis=1, keepdims=True)
        zeta = env @ env.conj().T
        twin_amps = amps * np.exp(1j * branch_rng.uniform(0, 2 * np.pi, dims[0]))
        for basis in (np.eye(dims[0] + 1), random_unitary(branch_rng, dims[0] + 1)):
            s_orig = pointer_score(amps, zeta, basis)
            s_twin = pointer_score(twin_amps, zeta, basis)
            gap = max(abs(a - b) for a, b in
                      zip(s_orig.per_outcome, s_twin.per_outcome))
            assert gap <= 1e-10


def test_phase_unitary_matches_criterion_04_oracle():
    rng = np.random.default_rng(405)
    for dims in ((2, 3), (3, 2, 2), (4, 4)):
        state = random_state(rng, dims)
        dec = schmidt(state, CUT)
        phases = rng.uniform(0, 2 * np.pi, len(dec.coeffs))
        got = phase_unitary(dec, phases)
        want = schmidt_phase_unitary(dec, phases)
        assert got.targets == want.targets
        assert np.array_equal(got.matrix, want.matrix)
        # the shipped route reads the same rotation off its Schmidt block
        run = envcheck_run(state, CUT, phases=phases)
        moved = apply_local(state, want)
        assert abs(run.overlap - fidelity(state, moved)) <= 1e-12
        restored = apply_local(moved, phase_counter(dec, phases))
        assert abs(run.restoration - fidelity(state, restored)) <= 1e-12


def test_criterion_05_pointer_dichotomy():
    rng = np.random.default_rng(505)
    n_rec, n_lev = 4, 16
    theta = 0.3
    for _ in range(2):
        g = CouplingMatrix(rng.uniform(0.0, 2 * np.pi, size=(n_rec + 1, n_lev)))
        gamma = rng.standard_normal(n_lev) + 1j * rng.standard_normal(n_lev)
        spectrum = EnvSpectrum(gamma / np.linalg.norm(gamma))
        # even branch amplitudes keep the rotated-basis floor well above 0.01
        amps = np.exp(1j * rng.uniform(0, 2 * np.pi, n_rec)) / 2.0
        truth = np.eye(n_rec + 1, dtype=complex)
        rot = truth.copy()
        c, s = math.cos(theta), math.sin(theta)
        rot[1, 1], rot[1, 2] = c, s
        rot[2, 1], rot[2, 2] = -s, c
        fired = 0
        for t in np.linspace(0.0, 8.0, 50):
            zeta = decoherence_matrix(g, spectrum, float(t))
            assert pointer_score(amps, zeta, truth).max_score <= 1e-10
            zmax = max(abs(oracle_decoherence_factor(g, spectrum, k, l, float(t)))
                       for k in range(1, n_rec + 1)
                       for l in range(k + 1, n_rec + 1))
            if zmax < 0.9:
                fired += 1
                assert pointer_score(amps, zeta, rot).max_score > 0.01
        assert fired > 0  # the distinguishable regime must actually occur
        lam = np.diag(np.arange(n_rec + 1, dtype=float))
        assert commutator_norm(lam, g) <= 1e-12


def test_criterion_06_boolean_axioms():
    for n in range(1, 11):
        rep = verify_axioms(n, trials=50, seed=600 + n)
        assert rep.clean
        assert all(count == 50 for _, count in rep.passes)


def test_criterion_07_history_counting():
    for big_m in (2, 3):
        for m in range(1, big_m):
            for runs in range(1, 7):
                spec = ExperimentSpec(m=m, M=big_m, runs=runs)
                tally = history_counts(spec)
                assert tally.total == big_m ** runs
                route, rep = superensemble(history_counts(spec), swap_pairs=3, seed=700 + runs)
                assert route == ("explicit"
                                 if (2 * big_m * big_m) ** runs <= DENSE_AMPLITUDE_CAP
                                 else "sparse-census")
                assert rep.census_matches
                assert rep.total_terms == big_m ** runs
                assert rep.max_modulus_dev <= 1e-12
                assert rep.swap_checks
                for check in rep.swap_checks:
                    assert check.restoration >= 1 - 1e-12


def test_criterion_08_maverick_concentration():
    masses = [maverick_mass(history_counts(ExperimentSpec(m=1, M=2, runs=n)), "0.1")
              for n in (25, 100, 400)]
    assert all(isinstance(mass, Fraction) for mass in masses)
    assert masses[0] > masses[1] > masses[2]


def test_criterion_09_continuum():
    psi = WaveFunction.gaussian()
    fine = discretize(psi, Mesh.uniform(-8.0, 1e-3, 16000))
    assert abs(interval_probability(fine, -1.0, 1.0) - math.erf(1.0)) <= 1e-3
    remainders = [
        discretize(psi, Mesh.uniform(-8.0, dx, int(round(16 / dx)))).remainder_sq
        for dx in (0.5, 0.25, 0.125)
    ]
    assert remainders[0] > remainders[1] > remainders[2]
    cut = truncate(CoefficientSequence.geometric(Fraction(1, 2)),
                   Fraction(1, 10))  # budget delta^2 = 0.01
    assert cut.n_delta == 7


def test_criterion_10_cli_determinism(tmp_path):
    even = np.zeros(4, dtype=complex)
    even[0] = even[3] = math.sqrt(0.5)
    state_path = tmp_path / "probe.state"
    save_state(StateVector((2, 2), even), state_path)
    couple_path = tmp_path / "g.txt"
    np.savetxt(couple_path, 0.53 * np.arange(12.0).reshape(3, 4))
    commands = (
        ["state", "--dims", "2,3", "--seed", "3"],
        ["schmidt", "--state", str(state_path), "--cut", "0"],
        ["envcheck", "--state", str(state_path), "--cut", "0",
         "--term-phases", "0.3,0.9"],
        ["protocol", "--state", str(state_path), "--cut", "0",
         "--pair", "0,1"],
        ["born", "--weights", "2,3,5", "--subset", "0,1"],
        ["pointer", "--couplings", str(couple_path), "--steps", "6",
         "--search"],
        ["records", "--universe", "6", "--trials", "40", "--seed", "4"],
        ["freq", "--m", "1", "--M", "3", "--N", "3", "--seed", "5"],
        ["continuum", "--dx", "0.5", "--interval=-1,1", "--m-max", "512"],
    )
    assert {argv[0] for argv in commands} == set(cli.HANDLERS)
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "envlab.cli", *argv],
                           capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode, argv
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr, argv
