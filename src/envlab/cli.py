"""Batch command-line front end.

One subcommand per engine: state, schmidt, envcheck, protocol, born, pointer,
records, freq, continuum.  All runs are non-interactive, every randomized
fixture is pinned by --seed, and output through the report module is byte
deterministic for a fixed flag set.  Exit codes: 0 success, 1 a verification
the run asserts came out false (restoration fidelity, axiom violations,
census mismatch, tolerance overrun), 2 parse or precondition errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import born as born_mod
from . import continuum as cont_mod
from . import envariance as env_mod
from . import frequencies as freq_mod
from . import hilbert as hil_mod
from . import pointer as ptr_mod
from . import records as rec_mod
from .born import (
    BornResult,
    WeightVector,
    born_probabilities,
    coarse_probability,
    even_cut,
    fine_grain,
)
from .continuum import (
    CoefficientSequence,
    Mesh,
    WaveFunction,
    born_continuum,
    discretize,
    equal_mass_mesh,
    interval_probability,
    orthogonality_defect,
    truncate,
)
from .envariance import (
    SwapSpec,
    check_envariance,
    is_even,
    phase_counter,
    partial_swap_counter,
    partial_swap_unitary,
    protocol_run,
)
from .frequencies import (
    SPARSE_TERM_CAP,
    ExperimentSpec,
    build_superensemble_explicit,
    deviation,
    frequency_distribution,
    gaussian_approx,
    gaussian_reference,
    history_census,
    history_counts,
    maverick_mass,
    multinomial_history_counts,
)
from .hilbert import (
    Bipartition,
    LocalUnitary,
    OrthogonalOutcomeError,
    StateVector,
    apply_local,
    conditional_state,
    load_state,
    reconstruct,
    reduced_probe,
    save_state,
    schmidt,
    schmidt_values,
    tensor_product,
)
from .pointer import (
    EnvSpectrum,
    TruthTable,
    commutator_norm,
    decoherence_factor,
    environment_state,
    evolve,
    find_pointer_basis,
    load_couplings,
    pointer_score,
    premeasure,
    premeasure_branches,
)
from .records import (
    build_upsilon,
    complement,
    conditional_probability,
    event_probability,
    join,
    lemma5_recursion,
    meet,
    parse_event,
    verify_axioms,
)
from .report import FORMATS, Report, Table, emit_report

SUBCOMMANDS = (
    "state", "schmidt", "envcheck", "protocol", "born",
    "pointer", "records", "freq", "continuum",
)

# one canonical subcommand per engine operation; audited for coverage in tests
OPERATION_MAP = {
    "hilbert.tensor_product": "state",
    "hilbert.save_state": "state",
    "hilbert.load_state": "state",
    "hilbert.schmidt": "schmidt",
    "hilbert.schmidt_values": "born",
    "hilbert.reconstruct": "schmidt",
    "hilbert.reduced_probe": "schmidt",
    "hilbert.apply_local": "envcheck",
    "hilbert.fidelity": "protocol",
    "hilbert.conditional_state": "pointer",
    "envariance.check_envariance": "envcheck",
    "envariance.phase_counter": "envcheck",
    "envariance.partial_swap_unitary": "envcheck",
    "envariance.partial_swap_counter": "envcheck",
    "envariance.swap_unitary": "protocol",
    "envariance.counterswap": "protocol",
    "envariance.protocol_run": "protocol",
    "envariance.is_even": "born",
    "born.rationalize": "born",
    "born.fine_grain": "born",
    "born.even_cut": "born",
    "born.born_probabilities": "born",
    "born.born_from_coefficients": "continuum",
    "born.coarse_probability": "born",
    "pointer.environment_state": "pointer",
    "pointer.load_couplings": "pointer",
    "pointer.premeasure": "pointer",
    "pointer.premeasure_branches": "pointer",
    "pointer.evolve": "pointer",
    "pointer.decoherence_factor": "pointer",
    "pointer.pointer_score": "pointer",
    "pointer.find_pointer_basis": "pointer",
    "pointer.commutator_norm": "pointer",
    "records.meet": "records",
    "records.join": "records",
    "records.complement": "records",
    "records.verify_axioms": "records",
    "records.event_probability": "records",
    "records.conditional_probability": "records",
    "records.build_upsilon": "records",
    "records.lemma5_recursion": "records",
    "records.parse_event": "records",
    "frequencies.history_counts": "freq",
    "frequencies.multinomial_history_counts": "freq",
    "frequencies.frequency_distribution": "freq",
    "frequencies.gaussian_approx": "freq",
    "frequencies.gaussian_reference": "freq",
    "frequencies.deviation": "freq",
    "frequencies.maverick_mass": "freq",
    "frequencies.swap_restoration": "freq",
    "frequencies.history_census": "freq",
    "frequencies.build_superensemble_explicit": "freq",
    "continuum.truncate": "continuum",
    "continuum.discretize": "continuum",
    "continuum.orthogonality_defect": "continuum",
    "continuum.interval_probability": "continuum",
    "continuum.equal_mass_mesh": "continuum",
    "continuum.born_continuum": "continuum",
}

ENGINE_MODULES = {
    "hilbert": hil_mod,
    "envariance": env_mod,
    "born": born_mod,
    "pointer": ptr_mod,
    "records": rec_mod,
    "frequencies": freq_mod,
    "continuum": cont_mod,
}

MAX_TABLE_ROWS = 4096


@dataclass(frozen=True)
class RunConfig:
    """Complete record of one batch run.

    ``options`` holds every subcommand-specific flag (input paths, weight
    lists, grid bounds, caps) as sorted (name, value) pairs, so the config
    alone reproduces the run; the shared flags get named fields.
    """

    command: str
    fmt: str
    out: object
    seed: int
    tol: object
    options: tuple = ()

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tolerances must be positive")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in str(text).split(","))


def _floats(text: str) -> tuple:
    values = tuple(float(part) for part in str(text).split(","))
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"entries must be finite, got {text!r}")
    return values


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _unit_vector(text: str, flag: str, size: int, dtype) -> np.ndarray:
    raw = np.array(_floats(text), dtype=dtype)
    if raw.size != size:
        raise ValueError(f"{flag} needs {size} amplitudes")
    nrm = np.linalg.norm(raw)
    if not nrm > 0:
        raise ValueError(f"{flag} must not be all zero")
    return raw / nrm


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return value


def _fraction_text(text: str) -> str:
    # exact thresholds stay text so reports echo them as given
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact fraction: {text!r}") from exc
    return text


def _matrix_table(name: str, mat: np.ndarray) -> Table:
    mat = np.asarray(mat)
    rows = [
        (i, j, float(mat[i, j].real), float(mat[i, j].imag))
        for i in range(mat.shape[0])
        for j in range(mat.shape[1])
    ]
    return Table(name, ("row", "col", "re", "im"), tuple(rows))


def _amplitude_rows(state: StateVector, cap: int = 256):
    shown = min(state.amps.size, cap)
    rows = tuple(
        (i, float(state.amps[i].real), float(state.amps[i].imag))
        for i in range(shown)
    )
    return rows, shown


# ----- subcommand handlers: each returns (Report, exit_code) -----

def _cmd_state(args) -> tuple:
    sources = [args.state, args.weights, args.dims, args.product]
    if sum(s is not None for s in sources) != 1:
        raise ValueError("give exactly one of --state, --weights, --dims, --product")
    if args.state:
        state = load_state(args.state)
        origin = f"loaded {args.state}"
    elif args.weights:
        w = WeightVector(_ints(args.weights))
        phases = _floats(args.phases) if args.phases else (0.0,) * len(w.m)
        if len(phases) != len(w.m):
            raise ValueError("one phase per weight")
        n = len(w.m)
        amps = np.zeros((n, n), dtype=complex)
        for k, (m_k, ph) in enumerate(zip(w.m, phases)):
            amps[k, k] = math.sqrt(m_k / w.M) * np.exp(1j * ph)
        state = StateVector((n, n), amps.reshape(-1))
        origin = f"weights {args.weights}"
    elif args.product:
        parts = [load_state(p) for p in args.product.split(",")]
        state = tensor_product(parts)
        origin = f"product of {len(parts)} states"
    else:
        dims = _ints(args.dims)
        rng = np.random.default_rng(args.seed)
        size = int(np.prod(dims))
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = StateVector(dims, raw / np.linalg.norm(raw))
        origin = f"random dims {args.dims} seed {args.seed}"
    scalars = [
        ("origin", origin),
        ("subsystems", state.n_subsystems),
        ("dims", "x".join(str(d) for d in state.dims)),
        ("norm", float(np.linalg.norm(state.amps))),
    ]
    if args.save:
        save_state(state, args.save)
        scalars.append(("saved", args.save))
    rows, shown = _amplitude_rows(state)
    scalars.append(("amplitudes_shown", shown))
    table = Table("amplitudes", ("index", "re", "im"), rows)
    return Report("state", tuple(scalars), (table,)), 0


def _cmd_schmidt(args) -> tuple:
    state = load_state(args.state)
    cut = Bipartition(_ints(args.cut))
    dec = schmidt(state, cut, zero_tol=args.zero_tol,
                  canonicalize=args.canonical)
    recon = reconstruct(dec)
    defect = float(np.linalg.norm(recon.amps - state.amps))
    rho = reduced_probe(state, cut.left)
    purity = float(np.trace(rho @ rho).real)
    scalars = (
        ("rank", len(dec.coeffs)),
        ("reconstruction_defect", defect),
        ("reduced_purity", purity),
    )
    rows = tuple(
        (k, float(abs(c)), float(np.angle(c))) for k, c in enumerate(dec.coeffs)
    )
    table = Table("spectrum", ("k", "modulus", "phase"), rows)
    return Report("schmidt", scalars, (table,)), 0 if defect <= 1e-9 else 1


def _parse_block_unitary(spec_text: str, block_dim: int) -> np.ndarray:
    kind, _, rest = str(spec_text).partition(":")
    if kind == "phase":
        phases = _floats(rest)
        if len(phases) != block_dim:
            raise ValueError(f"phase unitary needs {block_dim} angles")
        return np.diag(np.exp(1j * np.array(phases)))
    if kind == "swap":
        k, l = _ints(rest)
        if not (0 <= k < block_dim and 0 <= l < block_dim):
            raise ValueError(f"swap indices outside block of dimension {block_dim}")
        mat = np.eye(block_dim, dtype=complex)
        mat[[k, l]] = mat[[l, k]]
        return mat
    if kind == "matrix":
        mat = np.loadtxt(rest, dtype=complex, ndmin=2)
        if mat.shape != (block_dim, block_dim):
            raise ValueError(f"matrix file must be {block_dim}x{block_dim}")
        return mat
    raise ValueError(f"unknown unitary spec {spec_text!r}; use phase:/swap:/matrix:")


def _cmd_envcheck(args) -> tuple:
    state = load_state(args.state)
    cut = Bipartition(_ints(args.cut))
    block_dim = int(np.prod([state.dims[i] for i in cut.left]))
    modes = [args.unitary, args.term_phases, args.partial]
    if sum(m is not None for m in modes) != 1:
        raise ValueError("give exactly one of --unitary, --term-phases, --partial")

    if args.unitary is not None:
        u_s = LocalUnitary(cut.left, _parse_block_unitary(args.unitary, block_dim))
        verdict = check_envariance(state, cut, u_s)
        counter = verdict.counter
        source = "polished"
    elif args.term_phases is not None:
        dec = schmidt(state, cut)
        phases = _floats(args.term_phases)
        counter = phase_counter(dec, phases)
        sb = dec.left_basis
        proj = sb.T @ sb.conj()
        partial = (sb.T * np.exp(1j * np.array(phases))) @ sb.conj()
        mat = partial + np.eye(sb.shape[1], dtype=complex) - proj
        u_s = LocalUnitary(dec.left_targets, mat)
        verdict = check_envariance(state, cut, u_s)
        source = "schmidt-phase"
    else:
        dec = schmidt(state, cut)
        new_basis = np.loadtxt(args.partial, dtype=complex, ndmin=2)
        u_s = partial_swap_unitary(dec, new_basis)
        counter = partial_swap_counter(dec, new_basis)
        verdict = check_envariance(state, cut, u_s)
        source = "partial-swap"

    moved = apply_local(state, u_s)
    overlap = float(abs(np.vdot(state.amps, moved.amps)))
    if counter is not None:
        restored = apply_local(moved, counter)
        restoration = float(abs(np.vdot(state.amps, restored.amps)))
    else:
        restoration = 0.0
    scalars = (
        ("envariant", verdict.envariant),
        ("gram_deviation", verdict.gram_deviation),
        ("residual_infidelity", verdict.residual_infidelity),
        ("overlap_after_unitary", overlap),
        ("restoration", restoration),
        ("counter_source", source),
    )
    tables = ()
    if counter is not None and counter.matrix.size <= MAX_TABLE_ROWS:
        tables = (_matrix_table("counter", counter.matrix),)
    return Report("envcheck", scalars, tables), 0


def _cmd_protocol(args) -> tuple:
    state = load_state(args.state)
    cut = Bipartition(_ints(args.cut))
    k, l = _ints(args.pair)
    transcript = protocol_run(state, cut, SwapSpec(k=k, l=l, phase=args.phase))
    threshold = 1.0 - (args.tol if args.tol is not None else 1e-12)
    failed = transcript.restoration_failed or transcript.final_fidelity < threshold
    scalars = (
        ("pair", f"{k}|{l}"),
        ("phase", args.phase),
        ("final_fidelity", transcript.final_fidelity),
        ("restoration_failed", failed),
    )
    rows = tuple((label, fid) for label, fid in transcript.steps)
    table = Table("transcript", ("step", "fidelity"), rows)
    return Report("protocol", scalars, (table,)), 1 if failed else 0


def _born_result_report(result: BornResult, args) -> tuple:
    rows = tuple(
        (k, m_k, result.probs_exact[k], result.probs_float[k])
        for k, m_k in enumerate(result.weights.m)
    )
    scalars = [
        ("outcomes", len(result.weights.m)),
        ("M", result.weights.M),
        ("rationalization_error", result.rationalization_error),
    ]
    if args.subset:
        scalars.append(
            ("subset_probability",
             coarse_probability(result, _ints(args.subset)))
        )
    table = Table("outcomes", ("k", "m_k", "p", "p_float"), rows)
    code = 0
    if args.tol is not None and result.rationalization_error > args.tol:
        code = 1
    return Report("born", tuple(scalars), (table,)), code


def _cmd_born(args) -> tuple:
    if (args.weights is None) == (args.state is None):
        raise ValueError("give exactly one of --weights or --state")
    if args.weights is not None:
        w = WeightVector(_ints(args.weights))
        result = BornResult(
            probs_exact=tuple(Fraction(m_k, w.M) for m_k in w.m),
            probs_float=tuple(m_k / w.M for m_k in w.m),
            rationalization_error=0.0,
            weights=w,
        )
        report, code = _born_result_report(result, args)
        scalars = list(report.scalars)
        n = len(w.m)
        if n * w.M * w.M <= born_mod.DENSE_AMPLITUDE_CAP:
            phases = _floats(args.phases) if args.phases else (0.0,) * n
            values = schmidt_values(fine_grain(w, phases), even_cut())
            scalars.append(("fine_terms", len(values)))
            scalars.append(("fine_even", is_even(values)))
        return Report("born", tuple(scalars), report.tables), code
    state = load_state(args.state)
    cut = Bipartition(_ints(args.cut))
    result = born_probabilities(state, cut, args.m_max)
    return _born_result_report(result, args)


def _cmd_pointer(args) -> tuple:
    # coupling rows span the whole apparatus: row 0 is the ready level,
    # rows 1..K couple the K record levels
    g = load_couplings(args.couplings)
    apparatus_dim, n_lev = g.n_records, g.n_levels
    n_rec = apparatus_dim - 1
    if n_rec < 1:
        raise ValueError("couplings need at least two rows: ready level plus records")
    spectrum = (EnvSpectrum(_unit_vector(args.gamma, "--gamma", n_lev, float))
                if args.gamma else EnvSpectrum.uniform(n_lev))
    env = environment_state(spectrum)
    table = TruthTable(np.eye(n_rec))
    if args.amps:
        amps = _unit_vector(args.amps, "--amps", n_rec, complex)
        premeasured = premeasure_branches(tuple(amps), table, apparatus_dim)
    else:
        amps = np.full(n_rec, 1.0 / math.sqrt(n_rec), dtype=complex)
        premeasured = premeasure(StateVector((n_rec,), amps), table, apparatus_dim)

    branch_rows = []
    for k in range(n_rec):
        record = k + 1
        try:
            weight, _ = conditional_state(
                premeasured, 0, np.eye(apparatus_dim)[record])
            prob = weight ** 2
        except OrthogonalOutcomeError:
            prob = 0.0
        branch_rows.append((k, record, prob))

    full = StateVector(premeasured.dims + env.dims,
                       np.kron(premeasured.amps, env.amps))
    t_final = args.time if args.time is not None else args.t1
    evolved = evolve(full, 0, 2, g, t_final)

    ts = np.linspace(args.t0, args.t1, args.steps)
    pairs = [(k, l) for k in range(1, apparatus_dim)
             for l in range(k + 1, apparatus_dim)]
    zeta_cols = ["t"]
    for k, l in pairs:
        zeta_cols += [f"re_{k}_{l}", f"im_{k}_{l}", f"abs_{k}_{l}"]
    zeta_rows = []
    for t in ts:
        row = [float(t)]
        for k, l in pairs:
            z = decoherence_factor(g, spectrum, k, l, float(t))
            row += [float(z.real), float(z.imag), float(abs(z))]
        zeta_rows.append(tuple(row))

    truth_basis = np.eye(apparatus_dim)
    score = pointer_score(evolved, 0, truth_basis)
    observable = np.diag(np.arange(apparatus_dim, dtype=float))
    comm = commutator_norm(observable, g)

    scalars = [
        ("records", n_rec),
        ("levels", n_lev),
        ("time", float(t_final)),
        ("truth_max_score", score.max_score),
        ("commutator_norm", comm),
    ]
    tables = [
        Table("branches", ("outcome", "record", "prob"), tuple(branch_rows)),
        Table("score_per_vector", ("vector", "score"),
              tuple((i, s) for i, s in enumerate(score.per_outcome))),
        Table("decoherence", tuple(zeta_cols), tuple(zeta_rows)),
    ]
    if args.search:
        basis, found = find_pointer_basis(evolved, 0, iterations=args.iterations)
        scalars.append(("found_score", found.max_score))
        scalars.append(("degenerate_minimum", found.degenerate_minimum))
        tables.append(_matrix_table("found_basis", basis))
    code = 0
    if args.tol is not None and score.max_score > args.tol:
        code = 1
    return Report("pointer", tuple(scalars), tuple(tables)), code


def _cmd_records(args) -> tuple:
    n = args.universe
    if args.event is None and args.partition is None:
        rep = verify_axioms(n, trials=args.trials, seed=args.seed)
        scalars = (
            ("universe", rep.universe_size),
            ("trials", rep.trials),
            ("clean", rep.clean),
            ("violations", len(rep.violations)),
        )
        table = Table("axioms", ("axiom", "passed"), tuple(rep.passes))
        return Report("records", scalars, (table,)), 0 if rep.clean else 1

    weights = _ints(args.weights) if args.weights else (1,) * n
    if len(weights) != n:
        raise ValueError(f"need {n} weights for universe of size {n}")
    uniform = len(set(weights)) == 1
    scalars = []
    tables = []
    if args.event is not None:
        kappa = parse_event(args.event, n)
        scalars.append(("event", args.event))
        scalars.append(("p_event", event_probability(weights, kappa)))
        scalars.append(
            ("p_complement", event_probability(weights, complement(kappa))))
        if uniform:
            scalars.append(
                ("uniform_recursion_probability",
                 lemma5_recursion(n, kappa.members)))
        if args.other is not None:
            lam = parse_event(args.other, n)
            scalars.append(("p_other", event_probability(weights, lam)))
            scalars.append(("p_meet", event_probability(weights, meet(kappa, lam))))
            scalars.append(("p_join", event_probability(weights, join(kappa, lam))))
        if args.given is not None:
            scalars.append(
                ("p_given_outcome", conditional_probability(kappa, args.given)))
    if args.partition is not None:
        cells = tuple(
            parse_event(part, n) for part in args.partition.split(";"))
        upsilon = build_upsilon(weights, cells)
        scalars.append(("upsilon_dims",
                        "x".join(str(d) for d in upsilon.dims)))
        scalars.append(
            ("upsilon_support", int(np.count_nonzero(upsilon.amps))))
        rows = tuple(
            (i, "|".join(str(m) for m in sorted(cell.members)),
             event_probability(weights, cell))
            for i, cell in enumerate(cells)
        )
        tables.append(Table("partition", ("cell", "members", "p"), rows))
    return Report("records", tuple(scalars), tuple(tables)), 0


def _cmd_freq(args) -> tuple:
    if args.cells is not None:
        counts = multinomial_history_counts(_ints(args.cells), args.runs_n)
        rows = tuple(
            ("-".join(str(x) for x in comp), counts[comp])
            for comp in sorted(counts)
        )
        scalars = (
            ("outcomes", len(_ints(args.cells))),
            ("runs", args.runs_n),
            ("total", sum(counts.values())),
        )
        return Report("freq", scalars,
                      (Table("compositions", ("composition", "count"), rows),)), 0

    if args.m is None or args.big_m is None:
        raise ValueError("need --m and --M (or --cells for the multinomial table)")
    spec = ExperimentSpec(m=args.m, M=args.big_m, runs=args.runs_n)
    tally = history_counts(spec)
    dist = frequency_distribution(spec)
    rows = tuple(
        (n, tally.counts[n], dist[n], float(dist[n]),
         gaussian_approx(spec, n), gaussian_reference(spec, n))
        for n in range(spec.runs + 1)
    )
    table = Table(
        "frequencies",
        ("n", "count", "p", "p_float", "gaussian_approx", "gaussian_reference"),
        rows,
    )
    scalars = [
        ("total", tally.total),
        ("deviation", deviation(spec)),
    ]
    if args.delta_r is not None:
        scalars.append(("delta_r", args.delta_r))
        scalars.append(("maverick_mass", maverick_mass(spec, args.delta_r)))

    phases = _floats(args.phases) if args.phases else (0.0, 0.0)
    code = 0
    tables = [table]
    dense_size = (2 * spec.M * spec.M) ** spec.runs
    if args.register:
        dense_size *= spec.runs + 1
    report = None
    if dense_size <= born_mod.DENSE_AMPLITUDE_CAP:
        _, report = build_superensemble_explicit(
            spec, phases=phases, swap_pairs=args.pairs, seed=args.seed,
            with_register=args.register)
        scalars.append(("superensemble", "explicit"))
    elif spec.M ** spec.runs <= SPARSE_TERM_CAP and not args.register:
        report = history_census(spec, phases=phases, swap_pairs=args.pairs,
                                seed=args.seed)
        scalars.append(("superensemble", "sparse-census"))
    else:
        scalars.append(("superensemble", "skipped-beyond-desk-scale"))
    if report is not None:
        scalars.append(("census_matches", report.census_matches))
        scalars.append(("max_modulus_dev", report.max_modulus_dev))
        if not report.census_matches or report.max_modulus_dev > 1e-12:
            code = 1
        swap_rows = []
        for check in report.swap_checks:
            a = ".".join(str(j) for j in check.pair[0])
            b = ".".join(str(j) for j in check.pair[1])
            swap_rows.append((f"{a}|{b}", check.restoration,
                              check.envariant, check.counter_fidelity))
            if check.restoration < 1 - 1e-12 or check.envariant is False:
                code = 1
        if swap_rows:
            tables.append(Table(
                "swap_checks",
                ("pair", "restoration", "envariant", "counter_fidelity"),
                tuple(swap_rows)))
    return Report("freq", tuple(scalars), tuple(tables)), code


def _build_wavefunction(args) -> WaveFunction:
    if args.family == "gaussian":
        return WaveFunction.gaussian(center=args.center, width=args.width)
    if args.family == "uniform":
        return WaveFunction.uniform(args.a, args.b)
    if args.family == "box":
        if not args.edges or not args.box_weights:
            raise ValueError("box family needs --edges and --box-weights")
        return WaveFunction.box_mixture(_floats(args.edges),
                                        _floats(args.box_weights))
    raise ValueError(f"unknown family {args.family!r}")


def _cmd_continuum(args) -> tuple:
    if args.truncate_ratio is not None:
        if args.delta_target is None:
            raise ValueError("--truncate-ratio needs --delta-target")
        seq = CoefficientSequence.geometric(Fraction(args.truncate_ratio))
        cut = truncate(seq, Fraction(args.delta_target))
        rows = tuple(
            (k + 1, p, c)
            for k, (p, c) in enumerate(zip(cut.probs, cut.conditional_probs))
        )
        scalars = (
            ("ratio", args.truncate_ratio),
            ("delta_target", args.delta_target),
            ("n_delta", cut.n_delta),
            ("delta_sq", cut.delta_sq),
        )
        table = Table("kept_terms", ("k", "p", "conditional_p"), rows)
        return Report("continuum", scalars, (table,)), 0

    psi = _build_wavefunction(args)
    span = args.x1 - args.x0
    if args.adaptive:
        if args.cells is None:
            raise ValueError("--adaptive needs --cells")
        mesh = equal_mass_mesh(psi, args.x0, args.x1, args.cells)
    else:
        if args.dx is None:
            raise ValueError("need --dx (or --adaptive with --cells)")
        cells = int(round(span / args.dx)) if args.dx > 0 else 0
        if cells < 1 or abs(cells * args.dx - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("--dx must tile [x0, x1] evenly")
        mesh = Mesh.uniform(args.x0, args.dx, cells)
    d = discretize(psi, mesh, quad_points=args.quad)
    defect = orthogonality_defect(psi, d)
    scalars = [
        ("family", psi.label),
        ("cells", mesh.cells),
        ("adaptive", bool(args.adaptive)),
        ("quad_points", d.quad_points),
        ("remainder_sq", d.remainder_sq),
        ("orthogonality_defect", defect),
    ]
    code = 0
    if args.interval:
        x1, x2 = _floats(args.interval)
        scalars.append(("interval", f"[{x1:.12g}|{x2:.12g})"))
        scalars.append(("interval_probability",
                        interval_probability(d, x1, x2)))
    if args.m_max is not None:
        res = born_continuum(d, m_max=args.m_max)
        gap = float(np.max(np.abs(np.array(res.cell_probs) - d.cell_probs())))
        scalars.append(("pipeline_max_gap", gap))
        scalars.append(("rationalization_error",
                        res.born.rationalization_error))
        if gap > res.born.rationalization_error + 1e-9:
            code = 1
    tables = ()
    if mesh.cells <= 512:
        edges = mesh.edges()
        widths = mesh.cell_widths()
        probs = d.cell_probs()
        rows = tuple(
            (k, float(edges[k]), float(widths[k]),
             float(d.psi_k[k].real), float(d.psi_k[k].imag), float(probs[k]))
            for k in range(mesh.cells)
        )
        tables = (Table("cells", ("k", "left", "width", "re", "im", "p"), rows),)
    else:
        scalars.append(("cells_table_omitted", True))
    return Report("continuum", tuple(scalars), tables), code


HANDLERS = {
    "state": _cmd_state,
    "schmidt": _cmd_schmidt,
    "envcheck": _cmd_envcheck,
    "protocol": _cmd_protocol,
    "born": _cmd_born,
    "pointer": _cmd_pointer,
    "records": _cmd_records,
    "freq": _cmd_freq,
    "continuum": _cmd_continuum,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one "error:" line, like every other input error
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--out", default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=_positive_float, default=None)

    parser = _Parser(
        prog="envlab",
        description="batch runner for the entanglement-invariance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", parents=[common],
                       help="load, build, combine, and save state vectors")
    p.add_argument("--state", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--phases", default=None)
    p.add_argument("--dims", default=None)
    p.add_argument("--product", default=None,
                   help="comma-separated state files to tensor together")
    p.add_argument("--save", default=None)

    p = sub.add_parser("schmidt", parents=[common],
                       help="Schmidt spectrum, reconstruction, reduced purity")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--zero-tol", type=float, default=1e-12)
    p.add_argument("--canonical", action="store_true")

    p = sub.add_parser("envcheck", parents=[common],
                       help="test a left-side unitary for envariance")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--unitary", default=None,
                   help="phase:a,b,... | swap:k,l | matrix:PATH")
    p.add_argument("--term-phases", default=None,
                   help="Schmidt-term phases; counter built analytically")
    p.add_argument("--partial", default=None,
                   help="file with new basis rows spanning Schmidt vectors")

    p = sub.add_parser("protocol", parents=[common],
                       help="swap/counterswap transcript with fidelities")
    p.add_argument("--state", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--pair", required=True, help="Schmidt term indices k,l")
    p.add_argument("--phase", type=_finite_float, default=0.0)

    p = sub.add_parser("born", parents=[common],
                       help="probabilities by rationalize/fine-grain/count")
    p.add_argument("--weights", default=None)
    p.add_argument("--phases", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--cut", default="0")
    p.add_argument("--m-max", type=int, default=1024)
    p.add_argument("--subset", default=None)

    p = sub.add_parser("pointer", parents=[common],
                       help="premeasurement, decoherence sweep, basis search")
    p.add_argument("--couplings", required=True,
                   help="text file: one row per record, one column per level")
    p.add_argument("--gamma", default=None)
    p.add_argument("--amps", default=None)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--time", type=_finite_float, default=None)
    p.add_argument("--search", action="store_true")
    p.add_argument("--iterations", type=int, default=48)

    p = sub.add_parser("records", parents=[common],
                       help="record-algebra audit and event probabilities")
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--event", default=None)
    p.add_argument("--other", default=None)
    p.add_argument("--given", type=int, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--partition", default=None,
                   help="semicolon-separated cells, e.g. 0,1;2,3")

    p = sub.add_parser("freq", parents=[common],
                       help="repeated-run tallies and the explicit superensemble")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--M", dest="big_m", type=int, default=None)
    p.add_argument("--N", dest="runs_n", type=int, default=1)
    p.add_argument("--delta-r", type=_fraction_text, default=None,
                   help="maverick threshold, exact decimal like 0.1")
    p.add_argument("--phases", default=None)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--register", action="store_true")
    p.add_argument("--cells", default=None,
                   help="multinomial mode: fine cells per outcome")

    p = sub.add_parser("continuum", parents=[common],
                       help="discretize wavefunctions; truncate sequences")
    p.add_argument("--family", choices=("gaussian", "uniform", "box"),
                   default="gaussian")
    p.add_argument("--center", type=_finite_float, default=0.0)
    p.add_argument("--width", type=_finite_float, default=1.0)
    p.add_argument("--a", type=_finite_float, default=0.0)
    p.add_argument("--b", type=_finite_float, default=1.0)
    p.add_argument("--edges", default=None)
    p.add_argument("--box-weights", default=None)
    p.add_argument("--x0", type=_finite_float, default=-8.0)
    p.add_argument("--x1", type=_finite_float, default=8.0)
    p.add_argument("--dx", type=_finite_float, default=None)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--quad", type=int, default=16)
    p.add_argument("--interval", default=None, help="a,b inside the mesh")
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--truncate-ratio", type=_fraction_text, default=None,
                   help="geometric ratio; runs truncation instead of a mesh")
    p.add_argument("--delta-target", type=_fraction_text, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    shared = {"command", "format", "out", "seed", "tol"}
    extras = tuple(sorted(
        (name, value) for name, value in vars(args).items()
        if name not in shared
    ))
    try:
        config = RunConfig(command=args.command, fmt=args.format,
                           out=args.out, seed=args.seed, tol=args.tol,
                           options=extras)
        report, code = HANDLERS[config.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(report, config.fmt)
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
