"""Batch command-line front end.

One subcommand per engine: state, schmidt, envcheck, protocol, born, pointer,
records, freq, continuum.  All runs are non-interactive, every randomized
fixture is pinned by --seed, and output through the report module is byte
deterministic for a fixed flag set.  Exit codes: 0 success, 1 a verification
the run asserts came out false (restoration fidelity, axiom violations,
census mismatch, tolerance overrun), 2 parse or precondition errors.
"""

from __future__ import annotations

import os

# must run before numpy loads: the dense work here is too small to gain from BLAS threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .born import (BornResult, WeightVector, born_from_weights, born_probabilities,
                   coarse_probability, fine_values, require_dense)
from .continuum import CoefficientSequence, WaveFunction, mesh_run, truncate
from .envariance import SwapSpec, check_envariance, envcheck_run, is_even, protocol_run
from .frequencies import ExperimentSpec, multinomial_history_counts, repeated_runs
from .hilbert import (Bipartition, LocalUnitary, StateVector, _load_matrix, load_state,
                      reconstruct, reduced_purity, save_state, schmidt, tensor_product)
from .pointer import EnvSpectrum, einselection_run, load_couplings
from .records import (complement, conditional_probability, event_probabilities, join,
                      lemma5_recursion, meet, parse_event, partition_support, verify_axioms)
from .report import FORMATS, Report, Table, emit_report

MAX_TABLE_ROWS = 4096


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in str(text).split(","))


def _floats(text: str) -> tuple:
    values = tuple(float(part) for part in str(text).split(","))
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"entries must be finite, got {text!r}")
    return values


def _index_pair(text: str, flag: str) -> tuple:
    values = _ints(text)
    if len(values) != 2:
        raise ValueError(f"{flag} needs two indices k,l, got {text!r}")
    return values


def _endpoints(text: str) -> tuple:
    values = _floats(text)
    if len(values) != 2:
        raise ValueError(f"--interval needs two endpoints a,b, got {text!r}")
    return values


def _listed(parse, *args):
    """The argparse type of a comma-list flag: parse's ValueError text is its error."""
    def parse_flag(text: str) -> tuple:
        try:
            return parse(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_flag


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _text(values: tuple) -> str:
    # a parsed comma list as it would be given
    return ",".join(str(v) for v in values)


def _unit_vector(values: tuple, flag: str, size: int, dtype) -> np.ndarray:
    raw = np.array(values, dtype=dtype)
    if raw.size != size:
        raise ValueError(f"{flag} needs {size} amplitudes")
    nrm = np.linalg.norm(raw)
    if not nrm > 0:
        raise ValueError(f"{flag} must not be all zero")
    return raw / nrm


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"not a finite non-negative number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return value


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"not a {kind} integer: {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def _seed(text: str) -> int:
    # numpy takes only non-negative seeds; a non-integer keeps argparse's text
    try:
        int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return _nonnegative_int(text)


def _positive_int(text: str) -> int:
    # a count of checks: zero would report success after checking nothing
    return _int_at_least(text, 1, "positive")


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


def _state_and_cut(args) -> tuple:
    return load_state(args.state), Bipartition(args.cut)


# ----- subcommand handlers: each gets its route's flags, returns (Report, exit_code) -----

def _cmd_state(args) -> tuple:
    if "state" in args:
        state = load_state(args.state)
        origin = f"loaded {args.state}"
    elif "weights" in args:
        w = WeightVector(args.weights)
        phases = args.phases or (0.0,) * len(w.m)
        if len(phases) != len(w.m):
            raise ValueError("one phase per weight")
        require_dense(len(w.m) ** 2, "diagonal state")
        diagonal = [math.sqrt(m_k / w.M) * np.exp(1j * ph) for m_k, ph in zip(w.m, phases)]
        state = StateVector((len(w.m),) * 2, np.diag(diagonal).reshape(-1))
        origin = f"weights {_text(w.m)}"
    elif "product" in args:
        parts = [load_state(p) for p in args.product.split(",")]
        require_dense(math.prod(p.amps.size for p in parts), "product state")
        state = tensor_product(parts)
        origin = f"product of {len(parts)} states"
    else:
        dims = args.dims
        if min(dims) < 1:  # a negative size would pass the budget check
            raise ValueError(f"--dims must be a nonempty list of positive integers, "
                             f"got {_text(dims)!r}")
        rng = np.random.default_rng(args.seed)
        size = math.prod(dims)
        require_dense(size, "random state")
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = StateVector(dims, raw / np.linalg.norm(raw))
        origin = f"random dims {_text(dims)} seed {args.seed}"
    scalars = [
        ("origin", origin),
        ("subsystems", state.n_subsystems),
        ("dims", "x".join(str(d) for d in state.dims)),
        ("norm", float(np.linalg.norm(state.amps))),
    ]
    if args.save:
        save_state(state, args.save)
        scalars.append(("saved", args.save))
    shown = state.amps[:256].tolist()
    scalars.append(("amplitudes_shown", len(shown)))
    table = Table("amplitudes", ("index", "re", "im"),
                  tuple((i, a.real, a.imag) for i, a in enumerate(shown)))
    return Report("state", tuple(scalars), (table,)), 0


def _cmd_schmidt(args) -> tuple:
    state, cut = _state_and_cut(args)
    dec = schmidt(state, cut, zero_tol=args.zero_tol,
                  canonicalize=args.canonical)
    defect = float(np.linalg.norm(reconstruct(dec) - state.amps))
    scalars = (
        ("rank", len(dec.coeffs)),
        ("reconstruction_defect", defect),
        ("reduced_purity", reduced_purity(state, cut)),
    )
    rows = tuple(
        (k, float(abs(c)), float(np.angle(c))) for k, c in enumerate(dec.coeffs)
    )
    table = Table("spectrum", ("k", "modulus", "phase"), rows)
    return Report("schmidt", scalars, (table,)), 0 if defect <= 1e-9 else 1


def _parse_block_unitary(spec_text: str, block_dim: int) -> np.ndarray:
    require_dense(block_dim ** 2, "block operator")
    kind, _, rest = str(spec_text).partition(":")
    if kind == "phase":
        phases = _floats(rest)
        if len(phases) != block_dim:
            raise ValueError(f"phase unitary needs {block_dim} angles")
        return np.diag(np.exp(1j * np.array(phases)))
    if kind == "swap":
        k, l = _index_pair(rest, "--unitary swap:")
        if not (0 <= k < block_dim and 0 <= l < block_dim):
            raise ValueError(f"swap indices outside block of dimension {block_dim}")
        mat = np.eye(block_dim, dtype=complex)
        mat[[k, l]] = mat[[l, k]]
        return mat
    if kind == "matrix":
        mat = _load_matrix(rest, complex)
        if mat.shape != (block_dim, block_dim):
            raise ValueError(f"matrix file must be {block_dim}x{block_dim}")
        return mat
    raise ValueError(f"unknown unitary spec {spec_text!r}; use phase:/swap:/matrix:")


def _cmd_envcheck(args) -> tuple:
    state, cut = _state_and_cut(args)
    block_dim = math.prod(state.dims[i] for i in cut.sides(state.n_subsystems)[0])
    if "unitary" in args:
        u_s = LocalUnitary(cut.left, _parse_block_unitary(args.unitary, block_dim))
        verdict = check_envariance(state, cut, u_s)
        source = "polished"
    elif "term_phases" in args:
        verdict = envcheck_run(state, cut, phases=args.term_phases)
        source = "schmidt-phase"
    else:
        verdict = envcheck_run(state, cut, basis=_load_matrix(args.partial, complex))
        source = "partial-swap"
    scalars = (
        ("envariant", verdict.envariant),
        ("gram_deviation", verdict.gram_deviation),
        ("residual_infidelity", verdict.residual_infidelity),
        ("overlap_after_unitary", verdict.overlap),
        ("restoration", verdict.restoration),
        ("counter_source", source),
    )
    return Report("envcheck", scalars, _counter_table(verdict.counter)), 0


def _counter_table(counter) -> tuple:
    # the dense counter 1 + E^T (V - 1) E^*, built only where it is printed
    if counter is None or counter.basis.shape[1] ** 2 > MAX_TABLE_ROWS:
        return ()
    basis, eye = counter.basis, np.eye(len(counter.block))
    dense = basis.T @ (counter.block - eye) @ basis.conj() + np.eye(basis.shape[1])
    return (_matrix_table("counter", dense),)


def _cmd_protocol(args) -> tuple:
    state, cut = _state_and_cut(args)
    k, l = args.pair
    if k == l:
        raise ValueError(f"--pair needs two distinct Schmidt terms, got {k},{l}")
    transcript = protocol_run(state, cut, SwapSpec(k=k, l=l, phase=args.phase), args.tol)
    scalars = (
        ("pair", f"{k}|{l}"),
        ("phase", args.phase),
        ("final_fidelity", transcript.final_fidelity),
        ("restoration_failed", transcript.restoration_failed),
    )
    rows = tuple((label, fid) for label, fid in transcript.steps)
    table = Table("transcript", ("step", "fidelity"), rows)
    return Report("protocol", scalars, (table,)), int(transcript.restoration_failed)


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
             coarse_probability(result, args.subset))
        )
    table = Table("outcomes", ("k", "m_k", "p", "p_float"), rows)
    code = 1 if args.tol is not None and result.rationalization_error > args.tol else 0
    return Report("born", tuple(scalars), (table,)), code


def _cmd_born(args) -> tuple:
    if "state" in args:
        state, cut = _state_and_cut(args)
        return _born_result_report(born_probabilities(state, cut, args.m_max), args)
    w = WeightVector(args.weights)
    report, code = _born_result_report(born_from_weights(w), args)
    phases = args.phases or (0.0,) * len(w.m)
    values = fine_values(w, phases)
    scalars = (("fine_terms", len(values)), ("fine_even", is_even(values)))
    return Report("born", report.scalars + scalars, report.tables), code


def _cmd_pointer(args) -> tuple:
    g = load_couplings(args.couplings)
    spectrum = (EnvSpectrum(_unit_vector(args.gamma, "--gamma", g.n_levels, float))
                if args.gamma else EnvSpectrum.uniform(g.n_levels))
    amps = _unit_vector(args.amps, "--amps", g.n_records - 1, complex) if args.amps else None
    t_final = args.time if args.time is not None else args.t1
    search = {"search": True, "iterations": args.iterations} if "search" in args else {}
    run = einselection_run(g, spectrum, t_final, args.t0, args.t1, args.steps, amps, **search)
    zeta_cols = ("t",) + tuple(f"{part}_{k}_{l}" for k, l in run.pairs
                               for part in ("re", "im", "abs"))
    scalars = [
        ("records", g.n_records - 1),
        ("levels", g.n_levels),
        ("time", float(t_final)),
        ("truth_max_score", run.truth.max_score),
        ("commutator_norm", run.commutator),
    ]
    tables = [
        Table("branches", ("outcome", "record", "prob"),
              tuple((k, k + 1, p) for k, p in enumerate(run.branch_probs))),
        Table("score_per_vector", ("vector", "score"),
              tuple(enumerate(run.truth.per_outcome))),
        Table("decoherence", zeta_cols, run.sweep),
    ]
    if run.search is not None:
        basis, found = run.search
        scalars += [("found_score", found.max_score),
                    ("degenerate_minimum", found.degenerate_minimum)]
        tables.append(_matrix_table("found_basis", basis))
    code = 1 if args.tol is not None and run.truth.max_score > args.tol else 0
    return Report("pointer", tuple(scalars), tuple(tables)), code


def _cmd_records(args) -> tuple:
    n = args.universe
    if "trials" in args:  # the axiom audit
        rep = verify_axioms(n, trials=args.trials, seed=args.seed)
        scalars = (
            ("universe", rep.universe_size),
            ("trials", rep.trials),
            ("clean", rep.clean),
            ("violations", len(rep.violations)),
        )
        table = Table("axioms", ("axiom", "passed"), tuple(rep.passes))
        return Report("records", scalars, (table,)), 0 if rep.clean else 1

    weights = args.weights
    if weights is not None and len(weights) != n:
        raise ValueError(f"need {n} weights for universe of size {n}")
    # parsing an event checks the universe size before n uniform weights are built
    kappa = parse_event(args.event, n) if "event" in args else None
    cells = () if args.partition is None else tuple(
        parse_event(part, n) for part in args.partition.split(";"))
    weights = weights or (1,) * n
    # one tally check prices the event, its complement and every cell
    pair = () if kappa is None else (kappa, complement(kappa))
    probs = event_probabilities(weights, pair + cells)
    scalars = []
    tables = []
    if kappa is not None:
        scalars += [("event", args.event), ("p_event", probs[0]),
                    ("p_complement", probs[1])]
        if len(set(weights)) == 1:
            scalars.append(("uniform_recursion_probability", lemma5_recursion(kappa)))
        if args.other is not None:
            lam = parse_event(args.other, n)
            scalars += zip(("p_other", "p_meet", "p_join"), event_probabilities(
                weights, (lam, meet(kappa, lam), join(kappa, lam))))
        if args.given is not None:
            scalars.append(
                ("p_given_outcome", conditional_probability(kappa, args.given)))
    if cells:
        scalars.append(("upsilon_dims", f"{len(cells)}x{n}"))
        scalars.append(("upsilon_support", partition_support(weights, cells)))
        rows = tuple((i, "|".join(str(m) for m in sorted(cell.members)), p)
                     for i, (cell, p) in enumerate(zip(cells, probs[len(pair):])))
        tables.append(Table("partition", ("cell", "members", "p"), rows))
    return Report("records", tuple(scalars), tuple(tables)), 0


def _cmd_freq(args) -> tuple:
    if "cells" in args:
        cells = args.cells
        counts = multinomial_history_counts(cells, args.N)
        rows = tuple(("-".join(str(x) for x in comp), counts[comp]) for comp in sorted(counts))
        scalars = (("outcomes", len(cells)), ("runs", args.N),
                   ("total", sum(counts.values())))
        table = Table("compositions", ("composition", "count"), rows)
        return Report("freq", scalars, (table,)), 0

    spec = ExperimentSpec(m=args.m, M=args.M, runs=args.N)
    phases = args.phases or (0.0, 0.0)
    if "register" in args:  # a register build samples no swaps
        run = repeated_runs(spec, args.delta_r, phases, with_register=True)
    else:
        run = repeated_runs(spec, args.delta_r, phases, args.pairs, args.seed)
    rows = tuple(zip(range(spec.runs + 1), run.tally.counts, run.distribution,
                     map(float, run.distribution), run.gaussian_approx,
                     run.gaussian_reference))
    tables = [Table("frequencies", ("n", "count", "p", "p_float", "gaussian_approx",
                                    "gaussian_reference"), rows)]
    scalars = [("total", run.tally.total), ("deviation", run.deviation)]
    if args.delta_r is not None:
        scalars += [("delta_r", args.delta_r), ("maverick_mass", run.maverick)]
    scalars.append(("superensemble", run.route))
    code = 0
    report = run.report
    if report is not None:
        scalars += [("census_matches", report.census_matches),
                    ("max_modulus_dev", report.max_modulus_dev)]
        swap_rows = tuple(
            ("|".join(".".join(str(j) for j in history) for history in check.pair),
             check.restoration, check.envariant, check.counter_fidelity)
            for check in report.swap_checks)
        if swap_rows:
            tables.append(Table("swap_checks", ("pair", "restoration", "envariant",
                                                "counter_fidelity"), swap_rows))
        code = 1 if report.failed else 0
    return Report("freq", tuple(scalars), tuple(tables)), code


def _build_wavefunction(args) -> WaveFunction:
    if args.family == "gaussian":
        return WaveFunction.gaussian(center=args.center, width=args.width)
    if args.family == "uniform":
        return WaveFunction.uniform(args.a, args.b)
    return WaveFunction.box_mixture(args.edges, args.box_weights)


def _cmd_continuum(args) -> tuple:
    if "truncate_ratio" in args:
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
    size = {"cells": args.cells} if "adaptive" in args else {"dx": args.dx}
    interval = args.interval
    run = mesh_run(psi, args.x0, args.x1, quad_points=args.quad, interval=interval,
                   m_max=args.m_max, **size)
    d, mesh = run.state, run.state.mesh
    scalars = [
        ("family", psi.label),
        ("cells", mesh.cells),
        ("adaptive", "adaptive" in args),
        ("quad_points", d.quad_points),
        ("remainder_sq", d.remainder_sq),
        ("orthogonality_defect", run.defect),
    ]
    if interval is not None:
        scalars += [("interval", "[" + "|".join(f"{x:.12g}" for x in interval) + ")"),
                    ("interval_probability", run.interval_probability)]
    code = 0
    if run.counting is not None:
        error = run.counting.born.rationalization_error
        scalars += [("pipeline_max_gap", run.max_gap), ("rationalization_error", error)]
        code = 1 if run.max_gap > error + 1e-9 else 0
    tables = ()
    if mesh.cells <= 512:
        rows = tuple(zip(range(mesh.cells), mesh.edges().tolist(), mesh.cell_widths().tolist(),
                         [a.real for a in d.psi_k], [a.imag for a in d.psi_k],
                         d.cell_probs().tolist()))
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


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


class Route(NamedTuple):
    """One way to run a subcommand: the flags that pick it and the others it reads."""

    picks: dict     # flag -> the value it must have, or None for any given value
    defaults: dict  # every other flag the handler reads -> its value when not given

    @property
    def name(self) -> str:
        return " ".join(_option(f) + (f"={v}" if v else "") for f, v in self.picks.items())

    def holds(self, given: dict) -> bool:
        values = {**self.defaults, **given}
        return all(values.get(flag) is not None and pin in (None, values[flag])
                   for flag, pin in self.picks.items())


def _route(picks: str, **defaults) -> Route:
    """Route from space-separated pick flags, where "family=box" pins a value."""
    pins = (pick.partition("=") for pick in picks.split())
    return Route({flag: value or None for flag, _, value in pins}, defaults)


_POINTER = dict(gamma=None, amps=None, t0=0.0, t1=10.0, steps=200, time=None, tol=None)
_MESH = dict(x0=-8.0, x1=8.0, quad=16, interval=None, m_max=None)
# each wave function family with its parameters; a box is picked by its edges and weights
_FAMILIES = (("box edges box_weights", {}), ("uniform", dict(a=0.0, b=1.0)),
             ("gaussian", dict(family="gaussian", center=0.0, width=1.0)))

# Each subcommand's routes in the order main tries them, and the only list of its flags:
# _build_parser adds the flags its routes name.  Flags are parser dests, and --format and
# --out go with every route.  A pin that is also a default holds if not given.
ROUTES = {
    "state": (_route("state", save=None), _route("weights", phases=None, save=None),
              _route("product", save=None), _route("dims", seed=0, save=None)),
    "schmidt": (_route("state cut", zero_tol=1e-12, canonical=False),),
    "envcheck": (_route("unitary state cut"), _route("term_phases state cut"),
                 _route("partial state cut")),
    "protocol": (_route("state cut pair", phase=0.0, tol=1e-12),),
    "born": (_route("weights", phases=None, subset=None, tol=None),
             _route("state", cut=(0,), m_max=1024, subset=None, tol=None)),
    "pointer": (_route("search couplings", iterations=48, **_POINTER),
                _route("couplings", **_POINTER)),
    "records": (_route("event universe", other=None, given=None, weights=None, partition=None),
                _route("partition universe", weights=None),
                _route("universe", trials=500, seed=0)),
    "freq": (_route("cells", N=1), _route("register m M", N=1, delta_r=None, phases=None),
             _route("m M", N=1, delta_r=None, phases=None, pairs=2, seed=0)),
    "continuum": (_route("truncate_ratio delta_target"),) + tuple(
        _route(f"{size} family={family}", **params, **_MESH)
        for size in ("adaptive cells", "dx") for family, params in _FAMILIES),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag is given in full: a prefix is no flag
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # one "error:" line, like every other input error
        self.exit(2, f"error: {message}\n")


# each subcommand's line in `envlab --help`
_ABOUT = {
    "state": "load, build, combine, and save state vectors",
    "schmidt": "Schmidt spectrum, reconstruction, reduced purity",
    "envcheck": "test a left-side unitary for envariance",
    "protocol": "swap/counterswap transcript with fidelities",
    "born": "probabilities by rationalize/fine-grain/count",
    "pointer": "premeasurement, decoherence sweep, basis search",
    "records": "record-algebra audit and event probabilities",
    "freq": "repeated-run tallies and the explicit superensemble",
    "continuum": "discretize wavefunctions; truncate sequences",
}

# parse type, choices and help of each route flag that is not plain text without help;
# a (command, flag) key is for a flag that parses differently in one subcommand
_FLAGS = {
    **dict.fromkeys(("canonical", "search", "register", "adaptive"),
                    dict(action="store_true", default=None)),
    **dict.fromkeys(("phase", "t0", "t1", "time", "center", "width", "a", "b", "x0", "x1",
                     "dx"), dict(type=_finite_float)),
    **dict.fromkeys(("universe", "given", "m", "M", "N", "cells", "quad"), dict(type=int)),
    **dict.fromkeys(("steps", "iterations"), dict(type=_nonnegative_int)),
    **dict.fromkeys(("dims", "cut", "weights", "subset"), dict(type=_listed(_ints))),
    **dict.fromkeys(("phases", "gamma", "amps", "edges", "box_weights"),
                    dict(type=_listed(_floats))),
    "zero_tol": dict(type=_nonnegative_float),
    "trials": dict(type=_positive_int),
    "family": dict(choices=("gaussian", "uniform", "box")),
    "delta_target": dict(type=_fraction_text),
    "truncate_ratio": dict(type=_fraction_text,
                           help="geometric ratio; runs truncation instead of a mesh"),
    "delta_r": dict(type=_fraction_text, help="maverick threshold, exact decimal like 0.1"),
    "pairs": dict(type=_nonnegative_int, help="history swaps to check (default 2)"),
    "m_max": dict(type=int, help="largest common denominator tried (born: default 1024)"),
    "product": dict(help="comma-separated state files to tensor together"),
    "unitary": dict(help="phase:a,b,... | swap:k,l | matrix:PATH"),
    "term_phases": dict(type=_listed(_floats),
                        help="Schmidt-term phases; counter built analytically"),
    "partial": dict(help="file with new basis rows spanning Schmidt vectors"),
    "pair": dict(type=_listed(_index_pair, "--pair"), help="Schmidt term indices k,l"),
    "couplings": dict(help="text file: one row per record, one column per level"),
    "partition": dict(help="semicolon-separated cells, e.g. 0,1;2,3"),
    "interval": dict(type=_listed(_endpoints), help="a,b inside the mesh"),
    ("freq", "cells"): dict(type=_listed(_ints),
                            help="multinomial mode: fine cells per outcome"),
}


def _build_parser() -> argparse.ArgumentParser:
    # no default but --format's: a flag is given when it is not None, and ROUTES holds the
    # defaults; --seed and --tol parse on every subcommand, so a bad value is refused first
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--out")
    common.add_argument("--seed", type=_seed)
    common.add_argument("--tol", type=_positive_float)

    parser = _Parser(
        prog="envlab",
        description="batch runner for the entanglement-invariance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes the flags its routes read, in route order
    for command, routes in ROUTES.items():
        p = sub.add_parser(command, parents=[common], help=_ABOUT[command])
        for flag in dict.fromkeys(f for r in routes for f in (*r.picks, *r.defaults)):
            if flag not in ("seed", "tol"):  # the parent parser's
                p.add_argument(_option(flag),
                               **_FLAGS.get((command, flag), _FLAGS.get(flag, {})))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    given = {flag: value for flag, value in vars(args).items()
             if value is not None and flag not in ("command", "format", "out")}
    routes = ROUTES[args.command]
    try:
        # the one flag rule: the first route whose picks hold runs, and every
        # other given flag must be one that route reads
        route = next((r for r in routes if r.holds(given)), None)
        if route is None:
            raise ValueError(f"{args.command} needs one of: "
                             + " | ".join(r.name for r in routes))
        stray = [flag for flag in given if flag not in {**route.picks, **route.defaults}]
        if stray:
            raise ValueError(f"{_option(stray[0])} does not apply to {route.name}")
        # an overflow or invalid value would leave inf or nan in the report
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report, code = HANDLERS[args.command](
                argparse.Namespace(**{**route.defaults, **given}))
        text = emit_report(report, args.format)
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, OSError, MemoryError, FloatingPointError) as exc:
        # an exception without a message (a bare MemoryError) is named instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
