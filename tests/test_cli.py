"""Front-end checks: flag wiring, rendering, exit codes, determinism.

Engine math is covered by the module suites; here we only pin what the
command layer adds on top of it, plus the audit that CLI runs, watched call
by call, enter every public engine function.
"""

import argparse
import contextlib
import inspect
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import envlab.born
import envlab.cli as cli_module
import envlab.continuum
import envlab.envariance
import envlab.frequencies
import envlab.hilbert
import envlab.pointer
import envlab.records
from conftest import build_upsilon
from envlab.cli import main
from envlab.hilbert import StateVector, load_state, save_state
from envlab.report import Report, Table, emit_report

ENGINES = (
    envlab.hilbert,
    envlab.envariance,
    envlab.born,
    envlab.pointer,
    envlab.records,
    envlab.frequencies,
    envlab.continuum,
)


def run_cli(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scalar(out: str, name: str) -> str:
    for line in out.splitlines():
        if line.startswith(name + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"scalar {name!r} not in output:\n{out}")


def table_rows(out: str, name: str):
    lines = out.splitlines()
    start = lines.index(f"[{name}]")
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


@pytest.fixture
def uneven_state(tmp_path):
    # sqrt(1/3)|00> + sqrt(2/3)|11>
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = math.sqrt(1 / 3), math.sqrt(2 / 3)
    path = tmp_path / "uneven.state"
    save_state(StateVector((2, 2), amps), path)
    return str(path)


@pytest.fixture
def even_state(tmp_path):
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = math.sqrt(0.5)
    path = tmp_path / "even.state"
    save_state(StateVector((2, 2), amps), path)
    return str(path)


@pytest.fixture
def couplings_file(tmp_path):
    # 3 apparatus levels (ready + 2 records) x 4 environment levels
    path = tmp_path / "g.txt"
    np.savetxt(path, 0.37 * np.arange(12.0).reshape(3, 4))
    return str(path)


# ----- operation coverage audit -----

def _operation_codes(mod):
    """("module.function", code) for every public function that mod defines, and
    ("module.Class.method", code) for every public method and classmethod of its
    classes."""
    short = mod.__name__.split(".")[-1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                function = getattr(member, "__func__", member)  # unwraps a classmethod
                if not attr.startswith("_") and inspect.isfunction(function):
                    yield f"{short}.{name}.{attr}", function.__code__


def public_operations(mod):
    return {name for name, _ in _operation_codes(mod)}


def public_codes(methods=False) -> dict:
    """Code object -> name of every public engine function, and with methods
    of every public method and classmethod of an engine class."""
    return {code: name for mod in ENGINES for name, code in _operation_codes(mod)
            if methods or name.count(".") == 1}


# One in-process run per route of cli.ROUTES.  Braced names are fixture files.
AUDIT_RUNS = (
    ["state", "--state", "{state}"],
    ["state", "--weights", "1,2", "--phases", "0.5,0"],
    ["state", "--dims", "2,2", "--save", "{saved}"],
    ["state", "--product", "{state},{state}"],
    ["schmidt", "--state", "{state}", "--cut", "0"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "matrix:{swap}"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--term-phases", "0.3,0.9"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--partial", "{basis}"],
    ["protocol", "--state", "{state}", "--cut", "0", "--pair", "0,1"],
    ["born", "--weights", "2,3,5", "--subset", "0,2"],
    ["born", "--state", "{state}", "--cut", "0"],
    ["pointer", "--couplings", "{couplings}", "--steps", "3", "--search",
     "--iterations", "1"],
    ["pointer", "--couplings", "{couplings}", "--steps", "3", "--amps", "0.6,0.8"],
    ["records", "--universe", "4", "--trials", "5"],
    ["records", "--universe", "4", "--event", "0,1", "--other", "1,2",
     "--given", "1", "--partition", "0,1;2,3"],
    ["records", "--universe", "4", "--weights", "1,2,3,4", "--partition", "0;1,2,3"],
    ["freq", "--m", "1", "--M", "2", "--N", "2", "--delta-r", "0.1"],
    ["freq", "--m", "1", "--M", "2", "--N", "12"],
    ["freq", "--m", "1", "--M", "2", "--N", "2", "--register"],
    ["freq", "--m", "1", "--M", "2", "--N", "12", "--phases", "0.3,-0.8", "--pairs", "1"],
    ["freq", "--cells", "1,2", "--N", "3"],
    ["continuum", "--dx", "0.5", "--interval=-1,1", "--m-max", "512"],
    ["continuum", "--adaptive", "--cells", "8"],
    ["continuum", "--family", "uniform", "--a", "0", "--b", "1", "--dx", "0.25",
     "--x0", "0", "--x1", "1"],
    ["continuum", "--family", "uniform", "--adaptive", "--cells", "4", "--x0", "0",
     "--x1", "1"],
    ["continuum", "--family", "box", "--edges", "0,0.5,1", "--box-weights", "0.5,0.5",
     "--dx", "0.25", "--x0", "0", "--x1", "1"],
    ["continuum", "--family", "box", "--edges", "0,0.5,1", "--box-weights", "0.5,0.5",
     "--adaptive", "--cells", "4", "--x0", "0", "--x1", "1"],
    ["continuum", "--truncate-ratio", "1/2", "--delta-target", "0.1"],
)


@pytest.fixture(scope="module")
def audit_files(tmp_path_factory):
    """Braced name -> path of the fixture files the audit runs read."""
    root = tmp_path_factory.mktemp("audit")
    files = {name: str(root / name)
             for name in ("saved", "state", "swap", "basis", "couplings")}
    save_state(StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2)),
               files["state"])
    np.savetxt(files["swap"], [[0.0, 1.0], [1.0, 0.0]])
    np.savetxt(files["basis"], np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    np.savetxt(files["couplings"], 0.37 * np.arange(12.0).reshape(3, 4))
    return files


# The budget audit shrinks the amplitude budget, and every cap that sizes a
# route alongside it by the same factor, then runs AUDIT_RUNS on fixture
# files sized to that budget.
AUDIT_BUDGET = 2 ** 12
AUDIT_PEAK_RATIO = 24  # traced peak per byte of the budget's complex amplitudes
AUDIT_FLOOR = 2 ** 18  # argparse, the report and the interpreter, whatever the budget


@pytest.fixture(scope="module")
def budget_files(tmp_path_factory, audit_files):
    """audit_files with a Bell-like state of AUDIT_BUDGET amplitudes, whose
    long side holds a degenerate Schmidt group, and a basis rotating it."""
    root = tmp_path_factory.mktemp("budget")
    files = dict(audit_files, **{name: str(root / name) for name in ("saved", "state", "basis")})
    rows = AUDIT_BUDGET // 2
    save_state(bell_like(rows), files["state"])
    np.savetxt(files["basis"], hadamard_rows(rows))
    return files


@pytest.fixture(scope="module")
def audit_argvs(audit_files):
    """AUDIT_RUNS with their fixture files written."""
    return [[a.format(**audit_files) for a in argv] for argv in AUDIT_RUNS]


@pytest.fixture(scope="module")
def audit_reached(audit_argvs):
    """(argv, exit code, public engine operations the run entered) per run."""
    names = public_codes(methods=True)

    results = []
    for argv in audit_argvs:
        reached = set()

        def watch(frame, event, arg):
            if event == "call" and frame.f_code in names:
                reached.add(names[frame.f_code])

        previous = sys.getprofile()
        sys.setprofile(watch)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            sys.setprofile(previous)
        results.append((argv, code, reached))
    return results


def test_every_audit_run_exits_zero(audit_reached):
    assert [argv for argv, code, _ in audit_reached if code != 0] == []


def test_every_audit_run_stays_within_the_budget(budget_files, monkeypatch):
    # each run exits 0, or 2 with the budget's refusal, and its traced peak
    # stays within AUDIT_PEAK_RATIO times the budget's bytes plus the floor;
    # the d x d projector of the degenerate Schmidt group on the 2,048-level
    # side used to take schmidt and envcheck/protocol on --cut 0 to 1,031 times
    scale = AUDIT_BUDGET / envlab.born.DENSE_AMPLITUDE_CAP
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", AUDIT_BUDGET)
    for mod, cap in ((envlab.frequencies, "SPARSE_TERM_CAP"),
                     (envlab.frequencies, "COMPOSITION_CAP"), (envlab.records, "UNIVERSE_CAP")):
        monkeypatch.setattr(mod, cap, int(getattr(mod, cap) * scale))
    bound = AUDIT_PEAK_RATIO * 16 * AUDIT_BUDGET + AUDIT_FLOOR
    over = []
    for argv in AUDIT_RUNS:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([a.format(**budget_files) for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        refused = code == 2 and f"(cap {AUDIT_BUDGET})" in err.getvalue()
        if peak > bound or not (code == 0 or refused):
            over.append((" ".join(argv), code, f"{peak / (16 * AUDIT_BUDGET):.0f}x"))
    assert over == []


def test_every_public_operation_is_reached_by_a_cli_run(audit_reached):
    # the engine list here is built independently of the cli module
    available = set()
    for mod in ENGINES:
        available |= public_operations(mod)
    reached = set().union(*(ops for _, _, ops in audit_reached))
    assert sorted(available - reached) == []
    assert reached == available


def test_every_subcommand_reaches_the_engines(audit_reached):
    for command in cli_module.HANDLERS:
        assert any(argv[0] == command and ops for argv, _, ops in audit_reached), command


def test_handlers_are_the_parser_subcommands():
    assert set(cli_module.HANDLERS) == {command for command, _ in _parser_actions()}


# ----- the route table against the parser and the handlers -----

class ReadRecorder:
    """Route args that note every flag a handler reads: an attribute it gets,
    or a flag it finds present with ``in``."""

    def __init__(self, args):
        self._args, self.reads = args, set()

    def __getattr__(self, flag):
        value = getattr(self._args, flag)
        self.reads.add(flag)
        return value

    def __contains__(self, flag):
        present = flag in self._args
        if present:
            self.reads.add(flag)
        return present


@contextlib.contextmanager
def recorded_handlers():
    """Run every handler on a ReadRecorder; yields a list that gets, per
    handler call, the flags main handed over and the flags the handler read."""
    calls = []

    def recorded(handler):
        def run(args):
            proxy = ReadRecorder(args)
            calls.append((set(vars(args)), proxy.reads))
            return handler(proxy)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for command, handler in cli_module.HANDLERS.items():
            patch.setitem(cli_module.HANDLERS, command, recorded(handler))
        yield calls


def route_flags(route) -> set:
    return set(route.picks) | set(route.defaults)


def test_every_route_reads_exactly_its_flags(audit_argvs):
    routes = {(command, frozenset(route_flags(r))): r.name
              for command, rs in cli_module.ROUTES.items() for r in rs}
    reached = set()
    for argv in audit_argvs:
        with recorded_handlers() as calls, contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        ((handed, reads),) = calls
        assert (argv[0], frozenset(handed)) in routes, argv
        assert reads == handed, (argv, sorted(handed - reads), sorted(reads - handed))
        reached.add(routes[argv[0], frozenset(handed)])
    # an audit run per route, so no route's flags go unchecked
    assert sorted(set(routes.values()) - reached) == []
    assert len(routes) == sum(len(rs) for rs in cli_module.ROUTES.values())


def test_routes_and_parser_name_the_same_flags():
    shared = {"format", "out", "seed", "tol"}  # the parent parser's flags
    parsed = {}
    for command, action in _parser_actions():
        if action.dest != "help":
            parsed.setdefault(command, set()).add(action.dest)
            # every flag is "--" plus its dest, with "-" for "_"
            assert action.option_strings == [cli_module._option(action.dest)]
    assert set(cli_module.ROUTES) == set(parsed)
    routed = {}
    for command, routes in cli_module.ROUTES.items():
        routed[command] = set().union(*map(route_flags, routes))
        assert routed[command] <= parsed[command] - {"format", "out"}, command
        assert parsed[command] - shared <= routed[command], command
    # --seed and --tol parse everywhere, so a bad value is refused while
    # parsing; each is read by some route
    assert {"seed", "tol"} <= set().union(*routed.values())


# ----- rendering of exact values -----

def test_born_weights_exact_fractions(capsys):
    code, out, _ = run_cli(["born", "--weights", "2,3,5"], capsys)
    assert code == 0
    rows = table_rows(out, "outcomes")
    assert [r[2] for r in rows] == ["1/5", "3/10", "1/2"]
    assert scalar(out, "rationalization_error") == "0"
    assert scalar(out, "M") == "10"
    assert scalar(out, "fine_even") == "true"


def test_born_weights_reads_fine_values_past_the_dense_budget(capsys):
    # 2 x 2000^2 amplitudes would not fit a dense fine-grained build
    code, out, _ = run_cli(["born", "--weights", "1000,1000"], capsys)
    assert code == 0
    assert scalar(out, "fine_terms") == "2000"
    assert scalar(out, "fine_even") == "true"


def test_born_weights_builds_no_dense_state():
    # the dense build would take 2 x 1448^2 amplitudes, 64 MiB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["born", "--weights", "700,748"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "fine_terms = 1448" in out.getvalue()
    assert peak < 8 * 2 ** 20


def test_born_subset_probability(capsys):
    code, out, _ = run_cli(
        ["born", "--weights", "2,3,5", "--subset", "0,2"], capsys)
    assert code == 0
    assert scalar(out, "subset_probability") == "7/10"


def test_freq_counts_csv(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "1", "--M", "3", "--N", "3", "--format", "csv"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines.index("n,count,p,p_float,gaussian_approx,gaussian_reference")
    data = [line.split(",") for line in lines[header + 1: header + 5]]
    # C(3,n) 1^(3-n) 2^n
    assert [int(r[1]) for r in data] == [math.comb(3, n) * 2 ** n for n in range(4)]
    assert [r[2] for r in data] == ["1/27", "2/9", "4/9", "8/27"]
    assert "# census_matches=true" in lines


def test_truncation_exact_fractions(capsys):
    code, out, _ = run_cli(
        ["continuum", "--truncate-ratio", "1/2", "--delta-target", "0.1"],
        capsys)
    assert code == 0
    assert scalar(out, "n_delta") == "7"
    assert scalar(out, "delta_sq") == "1/128"
    rows = table_rows(out, "kept_terms")
    assert rows[0][1] == "0.5" and rows[1][1] == "0.25"


def test_records_event_probabilities(capsys):
    code, out, _ = run_cli(
        ["records", "--universe", "6", "--weights", "1,2,3,1,2,1",
         "--event", "0,1", "--other", "1,2", "--given", "1",
         "--partition", "0,1;2,3;4,5"], capsys)
    assert code == 0
    assert scalar(out, "p_event") == "3/10"
    assert scalar(out, "p_complement") == "7/10"
    assert scalar(out, "p_meet") == "1/5"
    assert scalar(out, "p_join") == "3/5"
    assert scalar(out, "p_given_outcome") == "1"
    assert scalar(out, "upsilon_dims") == "3x6"
    rows = table_rows(out, "partition")
    assert [r[2] for r in rows] == ["3/10", "2/5", "3/10"]


def test_records_uniform_recursion(capsys):
    code, out, _ = run_cli(
        ["records", "--universe", "4", "--event", "1,3"], capsys)
    assert code == 0
    assert scalar(out, "uniform_recursion_probability") == "1/2"


def test_records_audit_clean(capsys):
    code, out, _ = run_cli(
        ["records", "--universe", "5", "--trials", "60"], capsys)
    assert code == 0
    assert scalar(out, "clean") == "true"
    assert len(table_rows(out, "axioms")) == 5


# ----- envariance verdicts through the front end -----

def test_envcheck_phase_unitary(uneven_state, capsys):
    code, out, _ = run_cli(
        ["envcheck", "--state", uneven_state, "--cut", "0",
         "--unitary", "phase:0.4,1.1"], capsys)
    assert code == 0
    assert scalar(out, "envariant") == "true"
    assert float(scalar(out, "restoration")) > 1 - 1e-10
    assert "[counter]" in out


def test_envcheck_swap_not_envariant(uneven_state, capsys):
    code, out, _ = run_cli(
        ["envcheck", "--state", uneven_state, "--cut", "0",
         "--unitary", "swap:0,1"], capsys)
    assert code == 0
    assert scalar(out, "envariant") == "false"


def test_envcheck_term_phase_counter(uneven_state, capsys):
    code, out, _ = run_cli(
        ["envcheck", "--state", uneven_state, "--cut", "0",
         "--term-phases", "0.3,0.9"], capsys)
    assert code == 0
    assert scalar(out, "counter_source") == "schmidt-phase"
    assert float(scalar(out, "restoration")) > 1 - 1e-10


def test_protocol_uneven_pair_reports_failure(uneven_state, capsys):
    code, out, _ = run_cli(
        ["protocol", "--state", uneven_state, "--cut", "0", "--pair", "0,1"],
        capsys)
    assert code == 1
    assert scalar(out, "restoration_failed") == "true"
    # 2 sqrt(2)/3
    assert abs(float(scalar(out, "final_fidelity")) - 2 * math.sqrt(2) / 3) < 1e-10
    steps = table_rows(out, "transcript")
    assert steps[0][0] == "confirm" and float(steps[0][1]) == 1.0
    assert steps[1][0] == "swap" and float(steps[1][1]) < 1e-10


def test_protocol_even_pair_restores(even_state, capsys):
    code, out, _ = run_cli(
        ["protocol", "--state", even_state, "--cut", "0", "--pair", "0,1"],
        capsys)
    assert code == 0
    assert scalar(out, "restoration_failed") == "false"
    assert float(scalar(out, "final_fidelity")) > 1 - 1e-12


@pytest.mark.parametrize("tol, code, failed", [("0.1", 0, "false"), ("0.01", 1, "true")])
def test_protocol_tol_is_the_restoration_threshold(tol, code, failed, uneven_state, capsys):
    # final fidelity 2 sqrt(2)/3 = 0.9428; a looser --tol used to stay at 1e-12
    got, out, _ = run_cli(["protocol", "--state", uneven_state, "--cut", "0",
                           "--pair", "0,1", "--tol", tol], capsys)
    assert (got, scalar(out, "restoration_failed")) == (code, failed)


# ----- pointer and schmidt surfaces -----

def test_schmidt_scalars(uneven_state, capsys):
    code, out, _ = run_cli(
        ["schmidt", "--state", uneven_state, "--cut", "0"], capsys)
    assert code == 0
    assert scalar(out, "rank") == "2"
    assert float(scalar(out, "reconstruction_defect")) <= 1e-9
    # purity of diag(1/3, 2/3)
    assert abs(float(scalar(out, "reduced_purity")) - 5 / 9) < 1e-12


def test_schmidt_zero_tol_dropping_support_exits_one(tmp_path, capsys):
    # the truncated sum used to be refused as a state of norm 0.992, exit 2
    path = str(tmp_path / "r.state")
    assert run_cli(["state", "--dims", "4,4", "--seed", "3", "--save", path], capsys)[0] == 0
    code, out, err = run_cli(["schmidt", "--state", path, "--cut", "0", "--zero-tol", "0.2"],
                             capsys)
    assert (code, err, scalar(out, "rank")) == (1, "", "2")
    assert abs(float(scalar(out, "reconstruction_defect")) - 0.127) < 1e-3


def test_pointer_truth_basis_and_commutator(couplings_file, capsys):
    code, out, _ = run_cli(
        ["pointer", "--couplings", couplings_file, "--steps", "4"], capsys)
    assert code == 0
    assert scalar(out, "records") == "2"
    assert float(scalar(out, "commutator_norm")) <= 1e-12
    assert float(scalar(out, "truth_max_score")) <= 1e-10
    rows = table_rows(out, "branches")
    assert [r[2] for r in rows] == ["0.5", "0.5"]
    header = table_rows(out, "decoherence")
    assert len(header[0]) == 4  # t plus re/im/abs for the single record pair


def test_pointer_search_runs(couplings_file, capsys):
    code, out, _ = run_cli(
        ["pointer", "--couplings", couplings_file, "--steps", "3",
         "--search", "--amps", "0.6,0.8", "--time", "3.7"], capsys)
    assert code == 0
    assert "found_score" in out
    assert "[found_basis]" in out


# ----- state handling -----

def test_state_product_dims(even_state, capsys):
    code, out, _ = run_cli(
        ["state", "--product", f"{even_state},{even_state}"], capsys)
    assert code == 0
    assert scalar(out, "dims") == "2x2x2x2"
    assert abs(float(scalar(out, "norm")) - 1.0) < 1e-12


def test_state_save_roundtrip(tmp_path, capsys):
    target = tmp_path / "saved.state"
    code, out, _ = run_cli(
        ["state", "--dims", "2,3", "--seed", "9", "--save", str(target)],
        capsys)
    assert code == 0
    got = load_state(target)
    assert got.dims == (2, 3)
    assert abs(np.linalg.norm(got.amps) - 1.0) < 1e-9


def test_state_weights_matches_born(capsys):
    code, out, _ = run_cli(["state", "--weights", "1,1"], capsys)
    assert code == 0
    rows = table_rows(out, "amplitudes")
    amps = [complex(float(r[1]), float(r[2])) for r in rows]
    assert abs(amps[0] - math.sqrt(0.5)) < 1e-12
    assert abs(amps[3] - math.sqrt(0.5)) < 1e-12


# ----- freq surfaces -----

def test_freq_register_variant(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "1", "--M", "2", "--N", "2", "--register"], capsys)
    assert code == 0
    assert scalar(out, "census_matches") == "true"
    assert "[swap_checks]" not in out  # register build skips the swap protocol


def test_freq_swap_checks_present(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "1", "--M", "2", "--N", "2"], capsys)
    assert code == 0
    rows = table_rows(out, "swap_checks")
    assert rows
    for row in rows:
        assert float(row[1]) > 1 - 1e-12


def test_freq_multinomial_mode(capsys):
    code, out, _ = run_cli(["freq", "--cells", "1,2", "--N", "3"], capsys)
    assert code == 0
    assert scalar(out, "total") == "27"
    rows = table_rows(out, "compositions")
    assert [r[0] for r in rows] == ["0-3", "1-2", "2-1", "3-0"]
    assert [int(r[1]) for r in rows] == [8, 12, 6, 1]


@pytest.mark.parametrize("flags, route, code", [
    ("--m 1 --M 2 --N 2 --register", "explicit", 0),
    ("--m 1 --M 2 --N 3 --register", "explicit", 0),
    ("--m 1 --M 2 --N 4 --register", None, 2),
    ("--m 1 --M 10 --N 4 --register", "skipped-beyond-desk-scale", 0),
    ("--m 1 --M 2 --N 13 --register", "skipped-beyond-desk-scale", 0),
    ("--m 1 --M 2 --N 12", "sparse-census", 0),
    ("--m 1 --M 3 --N 6", "sparse-census", 0),
    ("--m 2 --M 10 --N 8", "skipped-beyond-desk-scale", 0),
])
def test_freq_route_table(flags, route, code, capsys):
    got, out, err = run_cli(["freq", *flags.split()], capsys)
    assert got == code
    if route is None:
        assert out == ""
        assert err == "error: physical register option is limited to runs <= 3\n"
    else:
        assert scalar(out, "superensemble") == route


def test_freq_beyond_desk_scale_skips(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "2", "--M", "10", "--N", "8"], capsys)
    assert code == 0
    assert scalar(out, "superensemble") == "skipped-beyond-desk-scale"


def test_freq_maverick_scalar(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "1", "--M", "2", "--N", "2", "--delta-r", "0.49"],
        capsys)
    assert code == 0
    assert scalar(out, "maverick_mass") == "1/2"


# ----- continuum surface -----

def test_continuum_mesh_report(capsys):
    code, out, _ = run_cli(
        ["continuum", "--dx", "0.5", "--interval=-1,1", "--m-max", "4096"],
        capsys)
    assert code == 0
    assert scalar(out, "cells") == "32"
    assert abs(float(scalar(out, "interval_probability")) - math.erf(1)) < 5e-3
    gap = float(scalar(out, "pipeline_max_gap"))
    err = float(scalar(out, "rationalization_error"))
    assert gap <= err + 1e-9


def test_continuum_adaptive_mesh(capsys):
    code, out, _ = run_cli(
        ["continuum", "--adaptive", "--cells", "16"], capsys)
    assert code == 0
    assert scalar(out, "adaptive") == "true"
    assert scalar(out, "cells") == "16"
    assert len(table_rows(out, "cells")) == 16


# ----- formats, --out, determinism, exit codes -----

def test_structured_output_is_json(capsys):
    code, out, _ = run_cli(
        ["born", "--weights", "2,3,5", "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["title"] == "born"
    assert doc["scalars"]["M"] == "10"
    assert doc["tables"][0]["name"] == "outcomes"


def test_csv_has_table_header(capsys):
    code, out, _ = run_cli(
        ["born", "--weights", "2,3,5", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# title=born"
    assert "k,m_k,p,p_float" in out


@pytest.mark.parametrize("fmt", ["table", "csv", "structured"])
def test_a_short_row_is_refused_in_every_format(fmt):
    short = Report("t", (), (Table("cells", ("a", "b"), ((1,),)),))
    with pytest.raises(ValueError, match="row width mismatch in table 'cells'"):
        emit_report(short, fmt)


def test_csv_refuses_a_comma_inside_a_cell():
    report = Report("t", (), (Table("cells", ("a",), (("1,2",),)),))
    with pytest.raises(ValueError, match="comma inside CSV cell '1,2'"):
        emit_report(report, "csv")
    assert emit_report(report, "table").endswith("1,2\n")


def test_unknown_report_format_is_refused():
    with pytest.raises(ValueError, match="unknown format 'yaml'"):
        emit_report(Report("t"), "yaml")


GOLDEN_BORN_CSV = """\
# title=born
# outcomes=3
# M=10
# rationalization_error=0
# fine_terms=10
# fine_even=true
# table=outcomes
k,m_k,p,p_float
0,2,1/5,0.2
1,3,3/10,0.3
2,5,1/2,0.5
"""


def test_golden_bytes_born_csv(capsys):
    # pins the full byte stream, not just determinism between two live runs
    code, out, _ = run_cli(
        ["born", "--weights", "2,3,5", "--format", "csv"], capsys)
    assert code == 0
    assert out == GOLDEN_BORN_CSV


def one_error_line(code, out, err, message):
    assert code == 2 and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert message in err, err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "0", "argument --tol: tolerance must be positive"),
    ("--format", "yaml", "argument --format: invalid choice: 'yaml'"),
    ("--seed", "1.5", "argument --seed: invalid int value: '1.5'"),
])
def test_shared_flags_are_checked_while_parsing(flag, value, message, capsys):
    one_error_line(*run_cli(["born", "--weights", "1,1", flag, value], capsys),
                   message)


@pytest.mark.parametrize("target", ["missing/report.txt", "."],
                         ids=["missing-directory", "is-a-directory"])
def test_unwritable_out_exits_two(target, tmp_path, capsys):
    path = str(tmp_path / target)
    one_error_line(*run_cli(["born", "--weights", "1,1", "--out", path], capsys),
                   path)


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["born", "--weights", "2,3,5", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# born")


def test_repeat_runs_identical(couplings_file, capsys):
    argvs = (
        ["state", "--dims", "2,3", "--seed", "5"],
        ["records", "--universe", "6", "--trials", "30", "--seed", "2"],
        ["pointer", "--couplings", couplings_file, "--steps", "4", "--search"],
        ["freq", "--m", "1", "--M", "3", "--N", "2", "--seed", "11"],
    )
    for argv in argvs:
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second, argv


def test_exit_code_two_paths(tmp_path, capsys):
    # missing file
    code, _, err = run_cli(["schmidt", "--state", "/nope", "--cut", "0"], capsys)
    assert code == 2 and "error:" in err
    # conflicting source flags
    one_error_line(*run_cli(["born", "--weights", "1,1", "--state", "/nope"], capsys),
                   "--state does not apply to --weights")
    # malformed unitary spec
    state = tmp_path / "s.state"
    save_state(StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2)), state)
    code, _, err = run_cli(
        ["envcheck", "--state", str(state), "--cut", "0",
         "--unitary", "spin:1"], capsys)
    assert code == 2 and "unknown unitary spec" in err
    # unknown subcommand and bad tol are argparse rejections
    assert main(["nosuchcmd"]) == 2
    assert main(["born", "--weights", "1,1", "--tol", "-3"]) == 2


@pytest.mark.parametrize("argv", [
    ["born", "--weights", "1,1", "--phases", "nan,0"],
    ["pointer", "--time", "nan"],
    ["pointer", "--time", "inf"],
    ["pointer", "--gamma", "nan,1,1,1"],
    ["pointer", "--amps", "nan,1"],
    ["pointer", "--amps", "0,0"],
    ["pointer", "--t1=-inf"],
    ["pointer", "--t0", "nan"],
    ["pointer", "--gamma", "0,0,0,0"],
    ["continuum", "--dx", "nan"],
    ["continuum", "--dx", "0.5", "--x0", "nan"],
    ["continuum", "--dx", "0.5", "--x1", "inf"],
    ["continuum", "--dx", "0"],
])
def test_non_finite_state_exits_two(argv, couplings_file, capsys):
    # rejected while parsing, before any array holds a nan: one plain line
    if argv[0] == "pointer":
        argv = argv + ["--couplings", couplings_file, "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    bad = argv[1:3] if argv[0] == "pointer" else argv[-2:]
    flag, value = bad[0].split("=") if "=" in bad[0] else bad
    if value in ("0,0", "0,0,0,0"):
        assert f"{flag} must not be all zero" in err
    elif value == "0":
        assert f"{flag} must tile [x0, x1] evenly" in err
    elif flag in ("--phases", "--gamma", "--amps"):
        assert f"entries must be finite, got {value!r}" in err
    else:
        assert f"argument {flag}: not a finite number: {value!r}" in err


def run_without_warnings(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(argv, capsys)
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize("argv", [
    ["--time", "0", "--t1", "1e308", "--steps", "3"],
    ["--t1", "1e308"],
], ids=["decoherence-sweep", "evolve"])
def test_overflowing_coupling_phases_exit_two(argv, tmp_path, capsys):
    # the sweep used to exit 0 with a nan row, both after two RuntimeWarnings
    path = tmp_path / "g.txt"
    np.savetxt(path, [[0.0] * 4, [0.0] * 4, [3.0, 0.0, 0.0, 0.0]])
    one_error_line(*run_without_warnings(["pointer", "--couplings", str(path), *argv],
                                         capsys),
                   "coupling phases g*t are not finite at t=1e+308")


def test_decoherence_table_is_checked_against_the_budget(couplings_file, monkeypatch,
                                                         capsys):
    # two records give one pair: a step is t plus re, im and abs, 4 cells, so
    # 10 steps need 40; an unchecked --steps used to fill memory before failing
    sweeps = []
    real = envlab.pointer.decoherence_matrix

    def counted(couplings, spectrum, t):
        if np.ndim(t):  # the sweep's times, not the scores' one time
            sweeps.append(t)
        return real(couplings, spectrum, t)

    monkeypatch.setattr(envlab.pointer, "decoherence_matrix", counted)
    argv = ["pointer", "--couplings", couplings_file, "--steps", "10"]
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 40)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(table_rows(out, "decoherence")) == 10
    assert len(sweeps) == 1
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 39)
    one_error_line(*run_cli(argv, capsys),
                   "decoherence table needs 40 amplitudes (cap 39)")
    assert len(sweeps) == 1


def test_pointer_scores_300_records_within_memory_cap(tmp_path):
    # 299 records of 100 levels: the evolved state the route used to build
    # was 8,970,000 amplitudes, unchecked, and ran for 92 s; the records are
    # scored from their 299 x 299 decoherence matrix
    path = tmp_path / "g.txt"
    np.savetxt(path, np.zeros((300, 100)))
    proc = run_under_memory_cap(["pointer", "--couplings", str(path), "--steps", "2"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert float(scalar(proc.stdout, "truth_max_score")) <= 1e-12


def test_decoherence_matrix_is_checked_against_the_budget(tmp_path):
    # 2,049 records give a 2,049 x 2,049 matrix, past the 2^22 budget, refused
    # before the K(K-1)/2 pairs of an empty sweep are made
    path = tmp_path / "g.txt"
    np.savetxt(path, np.zeros((2050, 1)))
    proc = run_under_memory_cap(["pointer", "--couplings", str(path), "--steps", "0"])
    one_error_line(proc.returncode, proc.stdout, proc.stderr,
                   "error: decoherence matrix needs 4198401 amplitudes (cap 4194304)")


@pytest.mark.parametrize("dims, cut", [((65536, 1), "0"), ((1, 65536), "1")],
                         ids=["65536x1-cut-0", "1x65536-cut-1"])
def test_schmidt_purity_of_a_long_cut_runs_within_memory_cap(dims, cut, tmp_path):
    # the purity used to come from the kept side's 65,536 x 65,536 reduced
    # state, a 64 GiB allocation; it now comes from the smaller side's Gram
    path = tmp_path / "long.state"
    amps = np.random.default_rng(3).normal(size=65536)
    save_state(StateVector(dims, amps / np.linalg.norm(amps)), path)
    proc = run_under_memory_cap(["schmidt", "--state", str(path), "--cut", cut])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert scalar(proc.stdout, "rank") == "1"
    assert scalar(proc.stdout, "reduced_purity") == "1"


def bell_like(rows: int) -> StateVector:
    # (|0, 0> + |1, 1>)/sqrt(2) in a rows x 2 grid: two equal Schmidt terms
    amps = np.zeros(2 * rows)
    amps[0] = amps[3] = math.sqrt(0.5)
    return StateVector((rows, 2), amps)


def hadamard_rows(rows: int) -> np.ndarray:
    # (|0> + |1>)/sqrt(2) and (|0> - |1>)/sqrt(2) on a rows-level side: a
    # --partial basis rotating the Schmidt span bell_like holds on that side
    return np.pad(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2), ((0, 0), (0, rows - 2)))


@pytest.fixture(scope="module")
def bell_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bell")
    for rows in (4096, 65536):
        save_state(bell_like(rows), root / f"bell{rows}.state")
    np.savetxt(root / "hadamard.txt", hadamard_rows(2))
    np.savetxt(root / "hadamard4096.txt", hadamard_rows(4096))
    return root


@pytest.mark.parametrize("route", [
    ["envcheck", "--cut", "1", "--term-phases", "0.3,0.9"],
    ["envcheck", "--cut", "1", "--unitary", "swap:0,1"],
    ["envcheck", "--cut", "1", "--partial", "{hadamard}"],
    ["protocol", "--cut", "1", "--pair", "0,1"],
    ["schmidt", "--cut", "1"],
    ["envcheck", "--cut", "0", "--term-phases", "0.3,0.9"],
    ["envcheck", "--cut", "0", "--partial", "{hadamard4096}"],
    ["protocol", "--cut", "0", "--pair", "0,1"],
    ["schmidt", "--cut", "0"],
], ids=["term-phases", "unitary", "partial", "protocol", "schmidt",
        "term-phases-cut-0", "partial-cut-0", "protocol-cut-0", "schmidt-cut-0"])
def test_envariance_on_a_long_environment_holds_no_dense_operator(route, bell_files):
    # the environment side of --cut 1 is 4,096-dimensional: every counter
    # used to be a 4,096 x 4,096 identity completion, and the peak was
    # 1,024-1,297 MiB; the r x r Schmidt blocks are 2 x 2.  On --cut 0 the
    # long side is the system's, and the basis of its degenerate Schmidt
    # group used to come from a 4,096 x 4,096 projector (257 MiB); it is
    # built from the group's two columns.  (--unitary there is a 4,096^2
    # block operator, which the budget refuses.)
    argv = [route[0], "--state", str(bell_files / "bell4096.state"),
            *(a.format(hadamard=bell_files / "hadamard.txt",
                       hadamard4096=bell_files / "hadamard4096.txt") for a in route[1:])]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    if route[0] == "schmidt":
        assert scalar(out.getvalue(), "rank") == "2"
    else:
        assert ("restoration = 1" in out.getvalue()
                or "final_fidelity = 1" in out.getvalue())
    if route[2] == "1":  # the counter acts on the 4,096-level side
        assert "[counter]" not in out.getvalue()  # 4,096^2 entries, past MAX_TABLE_ROWS
    assert peak <= 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("route", [
    ["envcheck", "--cut", "1", "--term-phases", "0.3,0.9"],
    ["protocol", "--cut", "1", "--pair", "0,1"],
    ["schmidt", "--cut", "1"],
    ["envcheck", "--cut", "0", "--term-phases", "0.3,0.9"],
    ["protocol", "--cut", "0", "--pair", "0,1"],
    ["schmidt", "--cut", "0"],
], ids=["term-phases", "protocol", "schmidt", "term-phases-cut-0", "protocol-cut-0",
        "schmidt-cut-0"])
def test_envariance_on_a_65536_level_environment_runs_within_memory_cap(route, bell_files):
    # a dense counter on --cut 1, or the projector of the degenerate Schmidt
    # group on --cut 0, would be a 64 GiB allocation
    proc = run_under_memory_cap([route[0], "--state", str(bell_files / "bell65536.state"),
                                 *route[1:]])
    assert (proc.returncode, proc.stderr) == (0, "")


def test_block_unitary_is_checked_against_the_budget(bell_files, capsys):
    # --unitary on the 65,536-dimensional side is a 65,536^2 matrix, refused
    # before np.eye builds it
    argv = ["envcheck", "--state", str(bell_files / "bell65536.state"), "--cut", "0",
            "--unitary", "swap:0,1"]
    one_error_line(*run_cli(argv, capsys),
                   "error: block operator needs 4294967296 amplitudes (cap 4194304)")


@pytest.mark.parametrize("argv", [
    ["pointer", "--couplings", "{empty}"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "matrix:{empty}"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--partial", "{empty}"],
], ids=["couplings", "unitary", "partial"])
def test_empty_matrix_file_exits_two_without_warning(argv, even_state, tmp_path,
                                                     capsys):
    # numpy's "loadtxt: input contained no data" warning used to come first
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = [a.format(empty=empty, state=even_state) for a in argv]
    one_error_line(*run_without_warnings(argv, capsys),
                   f"no matrix entries in {empty}")


def run_under_memory_cap(argv):
    cap = 2 << 30  # the benchmark's RLIMIT_AS for every CLI call

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "envlab.cli", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=limit)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc/self/status")
@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "preset-3"])
def test_cli_child_pins_one_blas_thread_unless_the_caller_set_one(preset):
    # importing the CLI before numpy keeps OpenBLAS to the calling thread; a
    # value the caller set is left as it is
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import envlab.cli, numpy, os; "
             "status = open('/proc/self/status').read(); "
             "print(status.split('Threads:')[1].split()[0], os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    threads, value = proc.stdout.split()
    assert value == (preset or "1")
    if preset is None:
        assert threads == "1"


def test_readme_continuum_example_exits_two_within_memory_cap(tmp_path):
    # 16,000 cells cannot each get weight >= 1 out of M <= 10,000; the
    # counting route says so at once instead of building a dense state
    proc = run_under_memory_cap(
        ["continuum", "--dx", "0.001", "--interval=-1,1", "--m-max", "10000"])
    assert proc.returncode == 2
    assert proc.stderr == "error: m_max=10000 cannot give 16000 terms weight >= 1\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["state", "--dims", "100000,100000"],
])
def test_out_of_memory_exits_two_within_memory_cap(argv):
    # asked numpy for more than the cap in one array; the budget now refuses
    # it before the draw
    proc = run_under_memory_cap(argv)
    one_error_line(proc.returncode, proc.stdout, proc.stderr,
                   "error: random state needs 10000000000 amplitudes (cap 4194304)")


@pytest.mark.parametrize("argv, message", [
    (["state", "--dims", "3000,3000"], "random state needs 9000000 amplitudes"),
    (["state", "--dims", "65536,65536"], "random state needs 4294967296 amplitudes"),
    # products past 2^63 used to wrap in int64, to 0 and to a negative size
    (["state", "--dims", "4294967296,4294967296"],
     "random state needs 18446744073709551616 amplitudes"),
    (["state", "--dims", "3037000500,3037000500"],
     "random state needs 9223372037000250000 amplitudes"),
    (["state", "--weights", ",".join(["1"] * 3000)], "diagonal state needs 9000000 amplitudes"),
    (["state", "--weights", ",".join(["1"] * 2049)], "diagonal state needs 4198401 amplitudes"),
    (["state", "--dims", "0,3"], "dims must be a nonempty list of positive integers"),
    (["state", "--dims=-1,3"],
     "--dims must be a nonempty list of positive integers, got '-1,3'"),
], ids=["dims-3000", "dims-65536", "dims-2^32", "dims-past-2^63", "weights-3000",
        "weights-2049", "dims-zero", "dims-negative"])
def test_state_builds_are_checked_against_the_budget(argv, message, tmp_path, capsys):
    # refused before the draw or np.diag, so nothing is saved either
    saved = tmp_path / "big.state"
    one_error_line(*run_cli(argv + ["--save", str(saved)], capsys), message)
    assert not saved.exists()


def test_state_product_is_checked_against_the_budget(tmp_path, capsys):
    # nine 2x3 states are 6^9 = 10,077,696 amplitudes; eight fit the budget
    path = tmp_path / "s.state"
    save_state(StateVector((2, 3), np.arange(1.0, 7.0) / math.sqrt(91.0)), path)
    one_error_line(*run_cli(["state", "--product", ",".join([str(path)] * 9)], capsys),
                   "product state needs 10077696 amplitudes (cap 4194304)")
    code, out, _ = run_cli(["state", "--product", ",".join([str(path)] * 8)], capsys)
    assert code == 0 and scalar(out, "subsystems") == "16"


@pytest.mark.parametrize("argv", [
    ["state", "--dims", "2048,2048"],
    ["state", "--weights", ",".join(["1"] * 2048)],
], ids=["dims", "weights"])
def test_state_builds_at_the_budget_run_within_memory_cap(argv):
    # 2048 x 2048 amplitudes are the 2^22 budget itself
    proc = run_under_memory_cap(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert scalar(proc.stdout, "dims") == "2048x2048"


@pytest.mark.parametrize("argv, message", [
    (["continuum", "--dx", "0.5", "--quad", "2049"],
     "quadrature rule needs 4198401 amplitudes (cap 4194304)"),
    (["continuum", "--dx", "0.5", "--quad", "8192"],
     "quadrature rule needs 67108864 amplitudes (cap 4194304)"),
    (["continuum", "--dx", "0.5", "--quad", "100000"],
     "quadrature rule needs 10000000000 amplitudes (cap 4194304)"),
    (["continuum", "--dx", "0.0002"], "mesh quadrature needs 5120000 amplitudes (cap 4194304)"),
    (["continuum", "--adaptive", "--cells", "70000"],
     "mesh quadrature needs 4480000 amplitudes (cap 4194304)"),
    (["continuum", "--dx", "1e-6"], "mesh quadrature needs 1024000000 amplitudes (cap 4194304)"),
], ids=["quad-2049", "quad-8192", "quad-100000", "dx-2e-4", "cells-70000", "dx-1e-6"])
def test_continuum_quadrature_is_checked_against_the_budget(argv, message):
    # refused before the rule or the cell nodes are built: --quad 8192 ran
    # for 48 s, and --dx 1e-6 asked numpy for 1.9 GiB; the child runs under
    # the benchmark's address-space cap in case a check is missing
    proc = run_under_memory_cap(argv)
    one_error_line(proc.returncode, proc.stdout, proc.stderr, message)


def test_continuum_mesh_at_the_quadrature_budget_runs(capsys):
    # 65,536 cells of 64 defect nodes each are the 2^22 budget itself
    code, out, _ = run_cli(["continuum", "--adaptive", "--cells", "65536"], capsys)
    assert code == 0 and scalar(out, "cells") == "65536"


def test_axiom_audit_of_100000_records_runs_within_memory_cap():
    # the audit used to ask numpy for (n, n) projectors, 74.5 GiB here
    proc = run_under_memory_cap(["records", "--universe", "100000", "--trials", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert scalar(proc.stdout, "clean") == "true"


def test_axiom_audit_is_checked_against_the_budget(monkeypatch, capsys):
    # 30 trials of 6 records are 180 amplitudes; at the cap the audit runs
    argv = ["records", "--universe", "6", "--trials", "30"]
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 180)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and scalar(out, "clean") == "true"
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 179)
    draws = []
    monkeypatch.setattr(envlab.records, "_random_event", lambda *a: draws.append(a))
    one_error_line(*run_cli(argv, capsys),
                   "axiom audit needs 180 amplitudes (cap 179)")
    assert draws == []


@pytest.mark.parametrize("argv, message", [
    (["born", "--weights", "1000,1000,1000", "--phases", "nan,0,0"],
     "entries must be finite, got 'nan,0,0'"),
    (["born", "--weights", "1000,1000,1000", "--phases", "1,2"],
     "need 3 phases, got (2,)"),
    (["born", "--weights", "1,1,1", "--phases", "1,2"],
     "need 3 phases, got (2,)"),
    (["freq", "--m", "2", "--M", "10", "--N", "8", "--phases", "1,2,3"],
     "one phase per coarse outcome"),
    (["freq", "--m", "1", "--M", "2", "--N", "2", "--phases", "1,2,3"],
     "one phase per coarse outcome"),
])
def test_phases_are_checked_whichever_route_runs(argv, message, capsys):
    # the oversized calls skip the dense build, and still reject bad phases
    # with the message the in-budget route gives
    one_error_line(*run_cli(argv, capsys), message)


@pytest.mark.parametrize("argv", [
    ["continuum", "--truncate-ratio", "1/0", "--delta-target", "1/10"],
    ["continuum", "--truncate-ratio", "1/2", "--delta-target", "1/0"],
    ["freq", "--m", "1", "--M", "2", "--N", "4", "--delta-r", "1/0"],
    ["freq", "--m", "1", "--M", "2", "--N", "4", "--delta-r", "tenth"],
])
def test_bad_fraction_flag_exits_two(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert "not an exact fraction" in err


@pytest.mark.parametrize("value", ["-1", "1.5", "two"])
def test_negative_or_non_integer_pairs_exit_two(value, capsys):
    # a negative count used to run no swap checks and exit 0
    one_error_line(*run_cli(["freq", "--m", "1", "--M", "2", "--N", "2",
                             "--pairs", value], capsys),
                   f"argument --pairs: not a non-negative integer: '{value}'")


def test_zero_pairs_runs_no_swap_checks(capsys):
    code, out, _ = run_cli(["freq", "--m", "1", "--M", "2", "--N", "2",
                            "--pairs", "0"], capsys)
    assert code == 0 and scalar(out, "census_matches") == "true"
    assert "swap_checks" not in out


@pytest.mark.parametrize("pairs", ["8", "2", "0"])
def test_pairs_with_register_exits_two(pairs, capsys):
    # a register build runs no swap check, so an explicit count would pass
    # after checking nothing
    one_error_line(*run_cli(["freq", "--m", "1", "--M", "2", "--N", "2", "--register",
                             "--pairs", pairs], capsys),
                   "--pairs does not apply to --register")


def test_pairs_defaults_to_two(capsys):
    argv = ["freq", "--m", "1", "--M", "2", "--N", "3", "--seed", "4"]
    default = run_cli(argv, capsys)
    assert default[0] == 0 and len(table_rows(default[1], "swap_checks")) == 2
    assert run_cli(argv + ["--pairs", "2"], capsys) == default


@pytest.mark.parametrize("pair", ["0,0", "1,1"])
def test_protocol_pair_needs_two_distinct_terms(pair, even_state, capsys):
    # swapping a term with itself restores trivially and checks nothing
    one_error_line(*run_cli(["protocol", "--state", even_state, "--cut", "0",
                             "--pair", pair], capsys),
                   f"--pair needs two distinct Schmidt terms, got {pair}")


@pytest.mark.parametrize("argv", [
    ["envcheck", "--unitary", "swap:0,1"],
    ["envcheck", "--term-phases", "0,0"],
    ["schmidt"],
], ids=["envcheck-unitary", "envcheck-term-phases", "schmidt"])
def test_cut_out_of_range_exits_two(argv, even_state, capsys):
    # envcheck used to index the state's dims with the cut: exit 1, IndexError
    one_error_line(*run_cli([*argv, "--state", even_state, "--cut", "2"], capsys),
                   "cut (2,) out of range for 2 subsystems")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300", "tiny"])
def test_bad_zero_tol_exits_two(value, even_state, capsys):
    message = (f"argument --zero-tol: invalid _nonnegative_float value: '{value}'"
               if value == "tiny" else
               f"argument --zero-tol: not a finite non-negative number: '{value}'")
    one_error_line(*run_cli(["schmidt", "--state", even_state, "--cut", "0",
                             f"--zero-tol={value}"], capsys), message)


def test_zero_tol_zero_still_runs(even_state, capsys):
    code, out, _ = run_cli(["schmidt", "--state", even_state, "--cut", "0",
                            "--zero-tol", "0"], capsys)
    assert code == 0 and scalar(out, "rank") == "2"


def test_no_option_is_a_plain_float():
    # a plain float takes nan, inf and negative values without a word
    assert [f"{command} {action.option_strings[0]}" for command, action
            in _parser_actions() if action.type is float] == []


@contextlib.contextmanager
def int_max_str_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_freq_refuses_unprintable_totals_before_any_history_work(monkeypatch, capsys):
    # 3^9013 has 4301 digits (10^4300 <= 3^9013 < 10^4301), one above the
    # default limit for printing an int; 3^9012 has 4300 and still prints
    assert 10 ** 4300 <= 3 ** 9013 < 10 ** 4301 and 3 ** 9012 < 10 ** 4300
    assert sys.get_int_max_str_digits() == 4300  # premise: the default limit

    def no_history(*args, **kwargs):
        raise AssertionError("history work ran")

    monkeypatch.setattr(envlab.frequencies, "history_counts", no_history)
    one_error_line(*run_cli(["freq", "--m", "1", "--M", "3", "--N", "9013"], capsys),
                   "M^N = 3^9013 has 4301 digits, above the 4300-digit limit")
    with pytest.raises(AssertionError, match="history work ran"):
        main(["freq", "--m", "1", "--M", "3", "--N", "9012"])


def test_freq_prints_totals_at_the_digit_limit(capsys):
    # at the smallest limit Python allows, 1000^213 (640 digits) still
    # prints and 1000^214 is refused
    with int_max_str_digits(640):
        code, out, _ = run_cli(["freq", "--m", "1", "--M", "1000", "--N", "213"], capsys)
        assert code == 0 and scalar(out, "total") == str(10 ** 639)
        one_error_line(*run_cli(["freq", "--m", "1", "--M", "1000", "--N", "214"],
                                capsys),
                       "M^N = 1000^214 has 643 digits, above the 640-digit limit")


def test_freq_cells_refuses_unprintable_totals_before_counting(monkeypatch, capsys):
    # 2^14284 has 4300 digits and still prints; 2^15000 has 4516
    assert 10 ** 4299 <= 2 ** 14284 < 10 ** 4300 <= 2 ** 15000

    def no_counting(*args, **kwargs):
        raise AssertionError("counting ran")

    monkeypatch.setattr(envlab.frequencies, "_compositions", no_counting)
    one_error_line(*run_cli(["freq", "--cells", "1,1", "--N", "15000"], capsys),
                   "(sum of cells)^N = 2^15000 has 4516 digits, above the "
                   "4300-digit limit for printing an integer")
    with pytest.raises(AssertionError, match="counting ran"):
        main(["freq", "--cells", "1,1", "--N", "14284"])


def test_freq_cells_refuses_too_many_compositions_at_once(monkeypatch, capsys):
    # C(67, 7) = 869,648,208 compositions; the patch stops an enumeration
    def no_enumeration(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(envlab.frequencies, "_compositions", no_enumeration)
    one_error_line(*run_cli(["freq", "--cells", "1,1,1,1,1,1,1,1", "--N", "60"],
                            capsys),
                   "8 outcomes over 60 runs give more than 65536 compositions")


def test_freq_computes_its_tally_once(monkeypatch, capsys):
    calls = []
    counted = envlab.frequencies.history_counts

    def counting(spec):
        calls.append(spec)
        return counted(spec)

    monkeypatch.setattr(envlab.frequencies, "history_counts", counting)
    # one report on each superensemble route: skipped, explicit, sparse census
    for argv, route in ((["--M", "3", "--N", "2000", "--delta-r", "0.1"],
                         "skipped-beyond-desk-scale"),
                        (["--M", "2", "--N", "5"], "explicit"),
                        (["--M", "2", "--N", "12"], "sparse-census")):
        calls.clear()
        code, out, _ = run_cli(["freq", "--m", "1", *argv], capsys)
        assert code == 0 and scalar(out, "superensemble") == route
        assert len(calls) == 1


def test_records_universe_is_checked_before_its_set_is_built(capsys):
    cap = envlab.records.UNIVERSE_CAP
    one_error_line(*run_cli(["records", "--universe", str(cap + 1), "--event", "0"],
                            capsys),
                   f"universe of {cap + 1} records is above the cap of {cap}")
    # 10^8 records would take gigabytes of Python objects; the child runs
    # under the benchmark's address-space cap in case the check is missing
    proc = run_under_memory_cap(["records", "--universe", "100000000", "--event", "0"])
    one_error_line(proc.returncode, proc.stdout, proc.stderr,
                   f"universe of 100000000 records is above the cap of {cap}")


def test_error_without_a_message_names_its_type(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli_module, "verify_axioms", out_of_memory)
    code, out, err = run_cli(["records", "--universe", "4"], capsys)
    assert (code, out, err) == (2, "", "error: MemoryError\n")


@pytest.mark.parametrize("argv, message", [
    (["records", "--universe", "6", "--trials", "-1"],
     "argument --trials: not a positive integer: '-1'"),
    (["records", "--universe", "6", "--trials", "0"],
     "argument --trials: not a positive integer: '0'"),
    (["pointer", "--search", "--iterations", "-2"],
     "argument --iterations: not a non-negative integer: '-2'"),
    (["pointer", "--steps", "-3"],
     "argument --steps: not a non-negative integer: '-3'"),
    (["records", "--universe", "6", "--given", "1"], "--given does not apply to --universe"),
    (["records", "--universe", "6", "--other", "1"], "--other does not apply to --universe"),
    (["records", "--universe", "6", "--partition", "0,1;2,3,4,5", "--given", "1"],
     "--given does not apply to --partition --universe"),
    (["born", "--weights", "1,2", "--m-max", "-1"], "--m-max does not apply to --weights"),
    (["born", "--weights", "1,2", "--m-max", "1024"], "--m-max does not apply to --weights"),
    (["freq", "--cells", "1,2", "--N", "3", "--delta-r", "0.1"],
     "--delta-r does not apply to --cells"),
    (["freq", "--cells", "1,2", "--N", "3", "--m", "1"], "--m does not apply to --cells"),
    (["freq", "--cells", "1,2", "--N", "3", "--M", "2"], "--M does not apply to --cells"),
    (["freq", "--cells", "1,2", "--N", "3", "--phases", "0,0"],
     "--phases does not apply to --cells"),
    (["freq", "--cells", "1,2", "--N", "3", "--pairs", "0"],
     "--pairs does not apply to --cells"),
    (["freq", "--cells", "1,2", "--N", "3", "--register"],
     "--register does not apply to --cells"),
    (["continuum", "--dx", "0.5", "--delta-target", "0.1"],
     "--delta-target does not apply to --dx --family=gaussian"),
    (["continuum", "--dx", "0.5", "--cells", "8"],
     "--cells does not apply to --dx --family=gaussian"),
    (["continuum", "--adaptive", "--cells", "8", "--dx", "0.5"],
     "--dx does not apply to --adaptive"),
    (["records", "--universe", "6", "--weights", "1,1,1,1,1,9"],
     "--weights does not apply to --universe"),
    (["protocol", "--state", "{state}", "--cut", "0", "--pair", "0,1,2"],
     "--pair needs two indices k,l, got '0,1,2'"),
    (["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "swap:0"],
     "--unitary swap: needs two indices k,l, got '0'"),
    (["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "phase:1"],
     "phase unitary needs 2 angles"),
    (["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "swap:0,5"],
     "swap indices outside block of dimension 2"),
    (["schmidt", "--state", "{state}", "--cut", "0", "--zero-tol", "10"],
     "state has no support above zero_tol"),
    (["continuum", "--dx", "0.5", "--width", "0"], "width must be positive"),
    (["continuum", "--dx", "0.5", "--family", "uniform", "--a", "1", "--b", "0"],
     "need a < b"),
    (["continuum", "--dx", "0.5", "--family", "box", "--edges", "1,0", "--box-weights", "1"],
     "edges must ascend and bracket every weight"),
    (["continuum", "--dx", "0.5", "--family", "box", "--edges", "0,1",
      "--box-weights", "0.9"], "weights must be nonnegative and sum to 1"),
], ids=["trials-negative", "trials-zero", "iterations-negative", "steps-negative",
        "given-alone", "other-alone", "given-with-partition", "m-max-negative-weights",
        "m-max-weights", "cells-delta-r", "cells-m", "cells-M", "cells-phases",
        "cells-pairs", "cells-register", "mesh-delta-target", "mesh-cells",
        "adaptive-dx", "axioms-weights", "pair-three", "swap-one", "phase-one-angle",
        "swap-outside-block", "zero-tol-drops-all", "gaussian-width-zero",
        "uniform-reversed", "box-edges-descend", "box-weights-short"])
def test_counts_and_event_flags_are_checked(argv, message, couplings_file, even_state,
                                            capsys):
    # each used to run: zero trials or descents, numpy's text for --steps,
    # or the flag silently ignored; the last two gave Python's unpacking
    # error, naming no flag
    if argv[0] == "pointer":
        argv = argv + ["--couplings", couplings_file]
    argv = [even_state if a == "{state}" else a for a in argv]
    one_error_line(*run_cli(argv, capsys), message)


@pytest.fixture
def refusal_files(tmp_path, even_state, uneven_state):
    """Braced name -> path of the inputs each refusal below is given."""
    files = {"even": even_state, "uneven": uneven_state}
    matrices = {"three-columns": np.eye(2, 3), "skew": [[1.0, 0.0], [1.0, 0.0]],
                "diagonal": [[1 / math.sqrt(2), 1 / math.sqrt(2)]],
                "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2),
                "eye3": np.eye(3), "one-row": np.zeros((1, 3))}
    for name, mat in matrices.items():
        files[name] = str(tmp_path / f"{name}.txt")
        np.savetxt(files[name], mat)
    for name, text in (("nan", '{"dims": [2], "amps": [[NaN, 0], [1, 0]]}'),
                       ("negative-dims", '{"dims": [-1], "amps": [[1, 0]]}')):
        files[name] = str(tmp_path / f"{name}.state")
        (tmp_path / f"{name}.state").write_text(text + "\n")
    return files


@pytest.mark.parametrize("argv, message", [
    (["schmidt", "--state", "{even}", "--cut", "0,1"], "right side of a cut cannot be empty"),
    (["envcheck", "--state", "{even}", "--cut", "0", "--partial", "{three-columns}"],
     "new_basis must be rows over the left block"),
    (["envcheck", "--state", "{even}", "--cut", "0", "--partial", "{skew}"],
     "new_basis is not orthonormal"),
    (["envcheck", "--state", "{uneven}", "--cut", "0", "--partial", "{diagonal}"],
     "new_basis does not align with a subset of Schmidt vectors"),
    (["envcheck", "--state", "{uneven}", "--cut", "0", "--partial", "{hadamard}"],
     "subspace is not even: modulus spread 0.239146"),
    (["state", "--weights", "1,2", "--phases", "0.1"], "one phase per weight"),
    (["envcheck", "--state", "{even}", "--cut", "0", "--unitary", "matrix:{eye3}"],
     "matrix file must be 2x2"),
    (["records", "--universe", "2", "--event", "0", "--weights=-1,2"],
     "tally must be nonnegative integers"),
    (["continuum", "--dx", "0.5", "--width", "1e-200"],
     "width 1e-200 is too small: its square underflows"),
    (["pointer", "--couplings", "{one-row}"],
     "couplings need at least two rows: ready level plus records"),
    (["schmidt", "--state", "{nan}", "--cut", "0"], "amplitudes must be finite"),
    (["schmidt", "--state", "{negative-dims}", "--cut", "0"],
     "dims must be a nonempty list of positive integers"),
], ids=["cut-right-empty", "partial-columns", "partial-not-orthonormal", "partial-misaligned",
        "partial-uneven", "phases-short", "unitary-matrix-size", "tally-negative",
        "width-underflows", "couplings-one-row", "state-nan", "state-dims-negative"])
def test_engine_refusals_exit_two(argv, message, refusal_files, capsys):
    # each is raised inside an engine, and no other test reached it
    one_error_line(*run_cli([a.format(**refusal_files) for a in argv], capsys), message)


@pytest.mark.parametrize("argv, flag, message", [
    (["state", "--dims", "2,x"], "--dims", "invalid literal for int() with base 10: 'x'"),
    (["schmidt", "--state", "{state}", "--cut", "x"], "--cut",
     "invalid literal for int() with base 10: 'x'"),
    (["born", "--weights", "1,a"], "--weights", "invalid literal for int() with base 10: 'a'"),
    (["protocol", "--state", "{state}", "--cut", "0", "--pair", "0,x"], "--pair",
     "invalid literal for int() with base 10: 'x'"),
    (["freq", "--cells", "1,x", "--N", "2"], "--cells",
     "invalid literal for int() with base 10: 'x'"),
    (["records", "--universe", "3", "--event", "0", "--weights", "1,x,1"], "--weights",
     "invalid literal for int() with base 10: 'x'"),
    (["continuum", "--dx", "0.5", "--interval", "0,1,2"], "--interval",
     "--interval needs two endpoints a,b, got '0,1,2'"),
    (["born", "--weights", "1,1", "--phases", "nan,0"], "--phases",
     "entries must be finite, got 'nan,0'"),
], ids=["dims", "cut", "weights", "pair", "cells", "records-weights", "interval", "phases"])
def test_list_flags_are_parsed_with_their_flag_named(argv, flag, message, even_state,
                                                     capsys):
    # each printed Python's text alone, naming no flag: int(), or unpacking
    # three values into two
    argv = [even_state if a == "{state}" else a for a in argv]
    assert run_cli(argv, capsys) == (2, "", f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize("argv", [
    ["born", "--weig", "2,3,5", "--sub", "0,1"],
    ["pointer", "--couplings", "{couplings}", "--s", "3"],
], ids=["born", "pointer"])
def test_flag_prefixes_are_refused(argv, couplings_file, capsys):
    # a unique prefix used to run as its flag: born exited 0
    argv = [couplings_file if a == "{couplings}" else a for a in argv]
    prefixes = " ".join(argv[3:] if argv[0] == "pointer" else argv[1:])
    one_error_line(*run_cli(argv, capsys), f"error: unrecognized arguments: {prefixes}")


@pytest.mark.parametrize("argv", [
    ["state"], ["schmidt"], ["envcheck"], ["protocol"], ["born"], ["pointer"],
    ["records"], ["freq"], ["continuum"],
    ["schmidt", "--state", "F"], ["pointer", "--steps", "3"], ["records", "--trials", "5"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_missing_pick_names_the_routes(argv, capsys):
    # schmidt, envcheck, protocol, pointer and records used to print
    # argparse's "the following arguments are required"
    names = " | ".join(r.name for r in cli_module.ROUTES[argv[0]])
    assert run_cli(argv, capsys) == (2, "", f"error: {argv[0]} needs one of: {names}\n")


@pytest.mark.parametrize("argv", [
    ["born", "--weights", "1,2"],
    ["born", "--state", "{state}", "--cut", "0"],
    ["schmidt", "--state", "{state}", "--cut", "0"],
    ["records", "--universe", "4"],
    ["freq", "--m", "1", "--M", "2"],
    ["state", "--dims", "2,2"],
], ids=lambda argv: argv[0] + ("-" + argv[1][2:] if argv[0] == "born" else ""))
def test_negative_seed_is_checked_while_parsing(argv, even_state, capsys):
    # born and schmidt used to ignore it and exit 0; records, freq and state
    # exited 2 with numpy's "expected non-negative integer"
    argv = [even_state if a == "{state}" else a for a in argv] + ["--seed", "-1"]
    one_error_line(*run_cli(argv, capsys),
                   "argument --seed: not a non-negative integer: '-1'")


def test_state_route_m_max_defaults_to_1024(uneven_state, capsys):
    argv = ["born", "--state", uneven_state, "--cut", "0"]
    default = run_cli(argv, capsys)
    assert default[0] == 0
    assert run_cli(argv + ["--m-max", "1024"], capsys) == default
    assert run_cli(argv + ["--m-max", "2"], capsys) != default


def test_smallest_counts_still_run(couplings_file, capsys):
    code, out, _ = run_cli(["records", "--universe", "4", "--trials", "1"], capsys)
    assert code == 0 and scalar(out, "trials") == "1"
    code, out, _ = run_cli(["pointer", "--couplings", couplings_file, "--steps", "0",
                            "--search", "--iterations", "0"], capsys)
    assert code == 0 and table_rows(out, "decoherence") == []


def _parser_actions():
    parser = cli_module._build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings:
                yield command, action


# Integer options left as plain ``int``: the engine that reads one rejects a
# bad value with one error line of its own.  Each entry is an argv with a bad
# value and that message.
ENGINE_CHECKED_INTS = {
    "born --m-max": (["born", "--state", "{state}", "--cut", "0", "--m-max", "0"],
                     "m_max=0 cannot give 2 terms weight >= 1"),
    "records --universe": (["records", "--universe", "0"],
                           "universe_size must be >= 1"),
    "records --given": (["records", "--universe", "4", "--event", "1",
                         "--given", "-1"], "outcome -1 outside the universe"),
    "freq --m": (["freq", "--m", "0", "--M", "2"], "need 1 <= m < M"),
    "freq --M": (["freq", "--m", "1", "--M", "-2"], "need 1 <= m < M"),
    "freq --N": (["freq", "--m", "1", "--M", "2", "--N", "0"],
                 "need at least one run"),
    "continuum --cells": (["continuum", "--adaptive", "--cells", "0"],
                          "need at least one cell"),
    "continuum --quad": (["continuum", "--dx", "0.5", "--quad", "1"],
                         "need at least two quadrature points per cell"),
    "continuum --m-max": (["continuum", "--dx", "0.5", "--m-max", "0"],
                          "m_max=0 cannot give 32 terms weight >= 1"),
}


def test_every_int_option_is_validated():
    # a new type=int flag fails here until it gets a validating type or an
    # engine check listed above
    plain = set()
    for command, action in _parser_actions():
        if action.type is int:
            option = action.option_strings[0]
            keys = {option, f"{command} {option}"} & set(ENGINE_CHECKED_INTS)
            assert len(keys) == 1, f"{command} {option} is a plain int"
            plain |= keys
    assert plain == set(ENGINE_CHECKED_INTS)


@pytest.mark.parametrize("key", sorted(ENGINE_CHECKED_INTS))
def test_plain_int_options_are_checked_by_the_engine(key, even_state, capsys):
    argv, message = ENGINE_CHECKED_INTS[key]
    argv = [even_state if a == "{state}" else a for a in argv]
    one_error_line(*run_cli(argv, capsys), message)


def test_fraction_flags_echo_their_text(capsys):
    code, out, _ = run_cli(
        ["freq", "--m", "1", "--M", "2", "--N", "4", "--delta-r", "0.1"], capsys)
    assert code == 0 and scalar(out, "delta_r") == "0.1"
    code, out, _ = run_cli(
        ["continuum", "--truncate-ratio", "2/4", "--delta-target", "0.10"], capsys)
    assert code == 0
    assert scalar(out, "ratio") == "2/4" and scalar(out, "delta_target") == "0.10"


def test_exit_code_one_on_tolerance_overrun(tmp_path, capsys):
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    path = tmp_path / "r.state"
    save_state(StateVector((3, 3), raw / np.linalg.norm(raw)), path)
    code, out, _ = run_cli(
        ["born", "--state", str(path), "--cut", "0", "--m-max", "4",
         "--tol", "1e-6"], capsys)
    assert code == 1
    assert float(scalar(out, "rationalization_error")) > 1e-6


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_records_partition_error_names_the_count_of_missing_outcomes(capsys):
    # the message used to list every missing index, 937,494 bytes here
    code, out, err = run_cli(["records", "--universe", "131072", "--partition", "0;1"],
                             capsys)
    one_error_line(code, out, err, "131070")
    assert len(err.encode()) < 200


def test_partition_past_the_dense_budget_matches_the_upsilon_oracle(monkeypatch, capsys):
    # 64 singleton cells of 64 outcomes are 4,096 amplitudes, over a cap of
    # 100; upsilon is counted, not built, so the cap no longer applies
    weights = [k % 5 for k in range(64)]
    cells = [envlab.records.parse_event(str(k), 64) for k in range(64)]
    upsilon = build_upsilon(weights, cells)
    coarse = np.sum(np.abs(upsilon.tensor()) ** 2, axis=1)
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 100)
    code, out, err = run_cli(["records", "--universe", "64",
                              "--weights", ",".join(map(str, weights)),
                              "--partition", ";".join(str(k) for k in range(64))], capsys)
    assert (code, err) == (0, "")
    assert scalar(out, "upsilon_dims") == "x".join(map(str, upsilon.dims)) == "64x64"
    assert scalar(out, "upsilon_support") == str(np.count_nonzero(upsilon.amps)) == "51"
    rows = table_rows(out, "partition")
    assert [(int(i), members) for i, members, _ in rows] == [(k, str(k)) for k in range(64)]
    assert np.allclose([float(Fraction(p)) for *_, p in rows], coarse, rtol=0, atol=1e-15)


def test_partition_checks_its_tally_a_fixed_number_of_times(monkeypatch, capsys):
    # one tally check per cell made the table quadratic in n, and the dense
    # cells x n build of 4,096 singletons took 4096 * 4096 * 16 bytes, 268 MB
    checks = []
    weights_of = envlab.records._weights_of
    monkeypatch.setattr(envlab.records, "_weights_of",
                        lambda tally: checks.append(tally) or weights_of(tally))
    argv = ["records", "--universe", "4096", "--partition", ";".join(map(str, range(4096)))]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and scalar(out, "upsilon_dims") == "4096x4096"
    assert scalar(out, "upsilon_support") == "4096"
    assert len(table_rows(out, "partition")) == 4096
    assert len(checks) <= 3 and peak < 32 << 20
    # every probability of the fullest route: event, complement, other, meet,
    # join and each cell
    checks.clear()
    code, out, _ = run_cli(["records", "--universe", "8", "--event", "0,1", "--other", "1,2",
                            "--given", "1", "--partition", "0,1;2,3;4,5,6,7"], capsys)
    assert code == 0 and scalar(out, "p_join") == "3/8"
    assert len(checks) <= 3


def test_state_files_are_checked_against_the_budget(tmp_path, monkeypatch, capsys):
    # a 2x2 state is at a cap of 4 amplitudes: padded with blanks to the
    # byte bound it loads, and one byte more is refused before parsing
    monkeypatch.setattr(envlab.born, "DENSE_AMPLITUDE_CAP", 4)
    bound = 4 * envlab.hilbert.FILE_AMPLITUDE_BYTES + envlab.hilbert.FILE_HEADER_BYTES
    path = tmp_path / "s.state"
    save_state(StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2)), path)
    text = path.read_text()
    argv = ["schmidt", "--state", str(path), "--cut", "0"]
    path.write_text(text.ljust(bound))
    assert run_cli(argv, capsys)[0] == 0
    path.write_text(text.ljust(bound + 1))
    one_error_line(*run_cli(argv, capsys),
                   f"state file {path} has {bound + 1} bytes, above the {bound} "
                   "that 4 amplitudes take")
    # a short file listing more amplitudes than the cap is refused by count
    path.write_text('{"dims": [5], "amps": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}')
    one_error_line(*run_cli(argv, capsys), "state file needs 5 amplitudes (cap 4)")


def test_state_file_bound_covers_the_longest_amplitudes():
    # two 24-character float reprs, the longest Python writes
    x = -2.2250738585072014e-308
    assert len(json.dumps([[x, x], [x, x]])) == 2 * envlab.hilbert.FILE_AMPLITUDE_BYTES


# ----- thin front end: one scenario call per route -----

ENVCHECK_RUNS = (
    ["envcheck", "--state", "{state}", "--cut", "0", "--unitary", "matrix:{swap}"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--term-phases", "0.3,0.9"],
    ["envcheck", "--state", "{state}", "--cut", "0", "--partial", "{basis}"],
)
PROTOCOL_RUN = ["protocol", "--state", "{state}", "--cut", "0", "--pair", "0,1"]

# --unitary checks its d x d matrix against the budget before parsing it
SCENARIO_RUNS = tuple((argv, "envariance.check_envariance" if i == 0 else "envariance.envcheck_run",
                       {"hilbert.load_state"} | ({"born.require_dense"} if i == 0 else set()))
                      for i, argv in enumerate(ENVCHECK_RUNS)) + (
    (PROTOCOL_RUN, "envariance.protocol_run", {"hilbert.load_state"}),
    (["born", "--weights", "2,3,5", "--subset", "0,2"], "born.born_from_weights",
     {"born.coarse_probability", "born.fine_values", "envariance.is_even"}),
    (["born", "--state", "{state}", "--cut", "0"], "born.born_probabilities",
     {"hilbert.load_state"}),
    (["pointer", "--couplings", "{couplings}", "--steps", "3"],
     "pointer.einselection_run", {"pointer.load_couplings"}),
    (["pointer", "--couplings", "{couplings}", "--steps", "3", "--search",
      "--iterations", "1", "--amps", "0.6,0.8", "--gamma", "1,2,3,4"],
     "pointer.einselection_run", {"pointer.load_couplings"}),
    (["freq", "--m", "1", "--M", "2", "--N", "3", "--delta-r", "0.1"],
     "frequencies.repeated_runs", set()),
    (["freq", "--m", "1", "--M", "2", "--N", "2", "--register"],
     "frequencies.repeated_runs", set()),
    (["freq", "--cells", "1,2", "--N", "3"], None,
     {"frequencies.multinomial_history_counts"}),
    (["continuum", "--dx", "0.5", "--interval=-1,1", "--m-max", "512"],
     "continuum.mesh_run", set()),
    (["continuum", "--adaptive", "--cells", "8"], "continuum.mesh_run", set()),
    (["continuum", "--truncate-ratio", "1/2", "--delta-target", "0.1"], None,
     {"continuum.truncate"}),
    # records parses every event and cell, and prices them all in two calls
    (["records", "--universe", "4", "--event", "0,1", "--other", "1,2", "--given", "1",
      "--partition", "0,1;2,3"], None,
     Counter({"records.parse_event": 4, "records.event_probabilities": 2,
              "records.partition_support": 1, "records.complement": 1, "records.meet": 1,
              "records.join": 1, "records.lemma5_recursion": 1,
              "records.conditional_probability": 1})),
    (["records", "--universe", "64", "--partition", ";".join(map(str, range(64)))], None,
     Counter({"records.parse_event": 64, "records.event_probabilities": 1,
              "records.partition_support": 1})),
)


@pytest.mark.parametrize("argv, scenario, others", SCENARIO_RUNS,
                         ids=["envcheck-unitary", "envcheck-term-phases", "envcheck-partial",
                              "protocol", "born-weights", "born-state", "pointer",
                              "pointer-search", "freq", "freq-register", "freq-cells",
                              "continuum", "continuum-adaptive", "continuum-truncate",
                              "records-event", "records-partition"])
def test_handlers_make_one_scenario_call(argv, scenario, others, audit_files):
    # the audit's profile hook, narrowed to calls made from cli.py frames
    names = public_codes()
    entered, from_cli = [], []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered.append(names[frame.f_code])
            if frame.f_back.f_code.co_filename == cli_module.__file__:
                from_cli.append(names[frame.f_code])

    argv = [a.format(**audit_files) for a in argv]
    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        sys.setprofile(previous)
    assert code == 0
    # others is a multiset: a handler may call a helper more than once
    assert Counter(from_cli) == Counter(others) + Counter([scenario] if scenario else [])
    if scenario:
        assert entered.count(scenario) == 1


def entered_operations(argv, audit_files) -> tuple:
    """Exit code of main(argv) and the public engine functions it entered, in order."""
    names = public_codes()
    entered = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered.append(names[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(**audit_files) for a in argv])
    finally:
        sys.setprofile(previous)
    return code, entered


@pytest.mark.parametrize("argv", ENVCHECK_RUNS, ids=["unitary", "term-phases", "partial"])
def test_envcheck_decomposes_once(argv, audit_files):
    # the verdict reads the decomposition u_s and the counter were built from
    code, entered = entered_operations(argv, audit_files)
    assert code == 0
    assert entered.count("hilbert.schmidt") == 1


def test_protocol_reads_schmidt_moduli_only(audit_files):
    # the transcript is a closed form in the moduli; it used to run the full
    # decomposition, bases and group rotation included
    code, entered = entered_operations(PROTOCOL_RUN, audit_files)
    assert code == 0
    assert entered.count("hilbert.schmidt_values") == 1
    assert "hilbert.schmidt" not in entered


# ----- exit-code contract under edge inputs -----

FUZZ_FLOATS = ("0", "-1", "0.5", "2", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf", "1/0",
               "")
FUZZ_INTS = ("-1", "0", "1", "2", "3", "4", "13", "1.5", "nan", "1/0", "")
FUZZ_LISTS = ("", "1", "0,0", "1,2", "nan,1", "inf,1", "1e308,1e308", "-1,1,0,0",
              "1,2,3,4", "1,1,1,1,1", "1/0", "1,x")
FUZZ_EVENTS = ("", "0", "0,0", "0,1", "5", "6", "-1", "0,1,2,3,4,5", "0,,1", "x", "1/0")
FUZZ_FRACTIONS = ("0", "1/2", "0.1", "9/10", "-1/2", "2", "1/0", "nan", "tenth", "")
PAST_CAP = "past-cap"  # resolved against the rest of the draw

# coupling files: ready row plus 2 records, zeros beside one large rate, one
# row, more levels than the search takes, huge entries, and 39 records of
# 3,000 levels, whose evolved state (4.68M amplitudes) would be past the
# dense budget while their decoherence matrix is 1,521; empty.txt has none
FUZZ_COUPLINGS = {
    "g.txt": 0.37 * np.arange(12.0).reshape(3, 4),
    "gz.txt": np.array([[0.0] * 4, [0.0] * 4, [3.0, 0.0, 0.0, 0.0]]),
    "one.txt": np.zeros((1, 4)),
    "wide.txt": np.ones((9, 2)),
    "huge.txt": np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]]),
    "long.txt": np.zeros((40, 3000)),
}

FUZZ_STATES = ("s.state", "even.state", "wide.state", "bad.state", "missing.state")
FUZZ_CUTS = ("0", "1", "0,1", "2", "-1", "", "x", "0,0")

# Valid runs of each route, and the edge values a draw puts in their flags.
# True marks a switch; PAST_CAP a size one past the cap that guards it.
# File names are relative to the fuzz directory.
FUZZ_ROUTES = {
    "state": [{"--state": "s.state"},
              {"--weights": "2,3,5", "--phases": "0,1,2"},
              {"--dims": "2,3", "--seed": "3"},
              {"--product": "s.state,even.state", "--save": "saved.state"}],
    "schmidt": [{"--state": "s.state", "--cut": "0"},
                {"--state": "even.state", "--cut": "1", "--canonical": True}],
    "envcheck": [{"--state": "even.state", "--cut": "0", "--unitary": "swap:0,1"},
                 {"--state": "s.state", "--cut": "0", "--term-phases": "0.3,0.9"},
                 {"--state": "even.state", "--cut": "0", "--partial": "basis.txt"}],
    "protocol": [{"--state": "even.state", "--cut": "0", "--pair": "0,1"},
                 {"--state": "s.state", "--cut": "0", "--pair": "1,0", "--phase": "0.5"}],
    "pointer": [{"--couplings": "g.txt", "--steps": "3"},
                {"--couplings": "g.txt", "--steps": "3", "--search": True,
                 "--iterations": "1"}],
    "freq": [{"--m": "1", "--M": "2", "--N": "3"},
             {"--m": "1", "--M": "2", "--N": "2", "--register": True},
             {"--cells": "1,2", "--N": "3"}],
    "continuum": [{"--dx": "0.5"},
                  {"--dx": "0.5", "--interval": "-1,1", "--m-max": "64"},
                  {"--adaptive": True, "--cells": "8"},
                  {"--truncate-ratio": "1/2", "--delta-target": "0.1"}],
    "records": [{"--universe": "6", "--trials": "3"},
                {"--universe": "6", "--event": "0,1", "--other": "1,2", "--given": "1"},
                {"--universe": "6", "--weights": "1,2,3,1,2,1", "--event": "0,1",
                 "--partition": "0,1;2,3;4,5"}],
    "born": [{"--weights": "2,3,5", "--subset": "0,1"},
             {"--weights": "1,1", "--phases": "0.3,0"},
             {"--state": "s.state", "--cut": "0"},
             {"--state": "even.state", "--cut": "0", "--m-max": "64", "--subset": "1"}],
}
FUZZ_TOL = ("0", "1e-30", "1", "inf", "nan", "-1")
# the flags of the parent parser, which every subcommand takes
FUZZ_COMMON = {
    "--format": ("table", "csv", "structured", "yaml"),
    # a file, the fuzz directory itself, and a file in a missing directory
    "--out": ("out.txt", "", "missing/out.txt"),
    "--seed": FUZZ_INTS, "--tol": FUZZ_TOL,
}
FUZZ_EDGES = {
    "state": {
        # past the dense budget, refused at once: 2,049 weights, wide or int64-wrapping
        # dims, and nine 2x3 states
        "--state": FUZZ_STATES,
        "--weights": FUZZ_LISTS + ("1000,1000,1000", ",".join(["1"] * 2049)),
        "--phases": FUZZ_LISTS,
        "--dims": FUZZ_LISTS + ("2,3", "0,2", "3000,3000", "65536,65536",
                                "3037000500,3037000500", "4294967296,4294967296"),
        "--product": ("s.state,even.state", "s.state", "bad.state,s.state", "missing.state", "",
                      ",".join(["s.state"] * 9)),
        "--save": ("saved.state", "", "missing/saved.state"),
    },
    "schmidt": {
        "--state": FUZZ_STATES, "--cut": FUZZ_CUTS, "--zero-tol": FUZZ_FLOATS,
        "--canonical": (True,),
    },
    "envcheck": {
        "--state": FUZZ_STATES, "--cut": FUZZ_CUTS,
        "--unitary": ("phase:0.4,1.1", "phase:nan,0", "phase:1", "swap:0,1", "swap:0,5",
                      "swap:1", "matrix:swap.txt", "matrix:empty.txt", "matrix:missing.txt",
                      "spin:1", ""),
        "--term-phases": FUZZ_LISTS,
        "--partial": ("basis.txt", "swap.txt", "empty.txt", "huge.txt", "missing.txt"),
    },
    "protocol": {
        "--state": FUZZ_STATES, "--cut": FUZZ_CUTS,
        "--pair": ("0,1", "1,0", "0,0", "0,5", "-1,0", "0", "0,1,2", "x", ""),
        "--phase": FUZZ_FLOATS,
    },
    "pointer": {
        "--couplings": tuple(FUZZ_COUPLINGS) + ("empty.txt",),
        "--t0": FUZZ_FLOATS, "--t1": FUZZ_FLOATS, "--time": FUZZ_FLOATS,
        "--gamma": FUZZ_LISTS, "--amps": FUZZ_LISTS,
        "--steps": FUZZ_INTS + (PAST_CAP,), "--iterations": FUZZ_INTS,
        "--search": (True,),
    },
    "freq": {
        "--m": FUZZ_INTS, "--M": FUZZ_INTS, "--N": FUZZ_INTS + (PAST_CAP,),
        "--cells": FUZZ_LISTS + ("1,1,1,1,1,1,1,1",), "--delta-r": FUZZ_FRACTIONS,
        "--phases": FUZZ_LISTS, "--pairs": FUZZ_INTS, "--register": (True,),
    },
    "continuum": {
        "--family": ("gaussian", "uniform", "box", "cauchy"),
        "--center": FUZZ_FLOATS, "--width": FUZZ_FLOATS, "--a": FUZZ_FLOATS,
        "--b": FUZZ_FLOATS, "--x0": FUZZ_FLOATS, "--x1": FUZZ_FLOATS,
        "--edges": FUZZ_LISTS + ("0,0.5,1",), "--box-weights": FUZZ_LISTS + ("0.5,0.5",),
        "--interval": FUZZ_LISTS + ("-1,1",),
        # a mesh or rule past the quadrature budget is refused at once, like
        # records' UNIVERSE_CAP + 1, so widths, cells and points past it are drawn
        "--dx": ("0.5", "0.25", "0", "-0.5", "nan", "inf", "1/0", "1e-7", ""),
        "--adaptive": (True,), "--cells": ("-1", "0", "1", "8", "nan", "100000000", ""),
        "--quad": ("-1", "0", "1", "2", "16", "nan", "2049", "100000000", ""),
        "--m-max": ("-1", "0", "1", "4", "64", "nan", ""),
        "--truncate-ratio": FUZZ_FRACTIONS, "--delta-target": FUZZ_FRACTIONS,
    },
    "records": {
        # one past the cap, refused at once; the cap itself is not drawn, since
        # one audit trial there takes about 0.4 s
        "--universe": ("-1", "0", "1", "2", "6", "7", "1.5", "nan", "",
                       str(envlab.records.UNIVERSE_CAP + 1)),
        "--trials": FUZZ_INTS,
        "--event": FUZZ_EVENTS, "--other": FUZZ_EVENTS, "--given": FUZZ_INTS + ("5", "6"),
        "--weights": ("", "1,1,1,1,1,9", "0,0,0,0,0,0", "-1,1,1,1,1,1", "0,1,0,1,0,1",
                      "1,2", "1,1,1,1,1,1,1", "1.5,1,1,1,1,1", "nan", "x"),
        # overlapping, uncovered, out-of-range, duplicate and negative members
        "--partition": ("0,1;2,3;4,5", "0;1;2;3;4;5", "0,1;1,2;3,4,5", "0,1;2,3",
                        "0,1;2,3;4,5,6", "0,0,1;2,3,4,5", "-1;0,1,2,3,4,5", "", ";",
                        "x;0"),
    },
    "born": {
        "--weights": FUZZ_LISTS + ("1000,1000,1000", "4096,4096"),
        "--phases": FUZZ_LISTS, "--subset": FUZZ_EVENTS,
        "--state": FUZZ_STATES, "--cut": FUZZ_CUTS,
        # at most 4096: on the even state rationalize apportions every even
        # denominator, 0.06 s at 4096 but 1.7 s at 200000 on a 2-vCPU host
        "--m-max": ("-1", "0", "1", "2", "64", "4096", "1.5", "nan", ""),
    },
}
# the flags a draw may set: every option of the subcommand's parser
FUZZ_FLAGS = {}
for _command, _action in _parser_actions():
    if _action.dest != "help":
        FUZZ_FLAGS.setdefault(_command, []).append(_action.option_strings[0])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, array in FUZZ_COUPLINGS.items():
        np.savetxt(root / name, array)
    (root / "empty.txt").write_text("")
    # an uneven 2x3 state, the even two-qubit state, a 128 x 2 Bell-like
    # state and unparsable text; missing.state is never written.  At --cut 1
    # the wide state's counter has 128^2 = 16,384 entries, past
    # MAX_TABLE_ROWS, so envcheck prints no counter table for it
    save_state(StateVector((2, 3), np.arange(1.0, 7.0) / math.sqrt(91.0)), root / "s.state")
    save_state(StateVector((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2)), root / "even.state")
    save_state(bell_like(128), root / "wide.state")
    (root / "bad.state").write_text("{not json")
    # a swap of two levels and a rotated basis of them, for envcheck
    np.savetxt(root / "swap.txt", [[0.0, 1.0], [1.0, 0.0]])
    np.savetxt(root / "basis.txt", np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    return root


def _in_root(flag, value, root) -> str:
    # file names in a draw are relative to the fuzz directory
    if flag in ("--couplings", "--state", "--partial", "--save", "--out"):
        return str(root / value)
    if flag == "--product":
        return ",".join(str(root / part) for part in value.split(","))
    if flag == "--unitary" and value.startswith("matrix:"):
        return "matrix:" + str(root / value[len("matrix:"):])
    return value


def _past_cap(command, flags) -> str:
    # one step past the decoherence table's budget, or the fewest runs past
    # the composition cap or past the digit limit for printing an integer
    if command == "pointer":
        rows = len(FUZZ_COUPLINGS.get(flags.get("--couplings"), ()))
        return str(envlab.born.DENSE_AMPLITUDE_CAP // (1 + 3 * math.comb(max(rows - 1, 0), 2))
                   + 1)
    try:
        cells = [int(c) for c in flags["--cells"].split(",")] if "--cells" in flags else []
        base = sum(cells) if cells else int(flags.get("--M"))
    except (TypeError, ValueError):
        return "1"
    limit, pasts = sys.get_int_max_str_digits(), []
    if base >= 2:
        start = int(limit / math.log10(base)) - 2
        pasts.append(next(n for n in itertools.count(max(start, 1))
                          if math.floor(n * math.log10(base)) + 1 > limit))
    if len(cells) > 1 and min(cells) >= 1:
        pasts.append(next(n for n in itertools.count(1) if math.comb(n + len(cells) - 1,
                          len(cells) - 1) > envlab.frequencies.COMPOSITION_CAP))
    return str(min(pasts, default=1))


@st.composite
def fuzz_argv(draw, root):
    # a valid run with one to three of the subcommand's flags set to edge
    # values or dropped
    command = draw(st.sampled_from(sorted(FUZZ_ROUTES)))
    flags = dict(draw(st.sampled_from(FUZZ_ROUTES[command])))
    edges = {**FUZZ_COMMON, **FUZZ_EDGES[command]}
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(FUZZ_FLAGS[command]))
        value = draw(st.sampled_from((None,) + edges[flag]))
        if value is None:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    argv = [command, "--format=" + draw(st.sampled_from(("table", "csv", "structured")))]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value == PAST_CAP:
            argv.append(f"{flag}={_past_cap(command, flags)}")
        else:
            argv.append(f"{flag}={_in_root(flag, value, root)}")
    return argv


def test_fuzzer_has_edges_for_every_flag():
    for command, flags in FUZZ_FLAGS.items():
        assert sorted(FUZZ_COMMON.keys() | FUZZ_EDGES[command].keys()) == sorted(flags), command
    assert set(FUZZ_ROUTES) == set(FUZZ_FLAGS) == set(cli_module.HANDLERS)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_exit_code_contract_holds_on_edge_inputs(data, fuzz_files):
    argv = data.draw(fuzz_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, recorded_handlers() as calls, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code in (0, 1):
        # a run that reports read every flag it was given, whatever ROUTES says
        given = {arg[2:].partition("=")[0].replace("-", "_") for arg in argv[1:]}
        ((_, reads),) = calls
        assert sorted(given - {"format", "out"} - reads) == [], argv
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert lines[0][len("error: "):].strip() and out == ""
