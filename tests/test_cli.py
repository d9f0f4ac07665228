"""Front-end checks: flag wiring, rendering, exit codes, determinism.

Engine math is covered by the module suites; here we only pin what the
command layer adds on top of it, plus the audit that every public engine
operation is reachable through exactly one subcommand.
"""

import inspect
import json
import math
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import envlab.born
import envlab.continuum
import envlab.envariance
import envlab.frequencies
import envlab.hilbert
import envlab.pointer
import envlab.records
from envlab.cli import ENGINE_MODULES, OPERATION_MAP, SUBCOMMANDS, main
from envlab.hilbert import StateVector, load_state, save_state

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

def public_operations(mod):
    short = mod.__name__.split(".")[-1]
    names = set()
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != mod.__name__:
            continue
        names.add(f"{short}.{name}")
    return names


def test_every_public_operation_mapped_once():
    # the engine list here is built independently of the cli's own inventory
    assert set(ENGINE_MODULES.values()) == set(ENGINES)
    available = set()
    for mod in ENGINES:
        available |= public_operations(mod)
    assert set(OPERATION_MAP) == available
    assert set(OPERATION_MAP.values()) == set(SUBCOMMANDS)


def test_operation_map_targets_are_subcommands():
    for op, cmd in OPERATION_MAP.items():
        assert cmd in SUBCOMMANDS, op


# ----- rendering of exact values -----

def test_born_weights_exact_fractions(capsys):
    code, out, _ = run_cli(["born", "--weights", "2,3,5"], capsys)
    assert code == 0
    rows = table_rows(out, "outcomes")
    assert [r[2] for r in rows] == ["1/5", "3/10", "1/2"]
    assert scalar(out, "rationalization_error") == "0"
    assert scalar(out, "M") == "10"
    assert scalar(out, "fine_even") == "true"


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


# ----- pointer and schmidt surfaces -----

def test_schmidt_scalars(uneven_state, capsys):
    code, out, _ = run_cli(
        ["schmidt", "--state", uneven_state, "--cut", "0"], capsys)
    assert code == 0
    assert scalar(out, "rank") == "2"
    assert float(scalar(out, "reconstruction_defect")) <= 1e-9
    # purity of diag(1/3, 2/3)
    assert abs(float(scalar(out, "reduced_purity")) - 5 / 9) < 1e-12


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


def test_run_config_invariants():
    from envlab.cli import RunConfig

    config = RunConfig(command="born", fmt="csv", out=None, seed=3,
                       tol=0.5, options=(("weights", "1,1"),))
    assert config.options == (("weights", "1,1"),)
    with pytest.raises(ValueError, match="positive"):
        RunConfig(command="born", fmt="csv", out=None, seed=0, tol=0.0)
    with pytest.raises(ValueError, match="format"):
        RunConfig(command="born", fmt="yaml", out=None, seed=0, tol=None)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(command="born", fmt="csv", out=None, seed=1.5, tol=None)


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
    code, _, err = run_cli(
        ["born", "--weights", "1,1", "--state", "/nope"], capsys)
    assert code == 2 and "exactly one" in err
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


def test_readme_continuum_example_exits_two_within_memory_cap(tmp_path):
    # 16,000 cells cannot each get weight >= 1 out of M <= 10,000; the
    # counting route says so at once instead of building a dense state
    cap = 2 << 30  # the benchmark's RLIMIT_AS for every CLI call

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "envlab.cli", "continuum", "--dx", "0.001",
         "--interval=-1,1", "--m-max", "10000"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 2
    assert proc.stderr == "error: m_max=10000 cannot give 16000 terms weight >= 1\n"
    assert proc.stdout == ""


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
