"""Self-test of the benchmark: one tiny CLI call through both runners.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
from run import Call, failure
from workloads import FINE_EVEN, Invocation

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    got = _bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert [m["name"] for m in BENCHMARK[section]] == list(result["metrics"])
    for metric in BENCHMARK[section]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        # born --weights 2,3,5: one 30x10 fine-grained cut
        assert result["metrics"]["born.fine_grain.amplitudes"]["value"] == 300
        assert result["metrics"]["hilbert.schmidt.cut_cells"]["value"] == 300
        assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_per_layer_names_match_benchmark_json():
    listed = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(n, layers.unit(n)) for n in layers.metric_names()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = _bench(tmp_path, "--workload", "smoke", "--seed", "1", "--seconds", "1")
    assert got.returncode != 0
    assert not got.stdout.strip()


def _call(rc=0, stdout=b"", stderr=b"", timed_out=False):
    return Call(rc=rc, wall_s=0.1, cpu_s=0.1, rss_mib=30.0, timed_out=timed_out,
                stdout=stdout, stderr=stderr)


def test_checker_flags_each_kind_of_failure():
    rejected = Invocation(("born", "--weights", "1,1", "--phases", "nan,0"), expect=2)
    assert failure(rejected, _call(rc=2, stderr=b"error: bad"), None) is None
    assert "exit 1" in failure(rejected, _call(rc=1), None)
    assert "Traceback" in failure(rejected, _call(rc=2, stderr=b"Traceback (most"), None)
    assert failure(rejected, _call(rc=2, timed_out=True), None) == "timeout"
    assert "differs" in failure(rejected, _call(rc=2, stdout=b"x"), "0" * 64)

    structured = Invocation(("born", "--format", "structured"), check=FINE_EVEN)
    good = json.dumps({"scalars": {"fine_even": "true", "M": "500"}}).encode()
    bad = json.dumps({"scalars": {"fine_even": "false", "M": "500"}}).encode()
    assert failure(structured, _call(stdout=good), None) is None
    assert "fine_even" in failure(structured, _call(stdout=bad), None)
    assert "unreadable" in failure(structured, _call(stdout=b"{}"), None)
