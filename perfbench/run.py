#!/usr/bin/env python3
"""Benchmark of the envlab command line, run as subprocesses.

Run from the repository root:

    python3 perfbench/run.py --workload counting --seed 1 --seconds 60 --trace 0

A run writes the workload's inputs from --seed (timed as set-up), then runs
its list of ``python -m envlab.cli`` calls against ./src one after another:
one client, closed loop, no concurrency.  It repeats the list for about
--seconds, stopping at the pass end nearest to it, and at least twice.
Every call is checked (exit code, no traceback, no timeout, stdout equal to
the first pass, semantic checks on structured reports) and runs under a
wall-clock timeout and an address-space cap.

--trace 0 reports the end-to-end metrics over untraced passes.  --trace 1
runs passes untraced, traced, traced, then alternating; traced passes go
through traced_cli.py, and the run reports per-layer metrics from the spans.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; a results file with every
pass, the stdout digests and the provenance goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
from workloads import DEFAULT_WORKLOADS, ROUTE_SCALARS, WORKLOADS

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 140.0         # past this, stop once the minimum passes are done
MEMORY_CAP_BYTES = 2 << 30  # RLIMIT_AS of every CLI child

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "ok_share": "ratio", "setup_s": "s"}


class SetupError(RuntimeError):
    pass


@dataclass
class Call:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _timeout() -> float:
    left = RUN_LIMIT_S + 15.0 - (time.perf_counter() - STARTED)
    return max(1.0, min(CHILD_TIMEOUT_S, left))


def spawn(argv, cwd: Path, env: dict, io: Path) -> Call:
    """Run one child to completion; time it and read its rusage."""
    out_path, err_path = io / "stdout", io / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_cap_memory)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], _timeout())[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(rc=proc.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mib=usage.ru_maxrss / 1024.0, timed_out=timed_out,
                stdout=out_path.read_bytes(), stderr=err_path.read_bytes())


def failure(inv, call: Call, reference) -> str | None:
    """Why a call failed, or None.  ``reference`` is the first pass's digest."""
    if call.timed_out:
        return "timeout"
    if call.rc != inv.expect:
        return f"exit {call.rc}, expected {inv.expect}"
    if b"Traceback" in call.stderr:
        return "Traceback on stderr"
    if reference is not None:
        if hashlib.sha256(call.stdout).hexdigest() != reference:
            return "stdout differs from the first pass"
        return None
    if inv.structured and inv.check is not None:
        try:
            holds = inv.check.holds(json.loads(call.stdout)["scalars"])
        except (ValueError, KeyError) as exc:
            return f"unreadable report ({exc!r})"
        if not holds:
            return f"check failed: {inv.check.description}"
    return None


def routes(inv, call: Call) -> dict:
    if not inv.structured:
        return {}
    try:
        scalars = json.loads(call.stdout)["scalars"]
    except (ValueError, KeyError):
        return {}
    return {k: scalars[k] for k in ROUTE_SCALARS if k in scalars}


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One workload at one seed, in a work directory under .perfbench/."""

    def __init__(self, root: Path, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
        self.io = self.work / "io"
        self.inputs = self.work / "setup0"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PERFBENCH_SPANS", None)
        self.invocations = self.workload.invocations(seed)
        self.references = {}   # invocation index -> stdout digest of pass 0
        self.route = {}        # invocation -> route scalars of pass 0
        self.failures = []

    def set_up(self, directory: Path) -> float:
        """Check the CLI starts, then write the seeded inputs; return seconds."""
        directory.mkdir(parents=True)
        start = time.perf_counter()
        for argv in [("--help",)] + list(self.workload.state_calls(self.seed)):
            call = spawn([sys.executable, "-m", "envlab.cli", *argv],
                         directory, self.env, self.io)
            if call.rc != 0:
                raise SetupError(f"set-up call {' '.join(argv)} exited {call.rc}: "
                                 f"{call.stderr.decode(errors='replace')[-300:]}")
        for file_name, array in self.workload.arrays(self.seed).items():
            np.savetxt(directory / file_name, array)
        return time.perf_counter() - start

    def set_up_repeatedly(self) -> list:
        self.io.mkdir(parents=True)
        times = [self.set_up(self.work / f"setup{i}") for i in range(SETUP_REPEATS)]
        first = {p.name: p.read_bytes() for p in sorted(self.inputs.iterdir())}
        for i in range(1, SETUP_REPEATS):
            again = self.work / f"setup{i}"
            if {p.name: p.read_bytes() for p in sorted(again.iterdir())} != first:
                raise SetupError("the same seed wrote different inputs")
            shutil.rmtree(again)
        return times

    def one_pass(self, index: int, traced: bool) -> dict:
        calls, docs = [], []
        for i, inv in enumerate(self.invocations):
            env = self.env
            if traced:
                spans_path = self.io / f"spans{i}.json"
                env = dict(env, PERFBENCH_SPANS=str(spans_path))
                argv = [sys.executable, str(TRACED_CLI), *inv.argv]
            else:
                argv = [sys.executable, "-m", "envlab.cli", *inv.argv]
            call = spawn(argv, self.inputs, env, self.io)
            digest = hashlib.sha256(call.stdout).hexdigest()
            why = failure(inv, call, self.references.get(i))
            if i not in self.references:
                self.references[i] = digest
                found = routes(inv, call)
                if found:
                    self.route[inv.label] = found
            if why:
                self.failures.append({"pass": index, "call": inv.label, "why": why})
            if traced and spans_path.exists():
                docs.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
            calls.append({"argv": inv.label, "rc": call.rc, "wall_s": call.wall_s,
                          "cpu_s": call.cpu_s, "peak_rss_mb": call.rss_mib,
                          "stdout_sha256": digest, "failure": why})
        return {
            "traced": traced,
            "wall_s": sum(c["wall_s"] for c in calls),
            "cpu_s": sum(c["cpu_s"] for c in calls),
            "peak_rss_mb": max((c["peak_rss_mb"] for c in calls), default=0.0),
            "calls": calls,
            "layers": layers.layer_metrics(docs) if traced else None,
        }

    def measure(self, seconds: float, trace: bool) -> list:
        """Passes until about ``seconds`` have gone; at least two.

        With tracing the order is untraced, traced, traced, then alternating,
        so every run has two traced passes to compare counts between.
        """
        minimum = 3 if trace else 2
        passes = []
        start = time.perf_counter()
        while True:
            k = len(passes)
            traced = trace and (k in (1, 2) or (k > 3 and k % 2 == 0))
            passes.append(self.one_pass(k, traced))
            elapsed = time.perf_counter() - start
            mean = elapsed / len(passes)
            late = time.perf_counter() - STARTED > RUN_LIMIT_S
            # stop at the pass end nearest to ``seconds``
            if len(passes) >= minimum and (late or elapsed + mean / 2 > seconds):
                return passes


def per_layer(passes) -> tuple:
    """Per-layer metrics over the traced passes, and count mismatches."""
    traced = [p["layers"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out, mismatched = {}, []
    for name in layers.metric_names():
        if name == "trace.overhead_s":
            out[name] = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                         - statistics.median(plain))
        elif layers.unit(name) == "s":
            out[name] = statistics.median(t[name] for t in traced)
        else:
            values = {t[name] for t in traced}
            if len(values) > 1:
                mismatched.append(name)
            out[name] = traced[0][name]
    return out, mismatched


def provenance(root: Path, seed: int) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            sha = got.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    prov = provenance(root, seed)
    run = Run(root, name, seed)
    try:
        setup_times = run.set_up_repeatedly()
        passes = run.measure(seconds, trace)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    attempted = sum(len(p["calls"]) for p in passes)
    failed = len(run.failures)
    untraced = [p for p in passes if not p["traced"]]
    stats = {k: summary(p[k] for p in untraced) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(setup_times)
    fail_share = failed / attempted
    metrics = {k: stats[k]["median"] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    metrics["ok_share"] = 1.0 - fail_share
    mismatched = []
    if trace:
        metrics, mismatched = per_layer(passes)
        units = {n: layers.unit(n) for n in metrics}
    else:
        units = END_TO_END
    doc = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "provenance": prov,
        "invocations": [inv.label for inv in run.invocations],
        "routes": run.route,
        "stdout_sha256": [run.references[i] for i in sorted(run.references)],
        "summary": stats,
        "fail_share": fail_share,
        "failures": run.failures,
        "trace_count_mismatches": mismatched,
        "setup_s": setup_times,
        "passes": passes,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
    }
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    doc["results_path"] = str(out_path.relative_to(root))
    return doc


def print_run(doc):
    s = doc["summary"]
    print(f"workload {doc['workload']}: {len(doc['passes'])} passes of "
          f"{len(doc['invocations'])} calls, routes {doc['routes']}")
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        print(f"  {name:12s} {s[name]['median']:.6g} {END_TO_END[name]} "
              f"(q1 {s[name]['q1']:.6g}, q3 {s[name]['q3']:.6g}, n {s[name]['n']})")
    print(f"  {'fail_share':12s} {doc['fail_share']:.6g} ratio "
          f"({doc['failed']} of {doc['attempted']})")
    for f in doc["failures"]:
        print(f"  failed: pass {f['pass']}: {f['call']}: {f['why']}")
    if doc["trace"]:
        for name, m in doc["metrics"].items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        for name in doc["trace_count_mismatches"]:
            print(f"  count differs between traced passes: {name}")
    print(f"  results: {doc['results_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "envlab" / "cli.py").is_file():
        print("error: run from a checkout of the repository (no src/envlab/cli.py "
              "here)", file=sys.stderr)
        return 2
    names = list(DEFAULT_WORKLOADS) + ["quick", "badinput"] \
        if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        try:
            doc = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_run(doc)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{n}": m for d in docs for n, m in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
