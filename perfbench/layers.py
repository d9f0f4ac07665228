"""Per-layer metrics from the span files written by ``traced_cli.py``.

A span's self time is its duration minus the durations of its child spans.
Layers are the nine envlab modules; a module's calls, self time and errors
sum over its public functions.  Function-level metrics are the ones named in
``FUNCTIONS``; ``records.ops.calls``, ``report.bytes``, ``cli.import_s`` and
``trace.overhead_s`` are derived below.
"""

from __future__ import annotations

from collections import defaultdict

from traced_cli import MODULES

# function -> the metrics reported for it
FUNCTIONS = {
    "hilbert.schmidt": ("calls", "self_s", "cut_cells"),
    "hilbert.conditional_state": ("calls", "self_s"),
    "hilbert.apply_local": ("self_s",),
    "hilbert.load_state": ("self_s", "bytes"),
    "born.rationalize": ("self_s", "denominators"),
    "born.born_probabilities": ("self_s",),
    "born.fine_grain": ("self_s", "amplitudes"),
    "envariance.check_envariance": ("calls", "self_s", "block_cells"),
    "pointer.pointer_score": ("calls", "self_s"),
    "pointer.find_pointer_basis": ("self_s",),
    "pointer.evolve": ("self_s",),
    "pointer.decoherence_factor": ("calls", "self_s"),
    "frequencies.history_counts": ("calls", "self_s"),
    "frequencies.frequency_distribution": ("self_s",),
    "frequencies.maverick_mass": ("self_s",),
    "frequencies.build_superensemble_explicit": ("self_s", "amplitudes"),
    "frequencies.history_census": ("self_s",),
    "frequencies.swap_restoration": ("calls", "self_s"),
    "records.verify_axioms": ("self_s",),
    "continuum.discretize": ("self_s", "cells"),
    "continuum.born_continuum": ("self_s",),
    "continuum.orthogonality_defect": ("self_s",),
    "cli.main": ("self_s",),
    "report.emit_report": ("self_s",),
}
RECORD_OPS = ("records.meet", "records.join", "records.complement")

UNITS = {"self_s": "s", "import_s": "s", "overhead_s": "s", "bytes": "bytes"}


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def metric_names() -> list:
    names = []
    for module in MODULES:
        names += [f"{module}.calls", f"{module}.self_s", f"{module}.errors"]
    for fn, kinds in FUNCTIONS.items():
        names += [f"{fn}.{kind}" for kind in kinds]
    names += ["records.ops.calls", "cli.import_s", "report.bytes", "trace.overhead_s"]
    return names


def function_totals(docs) -> dict:
    """Sum calls, self time (s), errors and work per function over span files."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0})
    for doc in docs:
        spans = doc["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (fid, start, end, _, failed, work) in enumerate(spans):
            t = totals[doc["names"][fid]]
            t["calls"] += 1
            t["self_s"] += (end - start - covered[i]) / 1e9
            t["errors"] += failed
            t["work"] += work
    return dict(totals)


def layer_metrics(docs) -> dict:
    """Every name of ``metric_names()`` except trace.overhead_s, for one pass."""
    totals = function_totals(docs)
    empty = {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0}
    out = {}
    for module in MODULES:
        mine = [t for name, t in totals.items() if name.split(".")[0] == module]
        for kind in ("calls", "self_s", "errors"):
            out[f"{module}.{kind}"] = sum(t[kind] for t in mine) + empty[kind]
    for fn, kinds in FUNCTIONS.items():
        t = totals.get(fn, empty)
        for kind in kinds:
            out[f"{fn}.{kind}"] = t[kind] if kind in t else t["work"]
    out["records.ops.calls"] = sum(totals.get(op, empty)["calls"] for op in RECORD_OPS)
    out["report.bytes"] = totals.get("report.emit_report", empty)["work"]
    out["cli.import_s"] = sum(doc["import_ns"] for doc in docs) / 1e9
    return out
