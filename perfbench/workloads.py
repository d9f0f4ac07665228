"""Seeded workloads: the input files each one writes and the CLI calls it times.

A workload is a set-up (CLI calls that write state files, plus coupling
matrices drawn with ``numpy.random.default_rng(seed)``) and a list of
invocations of ``python -m envlab.cli``.  Every file name is relative to the
workload's input directory, so the CLI's stdout does not depend on where the
benchmark runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """A semantic check on the scalars of a ``--format structured`` report."""

    description: str
    holds: object  # callable(scalars: dict) -> bool


FINE_EVEN = Check("fine_even true and M = 500",
                  lambda s: s["fine_even"] == "true" and s["M"] == "500")
ERF_ONE = Check("interval_probability within 1e-3 of erf(1)",
                lambda s: abs(float(s["interval_probability"]) - math.erf(1)) <= 1e-3)
SEARCH_NOT_WORSE = Check("found_score <= truth_max_score + 1e-9",
                         lambda s: float(s["found_score"])
                         <= float(s["truth_max_score"]) + 1e-9)
CENSUS = Check("census_matches true", lambda s: s["census_matches"] == "true")
CLEAN = Check("clean true", lambda s: s["clean"] == "true")

# scalars that name the route a run took; copied into the results file
ROUTE_SCALARS = ("superensemble", "degenerate_minimum")


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect: int = 0        # exit code the CLI contract requires
    check: Check = None    # applied when argv asks for --format structured

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def structured(self) -> bool:
        return "structured" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    state_calls: object   # callable(seed) -> list of CLI argv that write state files
    arrays: object        # callable(seed) -> {file name: 2-d array} for np.savetxt
    invocations: object   # callable(seed) -> list of Invocation


S = ("--format", "structured")


def _counting_states(seed):
    return [("state", "--dims", "64,64", "--seed", str(seed), "--save", "rand64.state")]


def _counting(seed):
    s = str(seed)
    return [
        # rationalize -> fine-grain -> count: one 1500x500 cut with a 500-fold
        # degenerate group; 320 heavy-tailed cells scanned over 1681
        # denominators; near-equal weights with little lift work; a
        # non-degenerate 64x64 spectrum
        Invocation(("born", "--weights", "100,150,250", "--subset", "0,1", *S),
                   check=FINE_EVEN),
        Invocation(("continuum", "--dx", "0.05", "--interval=-1,1",
                    "--m-max", "2000", *S), check=ERF_ONE),
        Invocation(("continuum", "--adaptive", "--cells", "200", "--x0=-6",
                    "--x1", "6", "--m-max", "2000", *S)),
        Invocation(("born", "--state", "rand64.state", "--cut", "0",
                    "--m-max", "2048", *S)),
        # repeated runs: explicit tensor with dense envariance checks on
        # 1024-dim blocks, sparse census of 4096 histories, exact tallies and a
        # 2001-row report, record-algebra axioms
        Invocation(("freq", "--m", "1", "--M", "2", "--N", "5", "--pairs", "8",
                    "--seed", s, *S), check=CENSUS),
        Invocation(("freq", "--m", "1", "--M", "2", "--N", "12", "--pairs", "8",
                    "--seed", s, *S), check=CENSUS),
        Invocation(("freq", "--m", "1", "--M", "3", "--N", "2000",
                    "--delta-r", "0.1", *S)),
        Invocation(("records", "--universe", "12", "--trials", "500",
                    "--seed", s, *S), check=CLEAN),
    ]


def _search_arrays(seed):
    rng = np.random.default_rng(seed)
    return {
        "g3x4.txt": rng.uniform(0.0, 2 * math.pi, (3, 4)),
        "g5x16.txt": rng.uniform(0.0, 2 * math.pi, (5, 16)),
    }


def _search(seed):
    # about 23k pointer_score calls, each on tiny conditional states and cuts,
    # then a 2000-row decoherence sweep
    return [
        Invocation(("pointer", "--couplings", "g3x4.txt", "--time", "1.5",
                    "--search", *S), check=SEARCH_NOT_WORSE),
        Invocation(("pointer", "--couplings", "g5x16.txt", "--steps", "2000", *S)),
    ]


def _quick_states(seed):
    # the even two-qubit probe state of the CLI determinism criterion
    return [("state", "--weights", "1,1", "--save", "probe.state")]


def _quick_arrays(seed):
    return {"g.txt": 0.53 * np.arange(12.0).reshape(3, 4)}


def _quick(seed):
    s = str(seed)
    probe = ("--state", "probe.state", "--cut", "0")
    return [
        Invocation(("state", "--dims", "2,3", "--seed", s)),
        Invocation(("schmidt", *probe)),
        Invocation(("envcheck", *probe, "--term-phases", "0.3,0.9")),
        Invocation(("protocol", *probe, "--pair", "0,1")),
        Invocation(("born", "--weights", "2,3,5", "--subset", "0,1")),
        Invocation(("pointer", "--couplings", "g.txt", "--steps", "6", "--search")),
        Invocation(("records", "--universe", "6", "--trials", "40", "--seed", s)),
        Invocation(("freq", "--m", "1", "--M", "3", "--N", "3", "--seed", s)),
        Invocation(("continuum", "--dx", "0.5", "--interval=-1,1", "--m-max", "512")),
        Invocation(("born", "--weights", "1,1", "--phases", "nan,0"), expect=2),
    ]


def _badinput(seed):
    return [
        Invocation(("continuum", "--truncate-ratio", "1/0",
                    "--delta-target", "1/10"), expect=2),
        Invocation(("freq", "--m", "1", "--M", "2", "--N", "4",
                    "--delta-r", "1/0"), expect=2),
        Invocation(("born", "--weights", "1,1", "--phases", "nan,0"), expect=2),
    ]


def _smoke(seed):
    return [Invocation(("born", "--weights", "2,3,5", "--subset", "0,1", *S))]


def _none(seed):
    return []


def _no_arrays(seed):
    return {}


WORKLOADS = {
    w.name: w for w in (
        Workload("counting", _counting_states, _no_arrays, _counting),
        Workload("search", _none, _search_arrays, _search),
        # not in BENCHMARK.json, see README.md: CLI fixed cost, and inputs
        # the exit-code contract must reject with 2
        Workload("quick", _quick_states, _quick_arrays, _quick),
        Workload("badinput", _none, _no_arrays, _badinput),
        # one tiny call, for the self-test
        Workload("smoke", _none, _no_arrays, _smoke),
    )
}

DEFAULT_WORKLOADS = ("counting", "search")
