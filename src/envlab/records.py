"""Boolean algebra of measurement records.

A record event is a subset of the pointer-basis outcome indices 0..n-1, or
equivalently the projector onto the subspace those records span.  Because
all events share one orthonormal record basis, their projectors commute and
the lattice they generate is Boolean; the axiom checker verifies this both
in exact set arithmetic and in projector arithmetic on the 0/1 diagonals
that the projectors have in the record basis.  Probabilities of coarse
events are exact rationals: the sum of the member fine-grained weights over
the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .born import _chunk_rows, require_dense

UNIVERSE_CAP = 2**17  # records in a universe; at the cap an event query with --other
# takes 0.85-1.06 s on a 2-vCPU Xeon, most of it in lemma5_recursion

AXIOM_NAMES = (
    "commutativity",
    "associativity",
    "absorptivity",
    "distributivity",
    "orthocompleteness",
)


@dataclass(frozen=True)
class RecordEvent:
    """Coarse-grained event: a set of the records 0..size-1."""

    size: int
    members: frozenset

    def __post_init__(self):
        size = int(self.size)
        if size > UNIVERSE_CAP:
            raise ValueError(f"universe of {size} records is above the cap of {UNIVERSE_CAP}")
        if size < 1:
            raise ValueError("universe cannot be empty")
        members = frozenset(int(k) for k in self.members)
        outside = sorted(k for k in members if not 0 <= k < size)
        if outside:
            raise ValueError(f"members {outside} outside the universe")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "members", members)


def _require_shared_universe(a: RecordEvent, b: RecordEvent):
    if a.size != b.size:
        raise ValueError("events live in different universes")


def _lattice_result(size: int, members: frozenset) -> RecordEvent:
    # meet, join and complement of valid events in one universe are valid
    # by construction, so their results skip the constructor's checks
    event = object.__new__(RecordEvent)
    object.__setattr__(event, "size", size)
    object.__setattr__(event, "members", members)
    return event


def meet(a: RecordEvent, b: RecordEvent) -> RecordEvent:
    """Logical product: intersection of members, P_a P_b on the projector side."""
    _require_shared_universe(a, b)
    return _lattice_result(a.size, a.members & b.members)


def join(a: RecordEvent, b: RecordEvent) -> RecordEvent:
    """Logical sum: union of members, P_a + P_b - P_a P_b on the projector side."""
    _require_shared_universe(a, b)
    return _lattice_result(a.size, a.members | b.members)


@lru_cache(maxsize=1)
def _all_records(size: int) -> frozenset:
    return frozenset(range(size))  # kept for the next complement in the same universe


def complement(a: RecordEvent) -> RecordEvent:
    """Negation: universe minus members, P_U - P_a on the projector side."""
    return _lattice_result(a.size, _all_records(a.size) - a.members)


# projector mirrors of the lattice operations on 0/1 diagonals: every record
# projector is diagonal in the record basis, so P_a P_b, P_a + P_b - P_a P_b
# and 1 - P_a act entrywise, exactly; verify_axioms evaluates every identity
# once on events and once on (trials, n) stacks of diagonals through these
def _m(a, b):
    return a * b if isinstance(a, np.ndarray) else meet(a, b)


def _j(a, b):
    return a + b - a * b if isinstance(a, np.ndarray) else join(a, b)


def _c(a):
    return 1.0 - a if isinstance(a, np.ndarray) else complement(a)


_IDENTITIES = (
    ("commutativity", lambda k, l, m, top: (_m(k, l), _m(l, k))),
    ("commutativity", lambda k, l, m, top: (_j(k, l), _j(l, k))),
    ("associativity", lambda k, l, m, top: (_m(_m(k, l), m), _m(k, _m(l, m)))),
    ("associativity", lambda k, l, m, top: (_j(_j(k, l), m), _j(k, _j(l, m)))),
    ("absorptivity", lambda k, l, m, top: (_j(k, _m(k, l)), k)),
    ("absorptivity", lambda k, l, m, top: (_m(k, _j(k, l)), k)),
    ("distributivity", lambda k, l, m, top: (_m(k, _j(l, m)), _j(_m(k, l), _m(k, m)))),
    ("distributivity", lambda k, l, m, top: (_j(k, _m(l, m)), _m(_j(k, l), _j(k, m)))),
    ("orthocompleteness", lambda k, l, m, top: (_j(k, _c(k)), top)),
    ("orthocompleteness", lambda k, l, m, top: (_m(k, _c(k)), _c(top))),
    ("orthocompleteness", lambda k, l, m, top: (_c(_c(k)), k)),
    ("orthocompleteness", lambda k, l, m, top: (_j(k, _m(l, _c(l))), k)),
    ("orthocompleteness", lambda k, l, m, top: (_m(k, _j(l, _c(l))), k)),
)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom pass counts over random event triples."""

    universe_size: int
    trials: int
    passes: tuple       # (axiom name, trials passed) in AXIOM_NAMES order
    violations: tuple   # (axiom name, trial index, detail)

    @property
    def clean(self) -> bool:
        return not self.violations


def _random_event(rng, n: int) -> RecordEvent:
    # one vector draw gives the doubles that one draw per record in turn
    # would; its members index the universe 0..n-1, so they are valid
    density = rng.random()
    members = np.flatnonzero(rng.random(n) < density)
    return _lattice_result(n, frozenset(members.tolist()))


def _diagonals(events, n: int) -> np.ndarray:
    """Stacked 0/1 projector diagonals of events in the universe 0..n-1."""
    diagonals = np.zeros((len(events), n))
    for row, event in zip(diagonals, events):
        row[list(event.members)] = 1.0
    return diagonals


_CHECKS = ("set sides differ", "projector sides differ",
           "set and projector semantics split")


def verify_axioms(universe_size: int, trials: int = 500, seed: int = 0) -> AxiomReport:
    """Check the five lattice axiom families on random event triples.

    Every identity is evaluated three ways per trial: exact set arithmetic,
    projector arithmetic on the 0/1 diagonals (exact, compared with ==), and
    the cross-check that the set-side result materializes to the same
    diagonal.  A trial passes an axiom family only when all its identities
    pass all three.  The set side runs trial by trial; the projector side
    runs on (trials, n) stacks of diagonals.  Trials x records are checked
    against the dense budget before the first event is drawn.
    """
    n = int(universe_size)
    if n < 1:
        raise ValueError("universe_size must be >= 1")
    top_event = RecordEvent(n, range(n))
    trials = int(trials)
    require_dense(trials * n, "axiom audit")
    top = np.ones(n)
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(AXIOM_NAMES, 0)
    violations = []
    chunk = _chunk_rows(n)
    for first in range(0, trials, chunk):
        batch = [tuple(_random_event(rng, n) for _ in range(3))
                 for _ in range(min(chunk, trials - first))]
        diags = tuple(_diagonals(column, n) for column in zip(*batch))
        flags = []  # per identity: the three checks, one flag per trial
        for _, identity in _IDENTITIES:
            sides = [identity(*events, top_event) for events in batch]
            diag_l, diag_r = identity(*diags, top)
            flags.append((
                [ev_l.members != ev_r.members for ev_l, ev_r in sides],
                np.any(diag_l != diag_r, axis=-1),
                np.any(_diagonals([ev_l for ev_l, _ in sides], n) != diag_l, axis=-1),
            ))
        for t in range(len(batch)):
            failed = set()
            for (name, _), checks in zip(_IDENTITIES, flags):
                for detail, flag in zip(_CHECKS, checks):
                    if flag[t]:
                        failed.add(name)
                        violations.append((name, first + t, detail))
            for name in AXIOM_NAMES:
                if name not in failed:
                    counts[name] += 1
    return AxiomReport(
        universe_size=n,
        trials=trials,
        passes=tuple((name, counts[name]) for name in AXIOM_NAMES),
        violations=tuple(violations),
    )


def _weights_of(tally) -> tuple:
    """Fine-grained weights from a tally of nonnegative integers."""
    tally = tuple(int(x) for x in tally)
    if not tally or any(x < 0 for x in tally):
        raise ValueError("tally must be nonnegative integers")
    if sum(tally) == 0:
        raise ValueError("tally has no support")
    return tally


def event_probabilities(tally, events) -> tuple:
    """Exact probability of each event, in order: member weights over the total."""
    weights = _weights_of(tally)
    total = sum(weights)
    probs = []
    for event in events:
        if event.size != len(weights):
            raise ValueError(
                f"event universe does not match the {len(weights)} outcome indices"
            )
        probs.append(Fraction(sum(weights[k] for k in event.members), total))
    return tuple(probs)


def conditional_probability(event: RecordEvent, outcome: int) -> Fraction:
    """p(event | fine outcome): 1 when the outcome is a member, else 0."""
    if not 0 <= int(outcome) < event.size:
        raise ValueError(f"outcome {outcome} outside the universe")
    return Fraction(1 if int(outcome) in event.members else 0)


def partition_support(tally, partition) -> int:
    """Check a partition of the outcomes; return the term count of upsilon.

    Upsilon correlates coarse cells with fine outcomes: cell c contributes
    sqrt(m_k / M) on |c>|k> for each of its outcomes k of weight m_k > 0, as
    nothing records an outcome that never happened.  The cells share the
    tally's universe, do not overlap and cover every outcome of positive
    weight, so upsilon has one term per such outcome; it is counted, not built.
    """
    weights = _weights_of(tally)
    n = len(weights)
    cells = list(partition)
    if not cells:
        raise ValueError("partition needs at least one cell")
    if any(cell.size != n for cell in cells):
        raise ValueError("partition cell universe does not match the outcomes")
    covered = set()
    for cell in cells:
        if covered & cell.members:
            raise ValueError("partition cells overlap")
        covered |= cell.members
    support = {k for k in range(n) if weights[k] > 0}
    missing = sorted(support - covered)
    if missing:
        raise ValueError(f"partition misses {len(missing)} outcomes, first {missing[:8]}")
    return len(support)


def lemma5_recursion(event: RecordEvent) -> Fraction:
    """Peel-one-off product for the probability of an even coarse event.

    Removing one non-member outcome at a time from an even universe of size
    N multiplies the probability by (1 - 1/N); the product telescopes to
    n_members / N and is computed here in exact rationals.
    """
    n = event.size
    p = Fraction(1)
    for j in range(n - len(event.members)):
        p *= 1 - Fraction(1, n - j)
    return p


def parse_event(text: str, universe_size: int) -> RecordEvent:
    """Parse comma-separated record indices ("1,2,5"; "" is the empty event)."""
    members = frozenset(int(tok) for tok in text.strip().split(",") if tok.strip())
    return RecordEvent(universe_size, members)
