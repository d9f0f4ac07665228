"""Discretization bridge from wavefunctions to the counting pipeline.

Countably infinite amplitude sequences are truncated against an explicit
remainder budget; square-integrable wavefunctions are projected onto a mesh
of box functions by per-cell Gauss-Legendre cell averages, with the lost norm
tracked as a remainder term that is orthogonal to the kept part.  Interval
probabilities then reduce to sums of |psi_k|^2 dx_k over covered cells, and
the same cell amplitudes can be pushed through the rationalize/fine-grain
counting pipeline to confirm the density rule at mesh resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .born import BornResult, born_from_coefficients, require_dense

MAX_TRUNCATION_TERMS = 10_000
CONSERVATION_TOL = 1e-8
REMAINDER_FLOOR = -1e-6  # quadrature noise below this means the inputs lied
COVERAGE_TOL = 1e-6      # density a mesh may miss outright
DEFECT_QUAD_POINTS = 64  # independent quadrature of orthogonality_defect
MASS_GRID = 4096         # trapezoid steps behind equal_mass_mesh


@dataclass(frozen=True)
class CoefficientSequence:
    """Amplitudes a_k (k >= 1) with unit total weight.

    A lazy ``term(k)`` paired with an analytically known ``tail(n)`` =
    sum_{k>n} |a_k|^2 (which may return exact Fractions).
    """

    term: object = None
    tail: object = None

    def __post_init__(self):
        if self.term is None or self.tail is None:
            raise ValueError("a sequence needs both term and tail")

    @classmethod
    def geometric(cls, ratio) -> "CoefficientSequence":
        """|a_k|^2 = (1 - r) r^(k-1); exact tail r^n.  0 < r < 1."""
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie strictly between 0 and 1")
        return cls(
            term=lambda k: math.sqrt(float((1 - ratio) * ratio ** (k - 1))),
            tail=lambda n: ratio ** n,
        )


@dataclass(frozen=True)
class Truncation:
    """Smallest head of the sequence whose dropped tail fits the budget."""

    n_delta: int
    delta_sq: object          # exact when the tail is; float otherwise
    probs: tuple              # |a_k|^2 for k <= n_delta
    conditional_probs: tuple  # |a_k|^2 / (1 - delta_sq), sums to 1


def truncate(seq: CoefficientSequence, delta_target) -> Truncation:
    """Cut the sequence at the smallest N with tail weight <= delta_target^2."""
    if not 0 < delta_target < 1:
        raise ValueError("delta_target must lie strictly between 0 and 1")
    budget = delta_target * delta_target
    n = 0
    while seq.tail(n) > budget:
        n += 1
        if n > MAX_TRUNCATION_TERMS:
            raise ValueError(
                f"tail still above budget after {MAX_TRUNCATION_TERMS} terms; "
                "sequence converges too slowly for this target"
            )
    delta_sq = seq.tail(n)
    probs = np.array([abs(complex(seq.term(k))) ** 2 for k in range(1, n + 1)])
    head = float(probs.sum())
    if head <= 0:
        raise ValueError("no weight left after truncation")
    return Truncation(
        n_delta=n,
        delta_sq=delta_sq,
        probs=tuple(float(p) for p in probs),
        conditional_probs=tuple(float(p) for p in probs / head),
    )


@dataclass(frozen=True)
class Mesh:
    """Boxes of the given widths laid end to end from x0."""

    x0: float
    widths: tuple

    def __post_init__(self):
        widths = tuple(float(w) for w in self.widths)
        if not widths:
            raise ValueError("need at least one cell")
        if any(not w > 0 for w in widths):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "widths", widths)

    @property
    def cells(self) -> int:
        return len(self.widths)

    @classmethod
    def uniform(cls, x0, dx, cells: int) -> "Mesh":
        return cls(x0, (float(dx),) * int(cells))

    def cell_widths(self) -> np.ndarray:
        return np.array(self.widths)

    def edges(self) -> np.ndarray:
        return self.x0 + np.concatenate(([0.0], np.cumsum(self.cell_widths())))


@dataclass(frozen=True)
class DiscretizedState:
    """Cell averages psi_k plus the squared norm lost to the remainder."""

    psi_k: tuple
    mesh: Mesh
    remainder_sq: float
    quad_points: int = 16

    def __post_init__(self):
        psi_k = tuple(complex(a) for a in self.psi_k)
        if len(psi_k) != self.mesh.cells:
            raise ValueError("one average per cell")
        if self.remainder_sq < 0:
            raise ValueError("remainder weight cannot be negative")
        captured = float(np.sum(np.abs(np.array(psi_k)) ** 2
                                * self.mesh.cell_widths()))
        if abs(captured + self.remainder_sq - 1.0) > CONSERVATION_TOL:
            raise ValueError("cell weights plus remainder must carry unit norm")
        object.__setattr__(self, "psi_k", psi_k)

    def cell_probs(self) -> np.ndarray:
        return np.abs(np.array(self.psi_k)) ** 2 * self.mesh.cell_widths()


@dataclass(frozen=True)
class WaveFunction:
    """Vectorized amplitude x -> psi(x)."""

    fn: object
    label: str

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=complex)

    @classmethod
    def gaussian(cls, center: float = 0.0, width: float = 1.0) -> "WaveFunction":
        """(pi w^2)^(-1/4) exp(-(x-c)^2 / (2 w^2)); unit norm on the line."""
        if not width > 0:
            raise ValueError("width must be positive")
        if not math.pi * width * width > 0:
            raise ValueError(f"width {width!r} is too small: its square underflows")
        norm = (math.pi * width * width) ** -0.25

        def fn(x):
            return norm * np.exp(-((x - center) ** 2) / (2.0 * width * width))

        return cls(fn=fn, label=f"gaussian(center={center}, width={width})")

    @classmethod
    def uniform(cls, a: float, b: float) -> "WaveFunction":
        if not b > a:
            raise ValueError("need a < b")
        height = 1.0 / math.sqrt(b - a)

        def fn(x):
            return np.where((x >= a) & (x < b), height, 0.0)

        return cls(fn=fn, label=f"uniform[{a}, {b})")

    @classmethod
    def box_mixture(cls, edges, weights) -> "WaveFunction":
        """Piecewise-constant amplitude sqrt(w_i / width_i) on [e_i, e_{i+1})."""
        edges = np.array([float(e) for e in edges])
        weights = np.array([float(w) for w in weights])
        if edges.size != weights.size + 1 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must ascend and bracket every weight")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        heights = np.sqrt(weights / np.diff(edges))

        def fn(x):
            idx = np.searchsorted(edges, x, side="right") - 1
            inside = (idx >= 0) & (idx < heights.size) & (x < edges[-1])
            return np.where(inside, heights[np.clip(idx, 0, heights.size - 1)], 0.0)

        return cls(fn=fn, label=f"box_mixture({weights.size} boxes)")


@lru_cache(maxsize=None)
def _gauss(points: int):
    require_dense(points * points, "quadrature rule")  # leggauss builds a points^2 matrix
    nodes, weights = np.polynomial.legendre.leggauss(int(points))
    return nodes, weights


def _cell_nodes(mesh: Mesh, points: int):
    """Quadrature nodes per cell, shape (cells, points), plus base weights."""
    nodes, weights = _gauss(points)
    edges = mesh.edges()
    left = edges[:-1][:, None]
    half = (mesh.cell_widths() / 2.0)[:, None]
    return left + half * (nodes[None, :] + 1.0), weights


def discretize(psi: WaveFunction, mesh: Mesh, quad_points: int = 16) -> DiscretizedState:
    """Project psi onto the mesh boxes by per-cell Gauss-Legendre averages.

    psi_k is the cell average of psi; remainder_sq = 1 - sum |psi_k|^2 dx_k
    carries the weight the boxes cannot represent.  Raises when the declared
    mesh misses more than COVERAGE_TOL of the density outright.
    """
    if quad_points < 2:
        raise ValueError("need at least two quadrature points per cell")
    xs, weights = _cell_nodes(mesh, quad_points)
    vals = psi(xs)
    # cell average: (1/w) * (w/2) sum g_i f(x_i) = (1/2) sum g_i f(x_i)
    psi_k = 0.5 * vals @ weights
    widths = mesh.cell_widths()
    mass_in_span = float(np.sum((np.abs(vals) ** 2 @ weights) * widths / 2.0))
    if 1.0 - mass_in_span > COVERAGE_TOL:
        raise ValueError(
            f"mesh covers only {mass_in_span:.6g} of the density "
            f"(tolerance {COVERAGE_TOL:g})"
        )
    captured = float(np.sum(np.abs(psi_k) ** 2 * widths))
    remainder_sq = 1.0 - captured
    if remainder_sq < REMAINDER_FLOOR:
        raise ValueError(f"captured weight {captured!r} exceeds the total norm")
    return DiscretizedState(
        psi_k=tuple(psi_k),
        mesh=mesh,
        remainder_sq=max(0.0, remainder_sq),
        quad_points=int(quad_points),
    )


def orthogonality_defect(psi: WaveFunction, d: DiscretizedState) -> float:
    """|<box part | remainder>| recomputed with independent quadrature.

    The box combination and the remainder are orthogonal by construction;
    this measures how far the actual quadrature is from that identity.
    """
    xs, weights = _cell_nodes(d.mesh, DEFECT_QUAD_POINTS)
    widths = d.mesh.cell_widths()
    integrals = (psi(xs) @ weights) * widths / 2.0   # integral of psi per cell
    psi_k = np.array(d.psi_k)
    captured = float(np.sum(np.abs(psi_k) ** 2 * widths))
    cross = np.sum(psi_k.conj() * integrals) - captured
    return float(abs(cross) / math.sqrt(captured))


def interval_probability(d: DiscretizedState, x1: float, x2: float) -> float:
    """Probability of landing in [x1, x2) at mesh resolution.

    Partial cells contribute proportionally to the overlapped length, an
    approximation relative to the boundary-aligned exact sum.
    """
    x1, x2 = float(x1), float(x2)
    if not x1 < x2:
        raise ValueError("need x1 < x2")
    edges = d.mesh.edges()
    slack = 1e-9 * max(1.0, abs(edges[0]), abs(edges[-1]))
    if x1 < edges[0] - slack or x2 > edges[-1] + slack:
        raise ValueError("interval extends outside the mesh")
    lo = np.clip(edges[:-1], x1, x2)
    hi = np.clip(edges[1:], x1, x2)
    dens = np.abs(np.array(d.psi_k)) ** 2
    return float(np.sum(dens * (hi - lo)))


def equal_mass_mesh(psi: WaveFunction, x0: float, x1: float, cells: int) -> Mesh:
    """Adaptive mesh whose cells carry roughly equal density mass.

    Inverts a trapezoid cumulative of |psi|^2 on a fine grid; one of the
    legitimate unequal-width discretizations, with no claim of optimality.
    """
    x0, x1 = float(x0), float(x1)
    if not x1 > x0:
        raise ValueError("need x0 < x1")
    if cells < 1:
        raise ValueError("need at least one cell")
    xs = np.linspace(x0, x1, MASS_GRID + 1)
    dens = np.abs(psi(xs)) ** 2
    steps = np.diff(xs) * (dens[:-1] + dens[1:]) / 2.0
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    if cdf[-1] <= 0:
        raise ValueError("density vanishes on the requested span")
    targets = cdf[-1] * np.arange(1, cells) / cells
    interior = np.interp(targets, cdf, xs)
    edges = np.concatenate(([x0], interior, [x1]))
    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise ValueError("density too concentrated for this many cells")
    return Mesh(x0, widths)


@dataclass(frozen=True)
class CellCountResult:
    """Counting-pipeline probabilities pushed back to absolute cell weights."""

    born: BornResult
    cell_probs: tuple     # per-cell absolute probabilities, sum 1 - remainder
    remainder_sq: float


def born_continuum(d: DiscretizedState, m_max: int = 10 ** 4) -> CellCountResult:
    """Run the cell amplitudes psi_k sqrt(dx_k) through the counting pipeline.

    The normalized cell amplitudes are the Schmidt coefficients of
    sum_k a_k |k>|e_k>; their nonzero moduli, in falling order (kept by
    ``born``), are counted, and rescaled by the captured weight the outputs
    must reproduce |psi_k|^2 dx_k within the rationalization error.
    """
    widths = d.mesh.cell_widths()
    c = np.array(d.psi_k) * np.sqrt(widths)
    captured = float(np.sum(np.abs(c) ** 2))
    if not captured > 0:
        raise ValueError("no weight captured by the mesh")
    mods = np.abs(c / math.sqrt(captured))
    order = np.argsort(-mods ** 2, kind="stable")
    order = order[mods[order] > 0]
    result = born_from_coefficients(mods[order], m_max)
    by_cell = np.zeros(mods.size)
    by_cell[order] = result.probs_float
    return CellCountResult(
        born=result,
        cell_probs=tuple(by_cell * captured),
        remainder_sq=d.remainder_sq,
    )


@dataclass(frozen=True)
class MeshRun:
    """What mesh_run found: the cell averages, their orthogonality_defect,
    the interval probability (None without an interval) and, with m_max,
    the counting route's result and its largest gap from |psi_k|^2 dx_k."""

    state: DiscretizedState
    defect: float
    interval_probability: float = None
    counting: CellCountResult = None
    max_gap: float = None


def mesh_run(psi: WaveFunction, x0: float, x1: float, dx: float = None,
             cells: int = None, quad_points: int = 16, interval=None,
             m_max: int = None) -> MeshRun:
    """Discretize psi on [x0, x1] and check the cells against the counting route.

    The mesh is uniform with width ``dx``, which must tile [x0, x1] evenly,
    or equal_mass_mesh's with ``cells`` cells.  ``interval`` is an (x1, x2)
    pair for interval_probability; ``m_max`` runs born_continuum.  Cells
    times quadrature points per cell are checked against the dense budget
    before the mesh is built.
    """
    adaptive = cells is not None
    if not adaptive:
        span = x1 - x0
        count = span / dx if dx > 0 else 0.0
        cells = int(round(count)) if math.isfinite(count) else 0
        if cells < 1 or abs(cells * dx - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("--dx must tile [x0, x1] evenly")
    require_dense(cells * max(quad_points, DEFECT_QUAD_POINTS), "mesh quadrature")
    mesh = equal_mass_mesh(psi, x0, x1, cells) if adaptive else Mesh.uniform(x0, dx, cells)
    d = discretize(psi, mesh, quad_points=quad_points)
    defect = orthogonality_defect(psi, d)
    p_interval = None
    if interval is not None:
        lo, hi = interval
        p_interval = interval_probability(d, lo, hi)
    if m_max is None:
        return MeshRun(d, defect, p_interval)
    counting = born_continuum(d, m_max=m_max)
    gap = float(np.max(np.abs(np.array(counting.cell_probs) - d.cell_probs())))
    return MeshRun(d, defect, p_interval, counting, gap)
