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

from .born import BornResult, born_from_coefficients

MAX_TRUNCATION_TERMS = 10_000
CONSERVATION_TOL = 1e-8
REMAINDER_FLOOR = -1e-6  # quadrature noise below this means the inputs lied


@dataclass(frozen=True)
class CoefficientSequence:
    """Amplitudes a_k (k >= 1) with unit total weight.

    Either a finite tuple of coefficients, or a lazy ``term(k)`` paired with
    an analytically known ``tail(n)`` = sum_{k>n} |a_k|^2 (which may return
    exact Fractions).
    """

    coeffs: tuple = None
    term: object = None
    tail: object = None

    def __post_init__(self):
        finite = self.coeffs is not None
        lazy = self.term is not None or self.tail is not None
        if finite == lazy:
            raise ValueError("give either a finite coefficient list or term+tail")
        if finite:
            coeffs = tuple(complex(a) for a in self.coeffs)
            if not coeffs:
                raise ValueError("need at least one coefficient")
            total = sum(abs(a) ** 2 for a in coeffs)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"squared coefficients sum to {total!r}, not 1")
            object.__setattr__(self, "coeffs", coeffs)
        elif self.term is None or self.tail is None:
            raise ValueError("lazy sequences need both term and tail")

    @classmethod
    def finite(cls, coeffs) -> "CoefficientSequence":
        return cls(coeffs=tuple(coeffs))

    @classmethod
    def analytic(cls, term, tail) -> "CoefficientSequence":
        return cls(term=term, tail=tail)

    @classmethod
    def geometric(cls, ratio) -> "CoefficientSequence":
        """|a_k|^2 = (1 - r) r^(k-1); exact tail r^n.  0 < r < 1."""
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie strictly between 0 and 1")
        return cls.analytic(
            term=lambda k: math.sqrt(float((1 - ratio) * ratio ** (k - 1))),
            tail=lambda n: ratio ** n,
        )

    def tail_weight(self, n: int):
        if self.coeffs is not None:
            if n >= len(self.coeffs):
                return 0.0
            head = sum(abs(a) ** 2 for a in self.coeffs[:n])
            return max(0.0, 1.0 - head)
        return self.tail(n)

    def amplitude(self, k: int) -> complex:
        if self.coeffs is not None:
            return self.coeffs[k - 1]
        return complex(self.term(k))


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
    limit = len(seq.coeffs) if seq.coeffs is not None else MAX_TRUNCATION_TERMS
    n = 0
    while seq.tail_weight(n) > budget:
        n += 1
        if n > limit:
            raise ValueError(
                f"tail still above budget after {limit} terms; "
                "sequence converges too slowly for this target"
            )
    delta_sq = seq.tail_weight(n)
    probs = np.array([abs(seq.amplitude(k)) ** 2 for k in range(1, n + 1)])
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
    """cells boxes starting at x0; uniform width dx unless widths is given."""

    x0: float
    dx: float
    cells: int
    widths: tuple = None

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("need at least one cell")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.widths is not None:
            widths = tuple(float(w) for w in self.widths)
            if len(widths) != self.cells:
                raise ValueError("one width per cell")
            if any(not w > 0 for w in widths):
                raise ValueError("widths must be positive")
            object.__setattr__(self, "widths", widths)

    @classmethod
    def uniform(cls, x0, dx, cells: int) -> "Mesh":
        return cls(x0=float(x0), dx=float(dx), cells=int(cells))

    @classmethod
    def adaptive(cls, x0, widths) -> "Mesh":
        widths = tuple(float(w) for w in widths)
        if not widths:
            raise ValueError("need at least one cell")
        # nominal dx kept as the mean width; per-cell widths govern everything
        return cls(x0=float(x0), dx=float(np.mean(widths)), cells=len(widths),
                   widths=widths)

    def cell_widths(self) -> np.ndarray:
        if self.widths is not None:
            return np.array(self.widths)
        return np.full(self.cells, self.dx)

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
    """Vectorized amplitude x -> psi(x); smooth=False marks inputs we refuse
    to discretize (fractal or otherwise irregular profiles)."""

    fn: object
    label: str
    smooth: bool = True

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=complex)

    @classmethod
    def gaussian(cls, center: float = 0.0, width: float = 1.0) -> "WaveFunction":
        """(pi w^2)^(-1/4) exp(-(x-c)^2 / (2 w^2)); unit norm on the line."""
        if not width > 0:
            raise ValueError("width must be positive")
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

    @classmethod
    def sampled(cls, xs, ys, smooth: bool = True) -> "WaveFunction":
        """Linear interpolation through sample points, zero outside them."""
        xs = np.array([float(x) for x in xs])
        ys = np.array([complex(y) for y in ys])
        if xs.size != ys.size or xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise ValueError("need ascending xs matching ys")

        def fn(x):
            re = np.interp(x, xs, ys.real, left=0.0, right=0.0)
            im = np.interp(x, xs, ys.imag, left=0.0, right=0.0)
            return re + 1j * im

        return cls(fn=fn, label=f"sampled({xs.size} points, linear)",
                   smooth=smooth)


@lru_cache(maxsize=None)
def _gauss(points: int):
    nodes, weights = np.polynomial.legendre.leggauss(int(points))
    return nodes, weights


def _cell_nodes(mesh: Mesh, points: int):
    """Quadrature nodes per cell, shape (cells, points), plus base weights."""
    nodes, weights = _gauss(points)
    edges = mesh.edges()
    left = edges[:-1][:, None]
    half = (mesh.cell_widths() / 2.0)[:, None]
    return left + half * (nodes[None, :] + 1.0), weights


def discretize(psi: WaveFunction, mesh: Mesh, quad_points: int = 16,
               coverage_tol: float = 1e-6) -> DiscretizedState:
    """Project psi onto the mesh boxes by per-cell Gauss-Legendre averages.

    psi_k is the cell average of psi; remainder_sq = 1 - sum |psi_k|^2 dx_k
    carries the weight the boxes cannot represent.  Raises when the declared
    mesh misses more than coverage_tol of the density outright.
    """
    if not psi.smooth:
        raise ValueError("input declared non-smooth; refusing to discretize")
    if quad_points < 2:
        raise ValueError("need at least two quadrature points per cell")
    xs, weights = _cell_nodes(mesh, quad_points)
    vals = psi(xs)
    # cell average: (1/w) * (w/2) sum g_i f(x_i) = (1/2) sum g_i f(x_i)
    psi_k = 0.5 * vals @ weights
    widths = mesh.cell_widths()
    mass_in_span = float(np.sum((np.abs(vals) ** 2 @ weights) * widths / 2.0))
    if 1.0 - mass_in_span > coverage_tol:
        raise ValueError(
            f"mesh covers only {mass_in_span:.6g} of the density "
            f"(tolerance {coverage_tol:g})"
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


def orthogonality_defect(psi: WaveFunction, d: DiscretizedState,
                         quad_points: int = 64) -> float:
    """|<box part | remainder>| recomputed with independent quadrature.

    The box combination and the remainder are orthogonal by construction;
    this measures how far the actual quadrature is from that identity.
    """
    xs, weights = _cell_nodes(d.mesh, quad_points)
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


def equal_mass_mesh(psi: WaveFunction, x0: float, x1: float, cells: int,
                    grid: int = 4096) -> Mesh:
    """Adaptive mesh whose cells carry roughly equal density mass.

    Inverts a trapezoid cumulative of |psi|^2 on a fine grid; one of the
    legitimate unequal-width discretizations, with no claim of optimality.
    """
    x0, x1 = float(x0), float(x1)
    if not x1 > x0:
        raise ValueError("need x0 < x1")
    if cells < 1:
        raise ValueError("need at least one cell")
    xs = np.linspace(x0, x1, int(grid) + 1)
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
    return Mesh.adaptive(x0, widths)


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
