import math
from fractions import Fraction

import numpy as np
import pytest

from envlab.continuum import (
    CoefficientSequence,
    DiscretizedState,
    Mesh,
    WaveFunction,
    born_continuum,
    discretize,
    equal_mass_mesh,
    interval_probability,
    orthogonality_defect,
    truncate,
)

GAUSS = WaveFunction.gaussian()


def quad_mass(psi, a, b, points=64):
    # independent reference integral of |psi|^2 over [a, b]
    nodes, weights = np.polynomial.legendre.leggauss(points)
    half = (b - a) / 2.0
    xs = a + half * (nodes + 1.0)
    return float(np.sum(np.abs(psi(xs)) ** 2 * weights) * half)


def test_sequence_validation():
    with pytest.raises(ValueError, match="sum"):
        CoefficientSequence.finite([0.5, 0.5])
    with pytest.raises(ValueError, match="finite coefficient list or term"):
        CoefficientSequence()
    with pytest.raises(ValueError, match="finite coefficient list or term"):
        CoefficientSequence(coeffs=(1.0,), term=lambda k: 0.0, tail=lambda n: 0.0)
    with pytest.raises(ValueError, match="both term and tail"):
        CoefficientSequence(term=lambda k: 0.0)
    with pytest.raises(ValueError, match="ratio"):
        CoefficientSequence.geometric(1)


def test_truncate_geometric_half():
    seq = CoefficientSequence.geometric(Fraction(1, 2))
    # independent partial summation: accumulate 2^-k until the tail fits 0.01
    head, k = Fraction(0), 0
    while 1 - head > Fraction(1, 100):
        k += 1
        head += Fraction(1, 2 ** k)
    assert k == 7

    cut = truncate(seq, Fraction(1, 10))
    assert cut.n_delta == 7
    assert cut.delta_sq == Fraction(1, 128)
    for i, p in enumerate(cut.probs, start=1):
        assert p == pytest.approx(2.0 ** -i, abs=1e-15)
    assert sum(cut.conditional_probs) == pytest.approx(1.0, abs=1e-12)
    # one step looser budget stops one term earlier
    assert truncate(seq, math.sqrt(2.0 ** -6)).n_delta == 6


def test_truncate_finite_list():
    seq = CoefficientSequence.finite(
        [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)])
    cut = truncate(seq, 1e-8)
    assert cut.n_delta == 3
    assert cut.delta_sq == 0.0
    assert cut.conditional_probs == pytest.approx(cut.probs)

    partial = truncate(seq, 0.5)  # budget 0.25: drop only the 0.2 tail
    assert partial.n_delta == 2
    assert partial.delta_sq == pytest.approx(0.2, abs=1e-12)
    assert partial.conditional_probs == pytest.approx((0.625, 0.375), abs=1e-12)
    assert sum(partial.conditional_probs) == pytest.approx(1.0, abs=1e-12)


def test_truncate_validation():
    seq = CoefficientSequence.finite([1.0])
    with pytest.raises(ValueError, match="strictly between"):
        truncate(seq, 0)
    with pytest.raises(ValueError, match="strictly between"):
        truncate(seq, 1)
    stuck = CoefficientSequence.analytic(
        term=lambda k: 0.0, tail=lambda n: 0.5)
    with pytest.raises(ValueError, match="converges too slowly"):
        truncate(stuck, 0.1)


def test_mesh_validation():
    with pytest.raises(ValueError, match="cell"):
        Mesh.uniform(0.0, 0.5, 0)
    with pytest.raises(ValueError, match="dx"):
        Mesh(x0=0.0, dx=0.0, cells=4)
    with pytest.raises(ValueError, match="width per cell"):
        Mesh(x0=0.0, dx=1.0, cells=3, widths=(1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        Mesh.adaptive(0.0, (1.0, 0.0))
    mesh = Mesh.uniform(-1.0, 0.5, 4)
    assert np.allclose(mesh.edges(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    adaptive = Mesh.adaptive(0.0, (0.5, 1.5))
    assert np.allclose(adaptive.edges(), [0.0, 0.5, 2.0])
    assert adaptive.dx == pytest.approx(1.0)


def test_discretize_uniform_density_is_exact():
    psi = WaveFunction.uniform(0.0, 1.0)
    d = discretize(psi, Mesh.uniform(0.0, 0.25, 4))
    assert np.allclose(d.psi_k, np.ones(4), atol=1e-12)
    assert d.remainder_sq <= 1e-12
    assert np.allclose(d.cell_probs(), 0.25, atol=1e-12)


def test_discretize_remainder_shrinks_as_cells_halve():
    remainders = []
    for dx in (0.5, 0.25, 0.125):
        d = discretize(GAUSS, Mesh.uniform(-8.0, dx, int(round(16 / dx))))
        assert d.remainder_sq > 0
        remainders.append(d.remainder_sq)
    assert remainders[0] > remainders[1] > remainders[2]
    # cell averaging loses O(dx^2) of the norm, so halving gains about 4x
    assert remainders[1] < remainders[0] / 3
    assert remainders[2] < remainders[1] / 3


def test_discretize_coverage_and_smoothness_errors():
    with pytest.raises(ValueError, match="covers only"):
        discretize(GAUSS, Mesh.uniform(0.0, 0.25, 8))
    rough = WaveFunction(fn=lambda x: np.ones_like(x), label="rough",
                         smooth=False)
    with pytest.raises(ValueError, match="non-smooth"):
        discretize(rough, Mesh.uniform(0.0, 0.25, 4))
    with pytest.raises(ValueError, match="quadrature points"):
        discretize(GAUSS, Mesh.uniform(-8.0, 0.5, 32), quad_points=1)


def test_box_part_orthogonal_to_remainder():
    for dx in (0.5, 0.125):
        d = discretize(GAUSS, Mesh.uniform(-8.0, dx, int(round(16 / dx))))
        assert orthogonality_defect(GAUSS, d, quad_points=64) <= 1e-8


def test_conservation_across_schemes():
    cases = [
        (GAUSS, Mesh.uniform(-8.0, 0.5, 32)),
        (GAUSS, equal_mass_mesh(GAUSS, -8.0, 8.0, 48)),
        (WaveFunction.box_mixture((0.0, 0.25, 0.5, 1.0), (0.2, 0.5, 0.3)),
         Mesh.uniform(0.0, 0.25, 4)),
    ]
    for psi, mesh in cases:
        d = discretize(psi, mesh)
        total = float(np.sum(d.cell_probs())) + d.remainder_sq
        assert total == pytest.approx(1.0, abs=1e-8)
        whole = interval_probability(d, mesh.edges()[0], mesh.edges()[-1])
        assert whole == pytest.approx(1.0 - d.remainder_sq, abs=1e-12)


def test_discretized_state_validation():
    mesh = Mesh.uniform(0.0, 0.5, 2)
    with pytest.raises(ValueError, match="unit norm"):
        DiscretizedState(psi_k=(1.0, 1.0), mesh=mesh, remainder_sq=0.5)
    with pytest.raises(ValueError, match="negative"):
        DiscretizedState(psi_k=(1.0, 1.0), mesh=mesh, remainder_sq=-0.1)


def test_interval_probability_matches_error_function():
    d = discretize(GAUSS, Mesh.uniform(-8.0, 1e-3, 16000))
    p = interval_probability(d, -1.0, 1.0)
    assert abs(p - math.erf(1.0)) <= 1e-3


def test_interval_partial_cells_split_proportionally():
    psi = WaveFunction.uniform(0.0, 1.0)
    d = discretize(psi, Mesh.uniform(0.0, 0.25, 4))
    # density is exactly 1, so any sub-interval just measures its length
    assert interval_probability(d, 0.1, 0.35) == pytest.approx(0.25, abs=1e-12)
    eps = 0.01
    assert interval_probability(d, 0.3, 0.3 + eps) == pytest.approx(eps, abs=1e-12)
    left = interval_probability(d, 0.0, 0.3)
    right = interval_probability(d, 0.3, 0.7)
    assert left + right == pytest.approx(interval_probability(d, 0.0, 0.7),
                                         abs=1e-12)


def test_interval_validation():
    d = discretize(GAUSS, Mesh.uniform(-8.0, 0.5, 32))
    with pytest.raises(ValueError, match="x1 < x2"):
        interval_probability(d, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside the mesh"):
        interval_probability(d, -9.0, 0.0)
    with pytest.raises(ValueError, match="outside the mesh"):
        interval_probability(d, 0.0, 8.5)


def test_refinement_keeps_aligned_intervals():
    psi = WaveFunction.box_mixture((0.0, 0.25, 0.5, 1.0), (0.2, 0.5, 0.3))
    coarse = discretize(psi, Mesh.uniform(0.0, 0.25, 4))
    fine = discretize(psi, Mesh.uniform(0.0, 0.125, 8))
    assert coarse.remainder_sq <= 1e-12
    assert fine.remainder_sq <= 1e-12
    for a, b in ((0.0, 0.5), (0.25, 1.0), (0.0, 1.0)):
        assert interval_probability(coarse, a, b) == pytest.approx(
            interval_probability(fine, a, b), abs=1e-12)
    assert interval_probability(coarse, 0.0, 0.5) == pytest.approx(0.7, abs=1e-12)


def test_interval_error_shrinks_at_least_linearly():
    dxs = (0.25, 0.125, 0.0625, 0.03125)
    errors = []
    for dx in dxs:
        d = discretize(GAUSS, Mesh.uniform(-8.0, dx, int(round(16 / dx))))
        errors.append(abs(interval_probability(d, -1.0, 1.0) - math.erf(1.0)))
    slope = np.polyfit(np.log(dxs), np.log(errors), 1)[0]
    assert slope >= 0.9


def test_equal_mass_mesh_balances_cells():
    mesh = equal_mass_mesh(GAUSS, -8.0, 8.0, 64)
    assert mesh.cells == 64
    assert np.all(np.array(mesh.widths) > 0)
    assert mesh.edges()[-1] == pytest.approx(8.0, abs=1e-9)
    edges = mesh.edges()
    masses = np.array([
        quad_mass(GAUSS, edges[k], edges[k + 1]) for k in range(64)
    ])
    assert masses.max() / masses.min() <= 1.01
    with pytest.raises(ValueError, match="x0 < x1"):
        equal_mass_mesh(GAUSS, 1.0, -1.0, 8)
    with pytest.raises(ValueError, match="vanishes"):
        equal_mass_mesh(WaveFunction.uniform(0.0, 1.0), 2.0, 3.0, 4)


def test_uniform_and_adaptive_schemes_agree():
    du = discretize(GAUSS, Mesh.uniform(-8.0, 0.125, 128))
    da = discretize(GAUSS, equal_mass_mesh(GAUSS, -8.0, 8.0, 128))
    pu = interval_probability(du, -1.0, 1.0)
    pa = interval_probability(da, -1.0, 1.0)
    assert abs(pu - math.erf(1.0)) <= 1e-3
    assert abs(pa - math.erf(1.0)) <= 1e-3
    assert abs(pu - pa) <= 1e-3


def test_cell_counting_uniform_four_cells():
    psi = WaveFunction.uniform(0.0, 1.0)
    d = discretize(psi, Mesh.uniform(0.0, 0.25, 4))
    res = born_continuum(d, m_max=64)
    assert res.born.probs_exact == (Fraction(1, 4),) * 4
    assert res.cell_probs == pytest.approx((0.25,) * 4, abs=1e-12)
    assert res.remainder_sq <= 1e-12


def test_cell_counting_two_cell_asymmetric():
    psi = WaveFunction.box_mixture((0.0, 1.0, 2.0), (0.2, 0.8))
    d = discretize(psi, Mesh.uniform(0.0, 1.0, 2))
    res = born_continuum(d, m_max=100)
    assert res.born.probs_exact == (Fraction(4, 5), Fraction(1, 5))
    assert res.cell_probs == pytest.approx((0.2, 0.8), abs=1e-10)


def test_cell_counting_gaussian_matches_density():
    d = discretize(GAUSS, Mesh.uniform(-8.25, 0.5, 33))
    res = born_continuum(d, m_max=10 ** 4)
    direct = d.cell_probs()
    gap = np.max(np.abs(np.array(res.cell_probs) - direct))
    assert gap <= res.born.rationalization_error + 1e-9
    # the one-cell floors on ~20 negligible cells crowd out the bulk, so the
    # best reachable max deviation sits near 2e-4 at this cap, not below 1e-4
    assert gap <= 3e-4
    assert sum(res.cell_probs) == pytest.approx(1.0 - d.remainder_sq, abs=1e-9)


def test_cell_counting_error_propagates():
    psi = WaveFunction.uniform(0.0, 1.0)
    d = discretize(psi, Mesh.uniform(0.0, 0.25, 4))
    with pytest.raises(ValueError):
        born_continuum(d, m_max=3)
    # a non-finite cell amplitude slips past the conservation check (nan
    # compares false) and must not reach the counting pipeline
    lost = DiscretizedState((math.nan, 1.0), Mesh.uniform(0.0, 1.0, 2), 0.0)
    with pytest.raises(ValueError, match="no weight captured"):
        born_continuum(lost, m_max=3)
