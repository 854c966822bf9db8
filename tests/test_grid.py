import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from chbsim import grid as grid_module
from chbsim.grid import (Grid, NEUMANN, VectorField2, divergence,
                         flux_stiffness_matrix, laplacian_stiffness_form,
                         neumann_laplacian, symmetric_gradient)
from conftest import (FULL_DIRICHLET, MIXED, grids, make_grid, reference_neumann_laplacian,
                      smooth_phi)


def test_grid_geometry():
    g = make_grid(5, 9, lx=2.0, ly=1.0)
    assert g.hx == pytest.approx(0.5)
    assert g.hy == pytest.approx(0.125)
    assert g.n_nodes == 45
    x, y = g.coords()
    assert x[0] == 0.0 and x[4] == 2.0 and y[-1] == 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 8)
    with pytest.raises(ValueError):
        Grid(8, 8, -1.0, 1.0, dict(FULL_DIRICHLET))
    with pytest.raises(ValueError):
        Grid(8, 8, 1.0, 1.0, {"left": "bogus", "right": NEUMANN,
                              "bottom": NEUMANN, "top": NEUMANN})
    # at least one Dirichlet edge is required for solvability
    with pytest.raises(ValueError):
        Grid(8, 8, 1.0, 1.0, {e: NEUMANN for e in
                              ("left", "right", "bottom", "top")})


@pytest.mark.parametrize("field, value", [
    ("lx", np.nan), ("lx", np.inf), ("ly", np.nan), ("ly", -np.inf)])
def test_grid_rejects_non_finite_lengths_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"domain length {field} must be positive and finite"):
        make_grid(8, **{field: value})


def test_operator_cache_is_bounded_and_shared():
    """Many grid shapes keep at most OP_CACHE_SIZE operator sets alive; a
    repeated geometry (shape, lengths and edge tags) gets the cached
    operators, and a grid whose edge tags differ gets its own."""
    for k in range(50):
        Grid(4 + k, 5, 1.0, 1.0, dict(FULL_DIRICHLET)).dx_op
    assert grid_module._grid_ops.cache_info().currsize == grid_module.OP_CACHE_SIZE
    a = make_grid(6, 7, lx=2.0)
    b = make_grid(6, 7, lx=2.0, tags=MIXED)
    assert a.dx_op is make_grid(6, 7, lx=2.0).dx_op
    assert a.strain_op is make_grid(6, 7, lx=2.0).strain_op
    assert a.stiffness_gram is not b.stiffness_gram
    assert b.stiffness_gram is make_grid(6, 7, lx=2.0, tags=MIXED).stiffness_gram


def test_corner_nodes_resolve_to_dirichlet():
    g = make_grid(6, tags=MIXED)  # left/bottom Dirichlet, right/top Neumann
    mask = g.dirichlet_mask().reshape(6, 6)
    assert mask[0, 0] and mask[0, 5] and mask[5, 0]  # corners on a D edge
    assert not mask[5, 5]                            # pure Neumann corner
    assert mask[0, :].all() and mask[:, 0].all()
    assert not mask[3, 5] and not mask[5, 3]


def test_quadrature_integrates_exactly():
    g = make_grid(9, 7, lx=2.0, ly=3.0)
    w = g.quad_weights()
    assert w.sum() == pytest.approx(6.0, rel=1e-13)
    x, y = g.coords()
    # trapezoid rule is exact for bilinear integrands
    # exact: 6 + 2*6 + 3*9 + 9 for the domain [0,2]x[0,3]
    assert g.integrate(1.0 + 2.0 * x + 3.0 * y + x * y) == pytest.approx(
        54.0, rel=1e-12)


def test_symmetric_gradient_affine_fields():
    g = make_grid(8, tags=MIXED)
    x, y = g.coords()
    e = symmetric_gradient(VectorField2(g, x, y))          # u = (x, y)
    assert np.allclose(e.xx, 1.0, atol=1e-12)
    assert np.allclose(e.yy, 1.0, atol=1e-12)
    assert np.allclose(e.xy, 0.0, atol=1e-12)
    rot = symmetric_gradient(VectorField2(g, -y, x))       # rigid rotation
    assert np.allclose(rot.xx, 0.0, atol=1e-12)
    assert np.allclose(rot.yy, 0.0, atol=1e-12)
    assert np.allclose(rot.xy, 0.0, atol=1e-12)
    zero = symmetric_gradient(VectorField2.zero(g))
    assert np.allclose(zero.xx, 0.0) and np.allclose(zero.xy, 0.0)


def test_divergence_is_trace_of_strain():
    g = make_grid(8)
    rng = np.random.default_rng(3)
    u = VectorField2(g, rng.standard_normal(g.n_nodes),
                     rng.standard_normal(g.n_nodes))
    e = symmetric_gradient(u)
    assert np.array_equal(divergence(u), e.xx + e.yy)
    assert np.allclose(divergence(VectorField2(g, *g.coords())), 2.0, atol=1e-12)


def test_neumann_laplacian_constants_in_kernel():
    g = make_grid(9, tags=MIXED)
    out = neumann_laplacian(g, np.full(g.n_nodes, 5.0), np.full(g.n_nodes, 3.0))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_neumann_laplacian_rejects_nonpositive_coefficient():
    g = make_grid(8)
    f = np.ones(g.n_nodes)
    with pytest.raises(ValueError):
        neumann_laplacian(g, f, np.full(g.n_nodes, -1.0))
    with pytest.raises(ValueError):
        neumann_laplacian(g, f, 0.0)


def test_neumann_laplacian_interior_accuracy():
    g = make_grid(64, tags=MIXED)
    x, _ = g.coords()
    out = neumann_laplacian(g, np.cos(np.pi * x), np.ones(g.n_nodes))
    exact = -np.pi**2 * np.cos(np.pi * x)
    h2 = g.hx**2
    assert np.max(np.abs(out - exact)) <= 10.0 * np.pi**4 * h2


def test_neumann_laplacian_second_order_convergence():
    errs = []
    for n in (16, 32, 64):
        g = make_grid(n)
        x, y = g.coords()
        f = np.cos(np.pi * x) * np.cos(np.pi * y)
        out = neumann_laplacian(g, f, np.ones(g.n_nodes))
        exact = -2.0 * np.pi**2 * f
        w = g.quad_weights()
        errs.append(np.sqrt(np.dot(w, (out - exact) ** 2)))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_flux_matrix_matches_matrix_free_application():
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.n_nodes)
    coeff = 1.0 + 0.5 * smooth_phi(g, rng) ** 2
    b = flux_stiffness_matrix(g, coeff)
    w = g.quad_weights()
    via_matrix = -(b @ f) / w
    ref = reference_neumann_laplacian(g, f, coeff)
    assert np.max(np.abs(via_matrix - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_flux_matrix_conservation_and_symmetry():
    """B is symmetric PSD with kernel = constants; W-weighted form of the
    zero-flux Laplacian (row sums and column sums vanish identically)."""
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(1)
    coeff = 1.0 + smooth_phi(g, rng) ** 2
    b = flux_stiffness_matrix(g, coeff).toarray()
    ones = np.ones(g.n_nodes)
    assert np.max(np.abs(b - b.T)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(b @ ones)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(ones @ b)) <= 1e-12 * np.max(np.abs(b))
    eigs = np.linalg.eigvalsh(b)
    assert eigs.min() >= -1e-10 * eigs.max()


def test_gradient_exact_on_affine():
    g = make_grid(8, lx=2.0)
    x, y = g.coords()
    f = 2.0 * x - 3.0 * y + 1.0
    assert np.allclose(g.dx_op @ f, 2.0, atol=1e-12)
    assert np.allclose(g.dy_op @ f, -3.0, atol=1e-12)


# --- properties over random grid shapes ----------------------------------


@st.composite
def laplacian_cases(draw):
    """A grid, a field f and a positive nodal coefficient on it."""
    g = draw(grids())
    f = draw(arrays(float, g.n_nodes, elements=st.floats(-10.0, 10.0)))
    coeff = draw(arrays(float, g.n_nodes, elements=st.floats(0.1, 10.0)))
    return g, f, coeff


@settings(deadline=None)
@given(laplacian_cases())
def test_laplacian_apply_and_matrix_match_reference_stencil(case):
    """neumann_laplacian(f, c) = -B f / w = the independent stencil."""
    g, f, coeff = case
    w = g.quad_weights()
    b = flux_stiffness_matrix(g, coeff)
    ref = reference_neumann_laplacian(g, f, coeff)
    # round-off scale: the size of the stencil terms that cancel in L f
    tol = 1e-13 * max(1.0, np.max(abs(b) @ np.abs(f) / w))
    assert np.max(np.abs(neumann_laplacian(g, f, coeff) - ref)) <= tol
    assert np.max(np.abs(-(b @ f) / w - ref)) <= tol


@settings(deadline=None)
@given(laplacian_cases())
def test_laplacian_energy_identity_symmetry_and_conservation(case):
    """f'Bf = laplacian_stiffness_form(f) = <f, -L f>_W against the
    reference stencil; B is symmetric with B 1 = 0; the weighted mean of
    L f vanishes."""
    g, f, coeff = case
    w = g.quad_weights()
    b = flux_stiffness_matrix(g, coeff)
    terms = abs(b) @ np.abs(f)      # size of the terms that cancel
    quad = float(f @ (b @ f))
    ref_form = -float(np.dot(w * f, reference_neumann_laplacian(g, f, coeff)))
    tol = 1e-13 * max(1.0, float(np.abs(f) @ terms))
    assert abs(quad - ref_form) <= tol
    assert abs(laplacian_stiffness_form(g, f, coeff) - ref_form) <= tol
    bmax = abs(b).max()
    assert abs(b - b.T).max() == 0.0
    assert np.max(np.abs(b @ np.ones(g.n_nodes))) <= 1e-14 * bmax
    lap = neumann_laplacian(g, f, coeff)
    assert abs(np.dot(w, lap)) <= 1e-13 * max(1.0, float(np.sum(terms)))


@settings(deadline=None)
@given(grids(), st.integers(0, 2**32 - 1))
def test_first_derivative_summation_by_parts(g, seed):
    """Discrete Gauss identity: sum w (df) g + sum w f (dg) = boundary flux.

    Holds exactly for the derivative pair, in x and in y, which is what
    makes constant sources produce exactly balanced interior forces."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n_nodes)
    v = rng.standard_normal(g.n_nodes)
    w = g.quad_weights()
    f2 = f.reshape(g.ny, g.nx)
    v2 = v.reshape(g.ny, g.nx)
    tx = np.ones(g.nx)
    tx[0] = tx[-1] = 0.5
    ty = np.ones(g.ny)
    ty[0] = ty[-1] = 0.5
    lhs_x = np.dot(w, (g.dx_op @ f) * v) + np.dot(w, f * (g.dx_op @ v))
    bnd_x = g.hy * np.dot(ty, f2[:, -1] * v2[:, -1] - f2[:, 0] * v2[:, 0])
    lhs_y = np.dot(w, (g.dy_op @ f) * v) + np.dot(w, f * (g.dy_op @ v))
    bnd_y = g.hx * np.dot(tx, f2[-1, :] * v2[-1, :] - f2[0, :] * v2[0, :])
    scale = g.lx * g.ly * np.max(np.abs(f)) * np.max(np.abs(v)) + 1.0
    assert lhs_x == pytest.approx(bnd_x, abs=1e-12 * scale)
    assert lhs_y == pytest.approx(bnd_y, abs=1e-12 * scale)
