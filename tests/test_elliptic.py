import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from chbsim.elliptic import (AUGMENTED, PLAIN, VISCO, DirectSolver,
                             EllipticProblem, SolverFailure,
                             conjugate_gradient, solve_elasticity)
from chbsim.grid import (DIRICHLET, EDGES, NEUMANN, OP_CACHE_SIZE, _grid_ops,
                         flux_stiffness_matrix)
from conftest import (EDGE_TAGS, FULL_DIRICHLET, MIXED, dense_reference_stiffness, make_grid,
                      make_material, reference_clamped, reference_gram_stiffness,
                      reference_stiffness_apply, smooth_phi)


def test_cg_identity_and_zero_rhs():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(30)
    x, rep = conjugate_gradient(lambda v: v, b)
    assert np.allclose(x, b, atol=1e-12)
    x0, _ = conjugate_gradient(lambda v: v, np.zeros(30))
    assert np.array_equal(x0, np.zeros(30))


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((25, 25))
    a = a @ a.T + 25 * np.eye(25)
    b = rng.standard_normal(25)
    inv_diag = 1.0 / np.diag(a)
    x, rep = conjugate_gradient(lambda v: a @ v, b, precondition=lambda r: inv_diag * r,
                                tol=1e-12)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)
    assert rep.iterations <= 25 + 5


def test_cg_failure_reports_residuals():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    a = a @ a.T + 1e-3 * np.eye(40)
    with pytest.raises(SolverFailure) as exc:
        conjugate_gradient(lambda v: a @ v, rng.standard_normal(40),
                           tol=1e-14, maxiter=3)
    assert len(exc.value.residuals) > 0


def test_cg_rejects_what_is_not_spd_or_not_finite():
    """CG raises at the first inner product that an SPD operator and an
    SPD preconditioner with finite values keep positive: r'z for a
    negated preconditioner, p'Ap for a negated operator, and either one
    once a value is non-finite."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 20))
    a = a @ a.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    cases = [(lambda v: a @ v, lambda r: -r, "preconditioner not positive definite"),
             (lambda v: -(a @ v), None, "operator not positive definite"),
             (lambda v: np.full_like(v, np.nan), None, "non-finite value")]
    for apply_a, precondition, message in cases:
        with pytest.raises(SolverFailure, match=message) as exc:
            conjugate_gradient(apply_a, b, precondition=precondition, maxiter=10**9)
        assert len(exc.value.residuals) == 1


def test_scalar_helmholtz_keeps_constants():
    g = make_grid(8, tags=MIXED)
    b = flux_stiffness_matrix(g, 1.0)
    w = g.quad_weights()
    dt = 1e-2

    def apply_a(v):
        return w * v + dt * (b @ v)

    c = 3.7 * np.ones(g.n_nodes)
    inv_diag = 1.0 / (w + dt * b.diagonal())
    x, _ = conjugate_gradient(apply_a, w * c, precondition=lambda r: inv_diag * r, tol=1e-12)
    assert np.allclose(x, c, atol=1e-10)


def test_elasticity_zero_rhs_gives_zero():
    g = make_grid(8)
    m = make_material()
    prob = EllipticProblem(g, m, np.zeros(g.n_nodes))
    u, rep = solve_elasticity(prob, (np.zeros(g.n_nodes), np.zeros(g.n_nodes)))
    assert np.allclose(u.ux, 0.0) and np.allclose(u.uy, 0.0)


@pytest.mark.parametrize("variant", [PLAIN, AUGMENTED, VISCO])
def test_stiffness_symmetry_and_coercivity(variant):
    g = make_grid(8)
    m = make_material(rho=1)
    rng = np.random.default_rng(3)
    phi = smooth_phi(g, rng)
    prob = EllipticProblem(g, m, phi, variant=variant)
    n = g.n_nodes
    for _ in range(5):
        v = rng.standard_normal(2 * n)
        w = rng.standard_normal(2 * n)
        kvx, kvy = reference_stiffness_apply(prob, v[:n], v[n:])
        kwx, kwy = reference_stiffness_apply(prob, w[:n], w[n:])
        a = np.dot(np.concatenate([kvx, kvy]), w)
        b = np.dot(v, np.concatenate([kwx, kwy]))
        scale = max(1.0, abs(a))
        assert abs(a - b) <= 1e-10 * scale
    mat = dense_reference_stiffness(prob)
    free = np.tile(~g.dirichlet_mask(), 2)
    sub = mat[np.ix_(free, free)]
    eigs = scipy.linalg.eigvalsh(0.5 * (sub + sub.T))
    assert eigs.min() > 0.0


@pytest.mark.parametrize("tags", [MIXED, FULL_DIRICHLET], ids=["mixed", "clamped"])
@pytest.mark.parametrize("variant, shift", [(PLAIN, 0.0), (AUGMENTED, 0.0), (VISCO, 0.3)])
def test_assembled_stiffness_matches_matrix_free_apply(variant, shift, tags):
    g = make_grid(7, 9, tags=tags)
    m = make_material(rho=1)
    phi = smooth_phi(g, np.random.default_rng(12))
    prob = EllipticProblem(g, m, phi, variant=variant, scale=2.0, shift=shift)
    free = np.tile(~g.dirichlet_mask(), 2)
    want = dense_reference_stiffness(prob)[np.ix_(free, free)]
    got = prob.stiffness_matrix().toarray()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # apply() is that matrix's product; Dirichlet input entries are ignored
    n = g.n_nodes
    v = np.random.default_rng(13).standard_normal(2 * n)
    got_kv = np.concatenate(prob.apply(v[:n], v[n:]))
    want_kv = np.concatenate(reference_stiffness_apply(prob, v[:n], v[n:]))
    assert np.max(np.abs(got_kv - want_kv)) <= 1e-12 * np.max(np.abs(want_kv))


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), lx=st.floats(0.5, 2.0),
       ly=st.floats(0.5, 2.0), tags=EDGE_TAGS,
       variant=st.sampled_from([(PLAIN, 0.0), (AUGMENTED, 0.0), (VISCO, 0.3)]),
       uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cached_gram_stiffness_matches_the_gram_product(nx, ny, lx, ly, tags, variant,
                                                        uniform, seed):
    """The stiffness assembled through the cached Gram map matches the
    weighted Gram product E_f' diag(weight) E_f formed directly, to
    round-off; its pattern may add to the product's only entries that
    are exact zeros (a uniform phase makes some entries cancel).  The
    grid's cached layout is read-only: weights summing to lx ly, a node
    clamped iff it lies on a Dirichlet edge, and the free dofs of the
    stacked free mask."""
    g = make_grid(nx, ny, tags=tags, lx=lx, ly=ly)
    w, clamped, free_dofs = g.quad_weights(), g.dirichlet_mask(), g.free_dofs
    assert not any(a.flags.writeable for a in (w, clamped, free_dofs))
    assert w.sum() == pytest.approx(lx * ly, rel=1e-13)
    assert np.array_equal(clamped, reference_clamped(g))
    assert np.array_equal(free_dofs, np.flatnonzero(np.concatenate([~clamped, ~clamped])))
    m = make_material(rho=1)
    rng = np.random.default_rng(seed)
    phi = np.full(g.n_nodes, rng.uniform(-1, 1)) if uniform else smooth_phi(g, rng)
    prob = EllipticProblem(g, m, phi, variant=variant[0], scale=2.0, shift=variant[1])
    got = prob.stiffness_matrix()
    want = reference_gram_stiffness(prob)
    assert got.shape == want.shape
    assert abs(got - want).max() <= 1e-14 * abs(want).max()
    stored = np.zeros(got.shape, dtype=bool)
    stored[want.nonzero()] = True
    assert np.all(got.toarray()[~stored] == 0.0)


def test_gram_map_cache_is_bounded_and_keyed_by_edge_tags():
    """Two grids of one shape whose clamped edges differ get their own
    map, each matching its own Gram product; a grid of equal geometry
    shares the cached map; the cache holds at most OP_CACHE_SIZE grids."""
    m = make_material()
    tags = [{e: NEUMANN for e in EDGES} for _ in range(2)]
    tags[0]["left"] = tags[1]["right"] = DIRICHLET
    _grid_ops.cache_clear()
    grids = [make_grid(6, 7, tags=t) for t in tags]
    for g in grids:
        prob = EllipticProblem(g, m, smooth_phi(g, np.random.default_rng(0)))
        want = reference_gram_stiffness(prob)
        assert abs(prob.stiffness_matrix() - want).max() <= 1e-14 * abs(want).max()
    assert not np.array_equal(grids[0].dirichlet_mask(), grids[1].dirichlet_mask())
    assert grids[0].stiffness_gram is not grids[1].stiffness_gram
    assert make_grid(6, 7, tags=tags[0]).stiffness_gram is grids[0].stiffness_gram
    assert _grid_ops.cache_info().currsize == 2
    for n in range(4, 6 + OP_CACHE_SIZE):
        g = make_grid(n, tags=MIXED)
        EllipticProblem(g, m, np.zeros(g.n_nodes)).stiffness_matrix()
    assert _grid_ops.cache_info().currsize == OP_CACHE_SIZE


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12),
       variant=st.sampled_from([PLAIN, AUGMENTED, VISCO]),
       mixed=st.booleans(), delta=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1))
def test_reference_preconditioned_solve_matches_direct_solve(nx, ny, variant, mixed,
                                                             delta, seed):
    """CG preconditioned by the factor at phi0 solves the problem at phi,
    |phi - phi0| <= 0.1, as accurately as a fresh factorization, and never
    factors the problem at phi."""
    g = make_grid(nx, ny, tags=MIXED if mixed else FULL_DIRICHLET)
    m = make_material(rho=1)
    rng = np.random.default_rng(seed)
    phi0 = smooth_phi(g, rng)
    phi = phi0 + smooth_phi(g, rng, amp=delta)
    reference = EllipticProblem(g, m, phi0, variant=variant, scale=2.0)
    prob = EllipticProblem(g, m, phi, variant=variant, scale=2.0, reference=reference)
    b = np.zeros(2 * g.n_nodes)
    b[g.free_dofs] = rng.standard_normal(g.free_dofs.size)
    x, report = prob.solve(b)
    want, _ = EllipticProblem(g, m, phi, variant=variant, scale=2.0).solve(b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    assert report.iterations <= 30
    assert prob._solver is None


def test_reference_needs_same_grid_and_variant():
    g = make_grid(6, tags=MIXED)
    m = make_material()
    phi = np.zeros(g.n_nodes)
    with pytest.raises(ValueError):
        EllipticProblem(g, m, phi, variant=AUGMENTED,
                        reference=EllipticProblem(g, m, phi, variant=PLAIN))
    with pytest.raises(ValueError):
        EllipticProblem(g, m, phi, reference=EllipticProblem(make_grid(6), m, phi))


def test_direct_solves_fail_fast_on_non_finite_values():
    g = make_grid(8, tags=MIXED)
    prob = EllipticProblem(g, make_material(), np.zeros(g.n_nodes))
    bad = np.zeros(g.n_nodes)
    bad[3 * g.nx + 3] = np.nan    # an interior (free) node
    with pytest.raises(SolverFailure):
        solve_elasticity(prob, (bad, np.zeros(g.n_nodes)))
    with pytest.raises(SolverFailure) as exc:
        conjugate_gradient(lambda v: v, bad, maxiter=10**9)
    assert len(exc.value.residuals) == 1
    singular = np.eye(4)
    singular[2, 2] = 0.0
    with pytest.raises(SolverFailure):
        DirectSolver(singular)


def test_elasticity_matches_dense_direct_solve():
    g = make_grid(8)
    m = make_material()
    rng = np.random.default_rng(4)
    phi = smooth_phi(g, rng)
    prob = EllipticProblem(g, m, phi)
    n = g.n_nodes
    rhs = rng.standard_normal(2 * n)
    free = np.tile(~g.dirichlet_mask(), 2)
    rhs[~free] = 0.0
    u, _ = solve_elasticity(prob, (rhs[:n], rhs[n:]))
    mat = dense_reference_stiffness(prob)
    sub = mat[np.ix_(free, free)]
    x = np.zeros(2 * n)
    x[free] = scipy.linalg.solve(sub, rhs[free], assume_a="sym")
    got = np.concatenate([u.ux, u.uy])
    assert np.max(np.abs(got - x)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def test_elasticity_mms_order():
    from chbsim.diagnostics import elasticity_mms
    _, orders = elasticity_mms(ns=(16, 32, 64))
    assert float(np.mean(orders)) >= 1.8


def test_inverse_norm_bracket_over_random_phases():
    """||K(phi)^-1|| stays within the bracket set by the Lame endpoint
    stiffnesses, uniformly over random phases with |phi| <= 1."""
    g = make_grid(8)
    m = make_material(lam_a=1.0, lam_b=2.0, mu_a=1.0, mu_b=2.0)
    lo = EllipticProblem(g, m, np.full(g.n_nodes, -50.0))   # soft endpoint
    hi = EllipticProblem(g, m, np.full(g.n_nodes, 50.0))    # stiff endpoint
    free = np.tile(~g.dirichlet_mask(), 2)

    def min_max_eig(problem):
        mat = dense_reference_stiffness(problem)
        sub = mat[np.ix_(free, free)]
        e = scipy.linalg.eigvalsh(0.5 * (sub + sub.T))
        return e[0], e[-1]

    lam_lo, _ = min_max_eig(lo)
    _, lam_hi = min_max_eig(hi)
    inv_hi = 1.0 / lam_lo     # upper bound on ||K^-1||
    inv_lo = 1.0 / lam_hi     # lower bound
    rng = np.random.default_rng(5)
    for _ in range(20):
        phi = smooth_phi(g, rng, amp=1.0)
        assert np.max(np.abs(phi)) <= 1.0
        e_min, e_max = min_max_eig(EllipticProblem(g, m, phi))
        inv_norm = 1.0 / e_min
        assert inv_lo * (1 - 1e-10) <= inv_norm <= inv_hi * (1 + 1e-10)


def test_traction_validated_on_neumann_edges():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    prob = EllipticProblem(g, m, np.zeros(g.n_nodes))
    # traction on a Dirichlet edge is a contract violation
    with pytest.raises(ValueError):
        prob.assemble_rhs(traction={"left": (1.0, 0.0)})
    rx, ry = prob.assemble_rhs(traction={"right": (1.0, 0.0)})
    assert np.max(np.abs(rx)) > 0.0


def test_traction_loading_moves_boundary():
    g = make_grid(12, tags=MIXED)
    m = make_material(lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0, tau1=0.0)
    prob = EllipticProblem(g, m, np.zeros(g.n_nodes))
    rhs = prob.assemble_rhs(traction={"right": (0.1, 0.0)})
    u, _ = solve_elasticity(prob, rhs)
    right = np.zeros(g.shape, dtype=bool)
    right[:, -1] = True
    right = right.ravel()
    assert np.mean(u.ux[right]) > 0.0   # pulled outward
    assert np.allclose(u.ux[g.dirichlet_mask()], 0.0)
