import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from chbsim.elliptic import (AUGMENTED, DIRECT_BACKWARD_ERROR_TOL, PLAIN, VISCO, DirectSolver,
                             EllipticProblem, LameBlockPreconditioner, SolverFailure,
                             conjugate_gradient, solve_elasticity)
from chbsim.grid import (DIRICHLET, EDGES, NEUMANN, OP_CACHE_SIZE, SymTensorField, VectorField2,
                         _grid_ops, flux_stiffness_matrix, symmetric_gradient)
from chbsim.stepper import FIXED_STRESS_MAX_COUPLING, FrozenElastic, FrozenVisco
from conftest import (EDGE_TAGS, FULL_DIRICHLET, MIXED, dense_reference_stiffness, grids,
                      make_grid, make_material, reference_clamped, reference_gram_stiffness,
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


def _spd_system(seed, n=30):
    """A dense SPD system (a, b), its solution and a Jacobi preconditioner."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    inv_diag = 1.0 / np.diag(a)
    return a, b, np.linalg.solve(a, b), lambda r: inv_diag * r


def test_cg_zero_start_makes_one_product_per_iteration():
    """A zero start takes its residual to be b without a product with A, so
    a solve from zero makes exactly `iterations` products, one per
    iteration."""
    a, b, _, precondition = _spd_system(10)
    products = []

    def apply_a(v):
        products.append(v)
        return a @ v

    _, rep = conjugate_gradient(apply_a, b, precondition=precondition, tol=1e-10)
    assert rep.iterations > 0 and len(products) == rep.iterations
    assert rep.residuals[0] == np.linalg.norm(b)


def test_cg_forcing_measures_the_preconditioned_residual():
    """The forcing term bounds the preconditioned residual norm
    sqrt(r' M^{-1} r) relative to the start's, not the Euclidean one: CG
    stops at the first iterate whose r'z is at most eta^2 r0'z0, on a
    system scaled so that the two norms weigh the residual's entries very
    unequally and the Euclidean rule would stop elsewhere."""
    a, b, x, _ = _spd_system(11)
    scale = np.logspace(-2, 2, b.size)
    a = scale[:, None] * a * scale[None, :]
    b = scale * b
    inv_diag = 1.0 / np.diag(a)
    x0 = np.linalg.solve(a, b) + 1e-3 * np.random.default_rng(12).standard_normal(b.size)
    rz = []

    def precondition(r):
        z = inv_diag * r
        rz.append(float(np.dot(r, z)))
        return z

    eta = 0.1
    _, rep = conjugate_gradient(lambda v: a @ v, b, x0=x0, precondition=precondition,
                                tol=1e-14, forcing=eta)
    assert len(rz) == rep.iterations + 1 >= 3
    assert rz[-1] <= eta**2 * rz[0] < min(rz[1:-1])
    euclidean = rep.residuals
    assert not (euclidean[-1] <= eta * euclidean[0] < min(euclidean[1:-1]))


def test_cg_start_at_the_solution_returns_it():
    a, b, x, precondition = _spd_system(4)
    got, rep = conjugate_gradient(lambda v: a @ v, b, x0=x, precondition=precondition,
                                  tol=1e-10)
    assert rep.iterations == 0 and np.array_equal(got, x)
    assert rep.residuals == [rep.residual] and rep.residual <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("start", ["zero", "near", "far"])
def test_cg_target_is_absolute_whatever_the_start(start):
    """The stopping target is tol |b|, not relative to the start's residual:
    a start whose residual is far above |b| still ends below tol |b|, a
    start near the solution ends there sooner, and every start stops at the
    first residual below the target, so warm and cold solutions agree to
    it."""
    a, b, x, precondition = _spd_system(5)
    rng = np.random.default_rng(6)
    x0 = {"zero": np.zeros_like(b), "near": x + 1e-6 * rng.standard_normal(b.size),
          "far": 1e3 * np.linalg.norm(b) / np.linalg.norm(a, 2) * rng.standard_normal(b.size)}
    tol = 1e-10
    target = tol * np.linalg.norm(b)
    cold, cold_rep = conjugate_gradient(lambda v: a @ v, b, precondition=precondition, tol=tol)
    got, rep = conjugate_gradient(lambda v: a @ v, b, x0=x0[start],
                                  precondition=precondition, tol=tol)
    assert rep.residuals[0] == pytest.approx(np.linalg.norm(b - a @ x0[start]))
    if start == "far":
        assert rep.residuals[0] >= 1e2 * np.linalg.norm(b)
    assert rep.residual <= target < rep.residuals[-2]
    assert np.linalg.norm(b - a @ got) <= 1.01 * target
    assert np.linalg.norm(a @ (got - cold)) <= 2.02 * target
    if start == "zero":
        assert np.array_equal(got, cold) and rep.residuals == cold_rep.residuals
    if start == "near":
        assert rep.iterations < cold_rep.iterations


def test_cg_forcing_stops_relative_to_the_start():
    """With a forcing term eta, CG stops at the first residual below
    max(tol |b|, eta |b - A x0|): at the relative bound when it is the
    larger, and at the absolute one when a tiny eta makes that larger."""
    a, b, x, precondition = _spd_system(7)
    x0 = x + 1e-3 * np.random.default_rng(8).standard_normal(b.size)
    r0 = np.linalg.norm(b - a @ x0)
    _, rep = conjugate_gradient(lambda v: a @ v, b, x0=x0, precondition=precondition,
                                tol=1e-12, forcing=0.1)
    assert rep.residual <= 0.1 * r0 < rep.residuals[-2]
    _, rep = conjugate_gradient(lambda v: a @ v, b, x0=x0, precondition=precondition,
                                tol=1e-3, forcing=1e-9)
    assert rep.residual <= 1e-3 * np.linalg.norm(b) < rep.residuals[-2]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_non_finite_start_fails_at_once(bad):
    """A non-finite start raises SolverFailure after the one product that
    forms its residual, before any iteration or preconditioner step."""
    a, b, x, _ = _spd_system(9)
    x0 = x.copy()
    x0[3] = bad
    products, steps = [], []

    def apply_a(v):
        products.append(v)
        return a @ v

    def precondition(r):
        steps.append(r)
        return r

    with pytest.raises(SolverFailure, match="non-finite value") as exc:
        conjugate_gradient(apply_a, b, x0=x0, precondition=precondition, maxiter=10**9)
    assert len(products) == 1 and steps == [] and len(exc.value.residuals) == 1


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
    """CG preconditioned by the block fast-diagonalization of the problem
    at phi0 solves the problem at phi, |phi - phi0| <= 0.1, as accurately
    as a fresh factorization, and factors neither problem."""
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
    assert prob._solver is None and reference._solver is None


ALL_EDGE_TAGS = [dict(zip(EDGES, tags)) for tags in itertools.product((DIRICHLET, NEUMANN),
                                                                      repeat=4)
                 if DIRICHLET in tags]


def _constant_blocks(grid, lam, mu):
    """The dense (u_x, u_x) and (u_y, u_y) blocks of the stiffness with
    constant Lame parameters, formed from Grid.strain_op on the free
    dofs of reference_clamped."""
    free = ~reference_clamped(grid)
    strain = grid.strain_op[:, np.flatnonzero(np.concatenate([free, free]))].toarray()
    w = grid.quad_weights()
    weight = np.concatenate([2.0 * mu * w, 2.0 * mu * w, mu * w, lam * w])
    k = strain.T @ (weight[:, None] * strain)
    half = int(free.sum())
    return k[:half, :half], k[half:, half:]


@pytest.mark.parametrize("tags", ALL_EDGE_TAGS,
                         ids=["".join(t[0] for t in tags.values()) for tags in ALL_EDGE_TAGS])
@pytest.mark.parametrize("nx, ny, lx, ly", [(7, 5, 1.3, 0.6), (5, 9, 0.8, 2.1)])
def test_fast_diagonalized_blocks_match_the_dense_oracle(tags, nx, ny, lx, ly):
    """With no coupling between the components, the block preconditioner
    is the block-diagonal constant-coefficient stiffness D, solved by fast
    diagonalization on the tensor-product free set of every edge-tag set
    with a Dirichlet edge, on grids with nx != ny and lx != ly; it matches
    the dense solve with D to 1e-12, also with lam = 0."""
    g = make_grid(nx, ny, tags=tags, lx=lx, ly=ly)
    rng = np.random.default_rng(nx * ny)
    for lam, mu in ((1.7, 0.6), (0.0, 2.5)):
        d_x, d_y = _constant_blocks(g, lam, mu)
        block_diagonal = sp.block_diag([d_x, d_y], format="csc")
        precondition = LameBlockPreconditioner(g, block_diagonal, lam, mu)
        r = rng.standard_normal(block_diagonal.shape[0])
        want = np.concatenate([np.linalg.solve(d_x, r[:d_x.shape[0]]),
                               np.linalg.solve(d_y, r[d_x.shape[0]:])])
        assert np.linalg.norm(precondition(r) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("tags", [MIXED, FULL_DIRICHLET, dict(MIXED, bottom=NEUMANN)],
                         ids=["mixed", "clamped", "left-only"])
@pytest.mark.parametrize("variant", [PLAIN, AUGMENTED, VISCO])
def test_block_gauss_seidel_preconditioner_is_spd(variant, tags):
    """The preconditioner of a variable-coefficient problem is a symmetric
    positive definite map: (D + L) D^{-1} (D + L') with the constant
    blocks D and the problem's own off-diagonal block L."""
    g = make_grid(7, 6, tags=tags, lx=1.2)
    prob = EllipticProblem(g, make_material(rho=1), smooth_phi(g, np.random.default_rng(4)),
                           variant=variant, scale=2.0, shift=0.3)
    precondition = prob.preconditioner()
    inverse = np.column_stack([precondition(e) for e in np.eye(g.free_dofs.size)])
    assert np.max(np.abs(inverse - inverse.T)) <= 1e-12 * np.max(np.abs(inverse))
    assert scipy.linalg.eigvalsh(0.5 * (inverse + inverse.T)).min() > 0.0


@pytest.mark.parametrize("tags", ALL_EDGE_TAGS,
                         ids=["".join(t[0] for t in tags.values()) for tags in ALL_EDGE_TAGS])
@pytest.mark.parametrize("nx, ny", [(7, 5), (5, 9)])
def test_gram_pattern_is_the_structural_product(tags, nx, ny):
    """The stiffness pattern that the Gram map fills is, in CSC order with
    sorted rows, exactly that of the dense structural product |E_f|' |E_f|:
    every pair of free dofs that share a strain row, and no other."""
    g = make_grid(nx, ny, tags=tags)
    strain = np.abs(g.strain_op[:, g.free_dofs].toarray())
    want = sp.csc_matrix((strain.T @ strain) > 0)
    want.sort_indices()
    gram, indices, indptr = g.stiffness_gram
    assert np.array_equal(indptr, want.indptr) and np.array_equal(indices, want.indices)
    assert gram.shape == (want.nnz, strain.shape[0])


def _interface_factor(name, dt=1e-3):
    """The DirectSolver of one window-frozen system on the 32^2 mixed-tag
    interface phase of the benchmark material, made the way the time
    stepper makes it."""
    g = make_grid(32, tags=MIXED)
    m = make_material(eps=0.35, tau1=0.05)
    x, _ = g.coords()
    phi = np.tanh((x - 0.5) / (np.sqrt(2.0) * 0.35))
    elastic, visco = FrozenElastic(g, m, phi), FrozenVisco(g, m, phi)
    assert elastic.coupling <= FIXED_STRESS_MAX_COUPLING   # content solver is P's factor
    return {
        "phase": lambda: elastic.phase_solver(dt),
        "fixed-stress": lambda: elastic.content_solver(dt),
        "visco-content": lambda: visco.content_solver(dt),
        "plain": lambda: EllipticProblem(g, m, phi, PLAIN, scale=2.0).factor(),
        "augmented": lambda: EllipticProblem(g, m, phi, AUGMENTED, scale=2.0).factor(),
        "shifted": lambda: visco.shifted_problem(dt).factor(),
    }[name]()


@pytest.mark.parametrize("name", ["phase", "fixed-stress", "visco-content", "plain",
                                  "augmented", "shifted"])
def test_every_factor_pivots_on_the_diagonal_with_no_more_fill_than_colamd(name):
    """Every window-frozen system is SPD, so its factor keeps the pivots on
    the diagonal (the row and column permutations agree) and stores no
    more nonzeros in L + U than SuperLU's general default, a COLAMD
    ordering with partial pivoting, makes of the same matrix."""
    solver = _interface_factor(name)
    lu = solver._lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert lu.nnz <= spla.splu(solver.matrix).nnz


@pytest.mark.parametrize("tags", ALL_EDGE_TAGS,
                         ids=["".join(t[0] for t in tags.values()) for tags in ALL_EDGE_TAGS])
@pytest.mark.parametrize("nx, ny, lx, ly", [(7, 5, 1.3, 0.6), (5, 9, 0.8, 2.1)])
def test_node_major_factor_solves_match_the_dense_solve(tags, nx, ny, lx, ly):
    """The displacement factor works in the grid's node-major order and
    scatters back: its solve and its apply_inverse match a dense solve of
    the stiffness in the caller's stacked order to 1e-12, for every
    variant and every edge-tag set with a Dirichlet edge."""
    g = make_grid(nx, ny, tags=tags, lx=lx, ly=ly)
    order = g.node_major_order
    half = g.free_dofs.size // 2
    assert not order.flags.writeable
    assert np.array_equal(np.sort(order), np.arange(2 * half))
    assert np.array_equal(order[1::2] - order[::2], np.full(half, half))
    m = make_material(rho=1)
    rng = np.random.default_rng(nx * ny)
    phi = smooth_phi(g, rng)
    for variant, shift in ((PLAIN, 0.0), (AUGMENTED, 0.0), (VISCO, 0.3)):
        prob = EllipticProblem(g, m, phi, variant=variant, scale=2.0, shift=shift)
        b = rng.standard_normal(2 * half)
        want = np.linalg.solve(prob.stiffness_matrix().toarray(), b)
        x, report = prob.factor().solve(b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert report.residual <= 1e-12 * np.linalg.norm(b)
        x = prob.factor().apply_inverse(b)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def test_preconditioned_iteration_count_does_not_grow_with_the_grid():
    """From a zero start, the reference-preconditioned CG on an interface
    phase does not grow with the grid: over 16^2, 32^2 and 64^2 its count
    stays within one iteration of the 16^2 count (19, 19, 20 here).  The
    constant Lame blocks are spectrally equivalent to the stiffness
    uniformly in the grid, so the count is set by the coefficient
    contrast."""
    m = make_material(eps=0.35, tau1=0.05)
    counts = []
    for n in (16, 32, 64):
        g = make_grid(n, tags=MIXED)
        x, y = g.coords()
        phi = np.tanh((np.hypot(x - 0.5, y - 0.5) - 0.25) / 0.05)
        reference = EllipticProblem(g, m, phi, variant=AUGMENTED, scale=2.0)
        prob = EllipticProblem(g, m, phi, variant=AUGMENTED, scale=2.0, reference=reference)
        b = np.zeros(2 * g.n_nodes)
        b[g.free_dofs] = np.random.default_rng(n).standard_normal(g.free_dofs.size)
        counts.append(prob.solve(b)[1].iterations)
    assert max(counts) <= counts[0] + 1 <= 30, counts


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


def test_wrong_but_finite_direct_solve_fails_at_once():
    """A factor that solves finitely but wrongly, here the factor of 2A in
    place of A's, fails its first solve on the normwise backward error,
    and the message names the residual; the right factor passes."""
    g = make_grid(10, tags=MIXED)
    rng = np.random.default_rng(3)
    solver = FrozenElastic(g, make_material(), smooth_phi(g, rng)).phase_solver(1e-3)
    b = rng.standard_normal(g.n_nodes)
    solver.solve(b)
    solver._lu = DirectSolver(2.0 * solver.matrix)._lu
    with pytest.raises(SolverFailure, match="direct solve residual .* backward error") as exc:
        solver.solve(b)
    assert len(exc.value.residuals) == 1 and exc.value.residuals[0] > 0.0
    assert f"> {DIRECT_BACKWARD_ERROR_TOL:g}" in str(exc.value)


@settings(deadline=None, max_examples=40)
@given(g=grids(EDGE_TAGS), seed=st.integers(0, 2**32 - 1))
def test_weak_loads_are_the_quadrature_of_their_virtual_work(g, seed):
    """assemble_rhs is the weak form of the module docstring: for any test
    displacement v that vanishes on the Dirichlet nodes, a tensor source
    P, a scalar source q and a body force f load it with
    sum w (P : E(v) + q div v + f . v), P : E = pxx exx + pyy eyy
    + 2 pxy exy, E(v) the nodal symmetric gradient, to 1e-12 relative,
    on every grid shape and edge-tag set with a Dirichlet edge."""
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    p = SymTensorField(g, *rng.standard_normal((3, n)))
    q = rng.standard_normal(n)
    f = VectorField2(g, *rng.standard_normal((2, n)))
    v = VectorField2(g, *np.where(g.dirichlet_mask(), 0.0, rng.standard_normal((2, n))))
    prob = EllipticProblem(g, make_material(), np.zeros(n))
    rx, ry = prob.assemble_rhs(body=f, tensor_source=p, scalar_source=q)
    e = symmetric_gradient(v)
    work = g.quad_weights() * (p.xx * e.xx + p.yy * e.yy + 2.0 * p.xy * e.xy
                               + q * (e.xx + e.yy) + f.ux * v.ux + f.uy * v.uy)
    assert abs(rx @ v.ux + ry @ v.uy - work.sum()) <= 1e-12 * np.abs(work).sum()


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
