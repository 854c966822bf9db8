import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chbsim.biot as biot
import chbsim.stepper as stepper
from chbsim.biot import STIFFNESS_SCALE, apply_B_tilde, apply_fluid_operator
from chbsim.elliptic import VISCO, DirectSolver, EllipticProblem, solve_elasticity
from chbsim.grid import VectorField2, divergence, neumann_laplacian
from chbsim.rhs import SourceSpec, ViscoOperators, chemical_potential, pressure, stress
from chbsim.stepper import (ANDERSON_DEPTH, BUNDLE_WINDOWS, GIVE_UP_AFTER, FrozenElastic,
                            FrozenVisco, PRESSURE_FORM, THETA_FORM, Linearization, StepFailure,
                            StepperConfig, _anderson_step, _pressure_iterates,
                            _theta_iterates, _visco_iterates, initial_state,
                            linear_substep_phi, linear_substep_theta_elastic,
                            linear_substep_theta_visco, linear_substep_u_visco,
                            picard_window, run_simulation)
from conftest import EDGE_TAGS, FULL_DIRICHLET, MIXED, make_grid, make_material, smooth_phi


# The three iterate maps of picard_window as (rho, formulation): the
# theta and visco maps keep the rho ids the other tests use.
ITERATE_MAPS = pytest.mark.parametrize(
    "rho, formulation", [(0, THETA_FORM), (1, THETA_FORM), (0, PRESSURE_FORM)],
    ids=["0", "1", "pressure"])


def test_phase_substep_keeps_constants_and_mean():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(0)
    fr = FrozenElastic(g, m, smooth_phi(g, rng))
    c = np.full(g.n_nodes, 1.3)
    out, _ = linear_substep_phi(fr, 1e-3, c)
    assert np.allclose(out, 1.3, atol=1e-11)
    r = rng.standard_normal(g.n_nodes)
    out, _ = linear_substep_phi(fr, 1e-3, r)
    w = g.quad_weights()
    assert np.dot(w, out) == pytest.approx(np.dot(w, r), abs=1e-12)


# The two mean-restoring substeps as (frozen bundle, rho, substep, dense
# flux matrix B of its SPD form (W + dt B) x = W r).
MEAN_RESTORING = {
    "phase": (FrozenElastic, 0, linear_substep_phi,
              lambda fr, m: m.eps * fr.b_one.toarray() @ np.diag(fr.m0 / fr.w)
              @ fr.b_one.toarray()),
    "visco": (FrozenVisco, 1, linear_substep_theta_visco, lambda fr, m: fr.b_km.toarray()),
}


@pytest.mark.parametrize("substep", sorted(MEAN_RESTORING))
@settings(deadline=None, max_examples=25)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), mixed=st.booleans(),
       dt=st.sampled_from([1e-4, 1e-3, 1e-2]), seed=st.integers(0, 2**32 - 1))
def test_mean_restoring_substep_matches_dense_solve(substep, nx, ny, mixed, dt, seed):
    """Both direct substeps (W + dt B) x = W r match a dense solve, keep
    constants, and keep the weighted mean of r."""
    frozen_type, rho, solve, flux = MEAN_RESTORING[substep]
    g = make_grid(nx, ny, tags=MIXED if mixed else FULL_DIRICHLET)
    m = make_material(rho=rho)
    rng = np.random.default_rng(seed)
    fr = frozen_type(g, m, smooth_phi(g, rng))
    w = g.quad_weights()
    r = rng.standard_normal(g.n_nodes)
    want = np.linalg.solve(np.diag(w) + dt * flux(fr, m), w * r)
    got, _ = solve(fr, dt, r)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert abs(np.dot(w, got) - np.dot(w, r)) <= 1e-12 * max(1.0, abs(np.dot(w, r)))
    out, _ = solve(fr, dt, np.full(g.n_nodes, -0.4))
    assert np.allclose(out, -0.4, rtol=0.0, atol=1e-11)


def test_theta_elastic_substep_matches_dense_implicit_euler():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(2)
    phi0 = smooth_phi(g, rng)
    fr = FrozenElastic(g, m, phi0)
    n = g.n_nodes
    dt = 1e-3
    # dense I + dt A(phi0) built column-by-column from the fluid operator
    a = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a[:, j] = apply_fluid_operator(fr.ctx0, e)
    r = rng.standard_normal(n)
    want = np.linalg.solve(np.eye(n) + dt * a, r)
    got, _ = linear_substep_theta_elastic(fr, dt, r)
    assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


def test_theta_elastic_substep_conserves_mean():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(3)
    fr = FrozenElastic(g, m, smooth_phi(g, rng))
    r = rng.standard_normal(g.n_nodes)
    got, _ = linear_substep_theta_elastic(fr, 1e-3, r)
    w = g.quad_weights()
    assert np.dot(w, got) == pytest.approx(np.dot(w, r), abs=1e-12)


def _dense(apply, n):
    """Matrix of a linear map on R^n, by columns."""
    return np.column_stack([apply(e) for e in np.eye(n)])


# Endpoint values (s = 0, s = 1 of the phase blend) of the material laws
# the quasi-static content solve depends on: Lame parameters, Biot
# coupling and modulus, permeability.
MATERIAL_ENDPOINTS = st.fixed_dictionaries({
    "lam": st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    "mu": st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    "alpha": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    "modulus": st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    "kappa": st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
})


def _material_from_endpoints(ends):
    """Quasi-static material with the given endpoint values, and its
    largest coupling strength alpha^2 M / K_dr, K_dr = 2 (lam + mu)."""
    (lam_a, lam_b), (mu_a, mu_b) = ends["lam"], ends["mu"]
    (a_a, a_b), (m_a, m_b), (k_a, k_b) = ends["alpha"], ends["modulus"], ends["kappa"]
    material = make_material(lam_a=lam_a, lam_b=lam_b, mu_a=mu_a, mu_b=mu_b,
                             a0=a_a, a1=a_b - a_a, M0=m_a, M1=m_b - m_a,
                             k0=min(k_a, k_b), k1=abs(k_b - k_a))
    k_drained = STIFFNESS_SCALE * (min(lam_a, lam_b) + min(mu_a, mu_b))
    return material, max(a_a, a_b)**2 * max(m_a, m_b) / k_drained


@pytest.mark.parametrize("unknown", ["theta", "q"])
@settings(deadline=None, max_examples=25)
@given(nx=st.integers(4, 12), ny=st.integers(4, 12), mixed=st.booleans(),
       dt=st.sampled_from([1e-4, 1e-3, 1e-2]), ends=MATERIAL_ENDPOINTS,
       seed=st.integers(0, 2**32 - 1))
def test_quasi_static_content_solve_matches_dense_solve(unknown, nx, ny, mixed, dt, ends,
                                                        seed):
    """Both quasi-static content solves match a dense solve built from the
    operators' columns, and keep the weighted mean of r:
    linear_substep_theta_elastic solves (I + dt A(phi0)) theta = r, and
    the content solver solves (W B(phi0) + dt B_kappa) q = W r,
    whose content B(phi0) q has the weighted mean of r.  The fixed-stress
    PCG needs at most 12 iterations over materials whose coupling
    strength alpha^2 M / K_dr is at most 0.5 (about 0.2 for the
    spinodal material); the count grows with that strength (measured:
    up to 12 at 1, 13-15 beyond), not with the grid."""
    m, coupling = _material_from_endpoints(ends)
    assume(coupling <= 0.5)
    g = make_grid(nx, ny, tags=MIXED if mixed else FULL_DIRICHLET)
    rng = np.random.default_rng(seed)
    fr = FrozenElastic(g, m, smooth_phi(g, rng))
    n, w = g.n_nodes, g.quad_weights()
    r = rng.standard_normal(n)
    if unknown == "theta":
        a = _dense(lambda e: apply_fluid_operator(fr.ctx0, e), n)
        want = np.linalg.solve(np.eye(n) + dt * a, r)
        got, report = linear_substep_theta_elastic(fr, dt, r)
        content = got
    else:
        b_tilde = _dense(lambda e: apply_B_tilde(fr.ctx0, e), n)
        want = np.linalg.solve(w[:, None] * b_tilde + dt * fr.b_kappa.toarray(), w * r)
        got, report = fr.content_solver(dt).solve(w * r)
        content = b_tilde @ got
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert abs(np.dot(w, content) - np.dot(w, r)) <= 1e-12 * max(1.0, abs(np.dot(w, r)))
    assert report.iterations <= 12


@pytest.mark.parametrize("tags", [MIXED, FULL_DIRICHLET], ids=["mixed", "clamped"])
def test_content_pcg_iterations_do_not_grow_with_the_grid(tags):
    """The fixed-stress preconditioner is spectrally equivalent to the
    content Schur complement, so refining 16^2 to 64^2 adds at most two
    PCG iterations at each dt."""
    m = make_material()
    counts = {}
    for n in (16, 64):
        g = make_grid(n, tags=tags)
        rng = np.random.default_rng(17)
        fr = FrozenElastic(g, m, smooth_phi(g, rng))
        r = g.quad_weights() * rng.standard_normal(g.n_nodes)
        counts[n] = [fr.content_solver(dt).solve(r)[1].iterations
                     for dt in (1e-4, 1e-3, 1e-2)]
    assert all(fine <= coarse + 2 for coarse, fine in zip(counts[16], counts[64])), counts


def test_u_visco_substep_trivial_and_continuity():
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=1)
    rng = np.random.default_rng(5)
    fr = FrozenVisco(g, m, smooth_phi(g, rng))
    zero = VectorField2.zero(g)
    out, _ = linear_substep_u_visco(fr, 1e-3, zero, zero)
    assert np.allclose(out.ux, 0.0) and np.allclose(out.uy, 0.0)
    u_prev = VectorField2(g, rng.standard_normal(g.n_nodes),
                          rng.standard_normal(g.n_nodes))
    free = ~g.dirichlet_mask()
    u_prev.ux[~free] = 0.0
    u_prev.uy[~free] = 0.0
    out, _ = linear_substep_u_visco(fr, 1e-8, u_prev, zero)
    assert np.max(np.abs(out.ux - u_prev.ux)) <= 1e-6
    assert np.max(np.abs(out.uy - u_prev.uy)) <= 1e-6


@pytest.mark.parametrize("form", ["theta", "pressure", "visco"])
def test_update_form_map_matches_the_frozen_operator_formula(form):
    """From a non-trivial iterate x_k, the update-form map gives
    x_{k+1} = (I + dt L0)^{-1}(x_n + dt (L0 x_k + N(x_k))), with the
    frozen operators L0 built densely and N evaluated here from the
    derived fields, independently of chbsim.rhs.  The pressure form's
    formula is the pressure map with theta(p) = B0 p + (theta_k - B0 p_k)."""
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=int(form == "visco"), eps=0.3)
    rng = np.random.default_rng(15)
    n, dt = g.n_nodes, 1e-3
    sources = SourceSpec(s_phase=lambda x, y, t: 0.5 * np.cos(np.pi * x),
                         s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng), sources)
    frozen = (FrozenVisco if form == "visco" else FrozenElastic)(g, m, st.phi)
    iterates = {"theta": _theta_iterates, "pressure": _pressure_iterates,
                "visco": _visco_iterates}[form]
    stream = iterates(frozen, st, sources, dt)

    def picard_step():
        # the map yields (x_k, d_k); sending back x_k + d_k = g(x_k) makes
        # it build the derived fields and yield the next iterate's state
        x, d = next(stream)
        return stream.send([a + b for a, b in zip(x, d)])
    s1 = picard_step()
    s2 = picard_step()

    t, w = st.t + dt, g.quad_weights()
    x, y = g.coords()
    mu = chemical_potential(g, m, s1.phi, s1.theta, s1.u)
    n_phi = neumann_laplacian(g, mu, m.mobility(s1.phi)) + sources.s_phase(x, y, t)
    p1 = pressure(m, s1.phi, s1.theta, divergence(s1.u))
    n_theta = neumann_laplacian(g, p1, m.permeability(s1.phi)) + sources.s_fluid(x, y, t)

    def step(l0, x_n, x_k, n_k):
        return np.linalg.solve(np.eye(len(x_n)) + dt * l0, x_n + dt * (l0 @ x_k + n_k))

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    b1 = frozen.b_one.toarray()
    l_phi = (m.eps * b1 @ np.diag(frozen.m0 / w) @ b1) / w[:, None]
    assert_close(s2.phi, step(l_phi, st.phi, s1.phi, n_phi))
    if form == "theta":
        l_theta = _dense(lambda e: apply_fluid_operator(frozen.ctx0, e), n)
        assert_close(s2.theta, step(l_theta, st.theta, s1.theta, n_theta))
    elif form == "pressure":
        b0 = _dense(lambda e: apply_B_tilde(frozen.ctx0, e), n)
        nl0 = -frozen.b_kappa.toarray() / w[:, None]
        want = np.linalg.solve(b0 - dt * nl0,
                               st.theta - s1.theta + b0 @ p1 + dt * (n_theta - nl0 @ p1))
        assert_close(pressure(m, s2.phi, s2.theta, divergence(s2.u)), want)
    else:
        l_theta = frozen.b_km.toarray() / w[:, None]
        assert_close(s2.theta, step(l_theta, st.theta, s1.theta, n_theta))

        def a0(e):
            out = frozen.ops.apply_a0(VectorField2(g, e[:n], e[n:]))
            return np.concatenate([out.ux, out.uy])
        visco = EllipticProblem(g, m, s1.phi, variant=VISCO, scale=STIFFNESS_SCALE)
        rx, ry = visco.assemble_rhs(tensor_source=stress(g, m, s1.phi, s1.theta, s1.u))
        udot, _ = solve_elasticity(visco, (-rx, -ry))
        want = step(_dense(a0, 2 * n), np.concatenate([st.u.ux, st.u.uy]),
                    np.concatenate([s1.u.ux, s1.u.uy]), np.concatenate([udot.ux, udot.uy]))
        assert_close(np.concatenate([s2.u.ux, s2.u.uy]), want)


@ITERATE_MAPS
def test_window_converges_without_applying_a_frozen_operator(rho, formulation, monkeypatch):
    """The frozen operators appear only in the solves: a window converges
    with the fluid operators and the visco A0 replaced by a raising stub,
    wherever a chbsim module refers to them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("frozen operator applied to an iterate")

    for original in (biot.apply_fluid_operator, biot.apply_A_tilde, biot.apply_B_tilde):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "chbsim":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(ViscoOperators, "apply_a0", forbidden)
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(16)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, formulation=formulation)
    _, rep = picard_window(g, m, st, SourceSpec(), cfg)
    assert rep.shrinks == 0 and rep.iterations >= 2


def _uniform_equilibrium(g, m):
    phi = np.ones(g.n_nodes)
    theta = np.full(g.n_nodes, 0.5 if m.rho == 0 else 0.0)
    return initial_state(g, m, phi, theta, SourceSpec())


@pytest.mark.parametrize("rho", [0, 1])
def test_pure_phase_equilibrium_is_stationary(rho):
    # fully clamped boundary: a uniform fluid content with the matching
    # rest displacement is then an exact stationary state even with
    # nonzero Biot coupling (a traction-free edge would be loaded by
    # the uniform pressure)
    g = make_grid(10, tags=FULL_DIRICHLET)
    m = make_material(rho=rho, m1=0.0, k1=0.0, M1=0.0, a1=0.0,
                      tau0=0.0, tau1=0.0, lam_a=1.0, lam_b=1.0,
                      mu_a=1.0, mu_b=1.0)
    state = _uniform_equilibrium(g, m)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10)
    new, rep = picard_window(g, m, state, SourceSpec(), cfg)
    assert rep.iterations <= 2
    assert np.max(np.abs(new.phi - state.phi)) <= 1e-9
    assert np.max(np.abs(new.theta - state.theta)) <= 1e-9


@pytest.mark.parametrize("rho", [0, 1])
def test_short_run_conserves_mass(rho):
    g = make_grid(12, tags=MIXED)
    m = make_material(rho=rho, eps=0.25)
    rng = np.random.default_rng(6)
    phi0 = 0.05 * rng.standard_normal(g.n_nodes)
    theta0 = 0.05 * rng.standard_normal(g.n_nodes)
    st = initial_state(g, m, phi0, theta0, SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=5e-3, tol_picard=1e-9)
    states, _ = run_simulation(g, m, cfg, st, SourceSpec())
    m0p, m0t = g.mean(st.phi), g.mean(st.theta)
    for s in states:
        assert abs(g.mean(s.phi) - m0p) <= 1e-12
        assert abs(g.mean(s.theta) - m0t) <= 1e-12


def _recording(iterates, sent):
    """The iterate map `iterates`, appending to `sent` every next unknowns
    that the window sends it."""
    def recorded(*args):
        stream = iterates(*args)
        value = None
        while True:
            value = yield stream.send(value)
            if value is not None:
                sent.append(value)
    return recorded


@ITERATE_MAPS
@settings(deadline=None, max_examples=12)
@given(nx=st.integers(4, 10), ny=st.integers(4, 10), lx=st.floats(0.5, 2.0),
       ly=st.floats(0.5, 2.0), tags=EDGE_TAGS, seed=st.integers(0, 2**32 - 1))
def test_every_iterate_keeps_the_weighted_means(rho, formulation, nx, ny, lx, ly, tags, seed):
    """Every unknowns a window's map is sent, the Anderson-mixed iterates
    as well as the accepted one, keep the weighted means of phi and of
    theta at mean(x_n) + dt mean(S), with sources of nonzero mean.  (The
    pressure form's unknowns are (phi, p); its theta keeps the mean only
    at the fixed point.)"""
    g = make_grid(nx, ny, tags=tags, lx=lx, ly=ly)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(seed)
    sources = SourceSpec(s_phase=lambda x, y, t: 0.5 + np.cos(np.pi * x),
                         s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st0 = initial_state(g, m, 0.1 + 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                        sources)
    dt = 1e-3
    cfg = StepperConfig(dt=dt, t_end=dt, tol_picard=1e-10, max_picard=200, max_shrinks=0,
                        formulation=formulation)
    name = ("_visco_iterates" if rho == 1 else
            "_pressure_iterates" if formulation == PRESSURE_FORM else "_theta_iterates")
    sent = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, name, _recording(getattr(stepper, name), sent))
        _, rep = picard_window(g, m, st0, sources, cfg)
    assert len(sent) == rep.iterations > ANDERSON_DEPTH + 1
    kept = [(0, st0.phi, sources.phase_at(g, dt))]
    if formulation != PRESSURE_FORM:
        kept.append((1, st0.theta, sources.fluid_at(g, dt)))
    for index, start, source in kept:
        want = g.mean(start) + dt * g.mean(source)
        assert max(abs(g.mean(x[index]) - want) for x in sent) <= 1e-12


@pytest.mark.parametrize("pairs", [1, 2, ANDERSON_DEPTH + 1])
def test_anderson_step_is_the_least_squares_affine_combination(pairs):
    """The Anderson step is sum_i alpha_i g(x_i) with g(x_i) = x_i + d_i,
    where alpha minimizes the weighted norm of sum_i alpha_i d_i subject
    to sum_i alpha_i = 1, solved here from its KKT system; one pair gives
    the Picard step g(x_k)."""
    rng = np.random.default_rng(20)
    n = 30
    w = rng.uniform(0.1, 2.0, n)
    history = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(pairs)]
    f = np.column_stack([d for _, d in history])
    g = np.column_stack([x + d for x, d in history])
    kkt = np.block([[2.0 * f.T @ (w[:, None] * f), np.ones((pairs, 1))],
                    [np.ones((1, pairs)), np.zeros((1, 1))]])
    alpha = np.linalg.solve(kkt, np.concatenate([np.zeros(pairs), [1.0]]))[:pairs]
    got = _anderson_step(np.sqrt(w), history)
    assert np.max(np.abs(got - g @ alpha)) <= 1e-12 * np.max(np.abs(g))


def test_contraction_improves_with_smaller_windows():
    g = make_grid(12, tags=MIXED)
    m = make_material(eps=0.25)
    rng = np.random.default_rng(7)
    phi0 = 0.3 * smooth_phi(g, rng)
    theta0 = 0.1 * smooth_phi(g, rng)
    rhos = []
    for dt in (2e-3, 1e-3, 5e-4):
        st = initial_state(g, m, phi0, theta0, SourceSpec())
        cfg = StepperConfig(dt=dt, t_end=dt, tol_picard=1e-10,
                            max_picard=200)
        _, rep = picard_window(g, m, st, SourceSpec(), cfg)
        assert rep.shrinks == 0
        rhos.append(rep.rho)
    assert rhos[2] < rhos[1] < rhos[0]
    assert rhos[2] < 1.0


def test_theta_and_pressure_formulations_agree():
    g = make_grid(12, tags=MIXED)
    m = make_material(eps=0.25)
    rng = np.random.default_rng(8)
    phi0 = 0.3 * smooth_phi(g, rng)
    theta0 = 0.1 * smooth_phi(g, rng)
    finals = []
    for form in ("theta", PRESSURE_FORM):
        st = initial_state(g, m, phi0, theta0, SourceSpec())
        cfg = StepperConfig(dt=1e-3, t_end=5e-3, tol_picard=1e-10,
                            formulation=form)
        states, _ = run_simulation(g, m, cfg, st, SourceSpec())
        finals.append(states[-1])
    a, b = finals
    assert np.max(np.abs(a.phi - b.phi)) <= 1e-7
    assert np.max(np.abs(a.theta - b.theta)) <= 1e-7


@ITERATE_MAPS
def test_window_shrinks_then_fails_cleanly(rho, formulation):
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.15)
    rng = np.random.default_rng(9)
    st = initial_state(g, m, 0.5 * smooth_phi(g, rng),
                       0.1 * smooth_phi(g, rng), SourceSpec())
    cfg = StepperConfig(dt=0.5, t_end=0.5, tol_picard=1e-12,
                        max_picard=2, max_shrinks=2, formulation=formulation)
    with pytest.raises(StepFailure) as exc:
        picard_window(g, m, st, SourceSpec(), cfg)
    attempts = exc.value.attempts
    assert [a.dt for a in attempts] == [0.5, 0.25, 0.125]
    for a in attempts:
        assert a.error is None and len(a.residuals) == cfg.max_picard


def _slowly_contracting_window(rho, eps):
    """Grid, material and start state of a 10^2 window behind a steep
    phase, whose accelerated Picard iteration contracts slowly at the
    default tol_picard and max_picard = 40.  With eps = 0.14 it cannot
    reach tol_picard at dt = 1e-3 within 40 iterates (it needs 61) and
    converges at dt = 5e-4 in 20 or 21; with eps = 0.2 it converges at
    dt = 2.5e-3 in 32 or 33."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=eps)
    rng = np.random.default_rng(9)
    st = initial_state(g, m, 0.5 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    return g, m, st


@ITERATE_MAPS
def test_given_up_attempt_shrinks_dt_to_the_same_state(rho, formulation, monkeypatch):
    """An attempt whose contraction cannot reach tol_picard within
    max_picard iterates is given up after fewer of them, and the window
    goes on as if it had run them all: the retry at the shrunk dt reaches
    the same bytes, dt and shrink count as with the give-up test off."""
    g, m, st = _slowly_contracting_window(rho, eps=0.14)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, formulation=formulation)

    def window(max_shrinks):
        return picard_window(g, m, st, SourceSpec(), replace(cfg, max_shrinks=max_shrinks))

    def failed_attempt():
        with pytest.raises(StepFailure) as exc:
            window(0)
        [attempt] = exc.value.attempts
        assert attempt.error is None
        return attempt

    assert GIVE_UP_AFTER <= len(failed_attempt().residuals) < cfg.max_picard
    given_up, rep = window(1)
    monkeypatch.setattr(stepper, "_cannot_converge", lambda *args: False)
    assert len(failed_attempt().residuals) == cfg.max_picard
    full, full_rep = window(1)
    assert rep.dt_used == full_rep.dt_used == 5e-4 and rep.shrinks == full_rep.shrinks == 1
    assert rep.residuals == full_rep.residuals
    for a, b in ((given_up.phi, full.phi), (given_up.theta, full.theta),
                 (given_up.u.ux, full.u.ux), (given_up.u.uy, full.u.uy)):
        assert a.tobytes() == b.tobytes()
    assert given_up.t == full.t


@ITERATE_MAPS
def test_late_converging_window_is_not_given_up(rho, formulation):
    """A window that converges in more than 30 of its 40 iterates is
    accepted at its dt, although the ratios of its accelerated residuals
    vary from iterate to iterate."""
    g, m, st = _slowly_contracting_window(rho, eps=0.2)
    cfg = StepperConfig(dt=2.5e-3, t_end=2.5e-3, max_shrinks=0, formulation=formulation)
    _, rep = picard_window(g, m, st, SourceSpec(), cfg)
    assert rep.shrinks == 0 and 30 < rep.iterations <= cfg.max_picard


@pytest.mark.parametrize("residual", [np.nan, np.inf])
def test_non_finite_residual_ends_the_attempt(residual):
    """A non-finite Picard residual ends its attempt at once, before
    GIVE_UP_AFTER iterates."""
    assert stepper._cannot_converge([1.0, residual], 1e-9, 40)
    assert not stepper._cannot_converge([1.0, 0.5], 1e-9, 40)


@ITERATE_MAPS
def test_non_finite_state_shrinks_then_fails_cleanly(rho, formulation):
    """A non-finite value makes the direct solves raise SolverFailure,
    which the window treats like a failed contraction: dt shrinks until
    max_shrinks, then StepFailure naming the window's start time and the
    dt values tried."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho)
    st = initial_state(g, m, np.zeros(g.n_nodes), np.zeros(g.n_nodes), SourceSpec())
    st.t = 0.5
    st.theta[5 * g.nx + 5] = np.nan
    cfg = StepperConfig(dt=1e-3, t_end=0.501, max_shrinks=2, formulation=formulation)
    with pytest.raises(StepFailure, match=r"window at t = 0\.5 failed") as exc:
        picard_window(g, m, st, SourceSpec(), cfg)
    assert "dt tried: 0.001, 0.0005, 0.00025" in str(exc.value)
    attempts = exc.value.attempts
    assert [a.dt for a in attempts] == [0.001, 0.0005, 0.00025]
    for a in attempts:
        assert "non-finite" in a.error
        assert a.residuals == []


def _counting_factors(monkeypatch):
    created = []
    original_init = DirectSolver.__init__

    def counting_init(self, *args, **kwargs):
        created.append(args)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(DirectSolver, "__init__", counting_init)
    return created


def _flip_iterate_stiffness(monkeypatch, limit):
    """Make the first `limit` stiffnesses of problems with a reference
    indefinite, so the CG solve at the current iterate fails."""
    original = EllipticProblem.stiffness_matrix
    flipped = []

    def stiffness_matrix(self):
        k = original(self)
        if self.reference is not None and len(flipped) < limit:
            flipped.append(self)
            return -k
        return k

    monkeypatch.setattr(EllipticProblem, "stiffness_matrix", stiffness_matrix)


@ITERATE_MAPS
def test_window_factor_count_does_not_grow_with_iterations(rho, formulation, monkeypatch):
    """The solves at the current iterate are preconditioned by the phi0
    factors, so a window factors the phase operator, its content system
    and the displacement problems at phi0, however many Picard iterates
    it runs.  For rho = 0 the content solve factors the fixed-stress P
    and the plain K0 that its CG applies; the theta form adds the
    augmented problem (four matrices), and the pressure form's
    displacement solves share the plain K0 (three).  For rho = 1 they are
    W + dt B_kappaM, visco0 and the shifted visco problem (four)."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(13)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    created = _counting_factors(monkeypatch)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-11, formulation=formulation)
    _, rep = picard_window(g, m, st, SourceSpec(), cfg)
    assert rep.shrinks == 0 and rep.iterations >= 4
    assert len(created) == (3 if formulation == PRESSURE_FORM else 4)


@pytest.mark.parametrize("rho", [0, 1])
def test_indefinite_iterate_solve_shrinks_dt(rho, monkeypatch):
    """A preconditioned CG solve at the current iterate that meets
    non-positive curvature fails its attempt like a failed factorization:
    dt shrinks, and the attempt records the CG message."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)
    _flip_iterate_stiffness(monkeypatch, 1)
    new_state, rep = picard_window(g, m, st, SourceSpec(), cfg)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)

    _flip_iterate_stiffness(monkeypatch, 10**6)
    with pytest.raises(StepFailure) as exc:
        picard_window(g, m, st, SourceSpec(), cfg)
    assert [a.dt for a in exc.value.attempts] == [1e-3, 5e-4]
    assert all("not positive definite" in a.error for a in exc.value.attempts)


class _NaNSolver:
    """Stands in for a factor whose solves return non-finite values."""

    def apply_inverse(self, b):
        return np.full_like(b, np.nan)


def _negate_operator(solver):
    negated = solver.apply
    solver.apply = lambda q: -negated(q)


# Faults of a content PCG (ContentSchur): each trips one of CG's checks
# at its first iteration.
CONTENT_FAULTS = {
    "negated-P": (lambda s: setattr(s, "precond", DirectSolver(-s.precond.matrix)),
                  "preconditioner not positive definite"),
    "negated-S": (_negate_operator, "operator not positive definite"),
    "non-finite": (lambda s: setattr(s, "k0", _NaNSolver()), "non-finite value"),
}


@pytest.mark.parametrize("fault", sorted(CONTENT_FAULTS))
def test_failed_content_pcg_shrinks_dt(fault, monkeypatch):
    """A quasi-static content PCG that meets a preconditioner or an
    operator that is not positive definite, or a non-finite value, fails
    its attempt at once like a failed factorization: dt shrinks, and the
    attempt records the CG message."""
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)
    inject, message = CONTENT_FAULTS[fault]
    original = FrozenElastic.content_solver

    def faulty(limit):
        broken = []

        def content_solver(self, dt):
            solver = original(self, dt)
            if len(broken) < limit and not any(s is solver for s in broken):
                broken.append(solver)
                inject(solver)
            return solver
        return content_solver

    monkeypatch.setattr(FrozenElastic, "content_solver", faulty(1))
    new_state, rep = picard_window(g, m, st, SourceSpec(), cfg)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)

    monkeypatch.setattr(FrozenElastic, "content_solver", faulty(10**6))
    with pytest.raises(StepFailure) as exc:
        picard_window(g, m, st, SourceSpec(), cfg)
    assert [a.dt for a in exc.value.attempts] == [1e-3, 5e-4]
    for a in exc.value.attempts:
        assert message in a.error and a.residuals == []


def _stale_linearization(g, m, phi):
    """A Linearization whose bundle is frozen at phi, for a window that
    starts elsewhere."""
    lin = Linearization()
    lin.refresh(FrozenVisco if m.rho == 1 else FrozenElastic, g, m, phi)
    return lin


@ITERATE_MAPS
def test_linearization_point_does_not_change_fixed_point(rho, formulation):
    """N carries every nonlinearity, so the frozen L sets only the rate of
    contraction: one window run with its bundle frozen at its own phi0
    and one with a bundle frozen at a smoothly perturbed phase reach the
    same state, to a small multiple of tol_picard."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(18)
    sources = SourceSpec(s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng), sources)
    other = st.phi + 0.2 * smooth_phi(g, rng)
    tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=tol, max_picard=200,
                        formulation=formulation)
    own, own_rep = picard_window(g, m, st, sources, cfg)
    lagged, lagged_rep = picard_window(g, m, st, sources, cfg,
                                       _stale_linearization(g, m, other))
    assert own_rep.shrinks == 0 and lagged_rep.shrinks == 0
    for a, b in ((own.phi, lagged.phi), (own.theta, lagged.theta),
                 (own.u.ux, lagged.u.ux), (own.u.uy, lagged.u.uy)):
        assert np.max(np.abs(a - b)) <= 10 * tol


@ITERATE_MAPS
def test_run_shares_one_bundle_among_several_windows(rho, formulation, monkeypatch):
    """A 20-window run whose Picard counts do not grow builds a bundle
    every BUNDLE_WINDOWS windows: at most ceil(20 / 5) bundles of four
    factors (three in the pressure form), besides the initial state's."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(17)
    created = _counting_factors(monkeypatch)
    st = initial_state(g, m, 0.01 * rng.standard_normal(g.n_nodes), np.zeros(g.n_nodes),
                       SourceSpec())
    initial = len(created)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, tol_picard=1e-6, formulation=formulation)
    _, reports = run_simulation(g, m, cfg, st, SourceSpec())
    assert len(reports) == 20 and all(r.shrinks == 0 for r in reports)
    per_bundle = 3 if formulation == PRESSURE_FORM else 4
    assert len(created) - initial <= -(-20 // BUNDLE_WINDOWS) * per_bundle


@pytest.mark.parametrize("rho", [0, 1])
def test_failed_stale_attempt_retries_on_a_fresh_bundle(rho, monkeypatch):
    """An attempt that fails on a bundle frozen at an earlier phase hands
    a bundle rebuilt at the window's own phi to the attempt at the
    shrunk dt; StepFailure marks the stale attempts."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    other = st.phi + 0.2 * smooth_phi(g, rng)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)

    _flip_iterate_stiffness(monkeypatch, 1)
    lin = _stale_linearization(g, m, other)
    stale = lin.frozen
    new_state, rep = picard_window(g, m, st, SourceSpec(), cfg, lin)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)
    assert lin.frozen is not stale and np.array_equal(lin.frozen.phi0, st.phi)
    assert lin.windows == 1 and lin.first_iterations == rep.iterations

    _flip_iterate_stiffness(monkeypatch, 10**6)
    with pytest.raises(StepFailure) as exc:
        picard_window(g, m, st, SourceSpec(), cfg, _stale_linearization(g, m, other))
    assert [(a.dt, a.fresh) for a in exc.value.attempts] == [(1e-3, False), (5e-4, True)]
    assert "dt tried: 0.001 (stale bundle), 0.0005)" in str(exc.value)


@pytest.mark.parametrize("rho", [0, 1])
def test_bundle_keeps_the_factors_of_one_dt(rho, monkeypatch):
    """A retry on a fresh bundle refactors the dt-dependent matrices at the
    shrunk dt and drops those of the failed dt; the next window, back at
    cfg.dt, drops the shrunk dt's."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)
    _flip_iterate_stiffness(monkeypatch, 1)
    lin = Linearization()
    new_state, rep = picard_window(g, m, st, SourceSpec(), cfg, lin)
    assert rep.shrinks == 1
    assert {dt for _, dt in lin.frozen._solvers} == {5e-4}
    bundle = lin.frozen
    picard_window(g, m, new_state, SourceSpec(), cfg, lin)
    assert {dt for _, dt in bundle._solvers} == {1e-3}


def test_run_keeps_cfg_dt_in_its_last_window():
    """Twenty windows of 1e-3 to t_end = 0.02 all run at exactly cfg.dt:
    the rounding left in t_end - t does not make the last window a new
    dt, which a shared bundle would have to refactor for."""
    g = make_grid(8, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(19)
    st = initial_state(g, m, 0.01 * rng.standard_normal(g.n_nodes), np.zeros(g.n_nodes),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=0.02, tol_picard=1e-6)
    states, reports = run_simulation(g, m, cfg, st, SourceSpec())
    assert len(reports) == 20
    assert all(r.dt_used == cfg.dt for r in reports)
    assert abs(states[-1].t - cfg.t_end) <= 1e-12


def test_run_simulation_window_count_and_observer():
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(11)
    st = initial_state(g, m, 0.1 * smooth_phi(g, rng),
                       np.zeros(g.n_nodes), SourceSpec())
    seen = []
    cfg = StepperConfig(dt=1e-3, t_end=3e-3, tol_picard=1e-9)
    states, reports = run_simulation(g, m, cfg, st, SourceSpec(),
                                     observer=lambda s, r: seen.append(s.t))
    assert len(states) == 4 and len(reports) == 3
    assert seen == [pytest.approx(1e-3), pytest.approx(2e-3), pytest.approx(3e-3)]
    assert states[-1].t == pytest.approx(3e-3)


@pytest.mark.parametrize("field, value", [
    ("dt", np.nan), ("dt", np.inf), ("t_end", np.nan), ("t_end", np.inf)])
def test_stepper_config_rejects_non_finite_times(field, value):
    """A non-finite dt or t_end is rejected when the config is built, with
    a message naming the field, not after zero windows or a burnt retry
    loop."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StepperConfig(**{field: value})
