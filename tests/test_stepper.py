import gc
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chbsim.biot as biot
import chbsim.elliptic as elliptic
import chbsim.stepper as stepper
from chbsim.biot import STIFFNESS_SCALE, apply_B_tilde, apply_fluid_operator
from chbsim.diagnostics import pde_residual
from chbsim.elliptic import (REFERENCE_CG_TOL, VISCO, DirectSolver, EllipticProblem,
                             SolverFailure)
from chbsim.grid import VectorField2, divergence, flux_stiffness_matrix, neumann_laplacian
from chbsim.rhs import (SimState, SourceSpec, ViscoOperators, chemical_potential,
                        displacement_problem, eigenstrain_tensor_source, pressure, stress)
from chbsim.stepper import (ANDERSON_DEPTH, BUNDLE_WINDOWS, FIXED_STRESS_BETA,
                            FIXED_STRESS_MAX_COUPLING, GIVE_UP_AFTER, PREDICTOR_ORDER,
                            ContentSchur, FrozenElastic, FrozenVisco, PRESSURE_FORM, THETA_FORM,
                            Run, StepFailure, StepperConfig, _anderson_step,
                            _extrapolate, _hindcast_order, _pressure_iterates,
                            _theta_iterates, _visco_iterates, initial_state,
                            linear_substep_phi, linear_substep_theta_elastic,
                            linear_substep_theta_visco, linear_substep_u_visco,
                            picard_window, run_simulation)
from conftest import (EDGE_TAGS, FULL_DIRICHLET, MIXED, dense_reference_stiffness, make_grid,
                      make_material, reference_clamped, run_trajectory, smooth_phi)


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


def _fixed_stress_content_modulus(m, phi0):
    """Pressure per unit content of the fixed-stress split at phi0,
    1 / (1/M + beta alpha^2 / K_dr), from the material laws."""
    lam, mu = m.lame(phi0)
    k_drained = STIFFNESS_SCALE * (lam + mu)
    return 1.0 / (1.0 / m.biot_modulus(phi0)
                  + FIXED_STRESS_BETA * m.biot_alpha(phi0)**2 / k_drained)


def _fixed_stress_operator(g, m, phi0):
    """Dense fixed-stress content operator L_fs = W^{-1} B_kappa diag(c) of
    a weakly coupled bundle, c the content modulus above: the frozen A(phi0)
    with the elastic response replaced by the drained one."""
    b_kappa = flux_stiffness_matrix(g, m.permeability(phi0)).toarray()
    return b_kappa * _fixed_stress_content_modulus(m, phi0)[None, :] / g.quad_weights()[:, None]


def test_theta_elastic_substep_matches_dense_implicit_euler():
    """A weakly coupled bundle's content substep is the implicit-Euler
    step (I + dt L_fs) theta = r of the fixed-stress operator."""
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(2)
    phi0 = smooth_phi(g, rng)
    fr = FrozenElastic(g, m, phi0)
    assert fr.coupling <= FIXED_STRESS_MAX_COUPLING
    n = g.n_nodes
    dt = 1e-3
    r = rng.standard_normal(n)
    want = np.linalg.solve(np.eye(n) + dt * _fixed_stress_operator(g, m, phi0), r)
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


def _content_solve_cases(endpoints):
    """The cases of a content-solve test: grid shape and tags, dt, the
    material's endpoint values drawn from `endpoints`, and a seed."""
    return given(nx=st.integers(4, 12), ny=st.integers(4, 12), mixed=st.booleans(),
                 dt=st.sampled_from([1e-4, 1e-3, 1e-2]), ends=endpoints,
                 seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("unknown", ["theta", "q"])
@settings(deadline=None, max_examples=25)
@_content_solve_cases(MATERIAL_ENDPOINTS)
def test_quasi_static_content_solve_matches_dense_solve(unknown, nx, ny, mixed, dt, ends,
                                                        seed):
    """At a coupling strength alpha^2 M / K_dr of at most
    FIXED_STRESS_MAX_COUPLING, both quasi-static content solves are the
    direct fixed-stress solve and match its dense form, built from the
    material laws, and keep the weighted mean of r:
    linear_substep_theta_elastic gives (I - dt W^{-1} B_kappa P^{-1} W) r,
    and the content solver solves P q = W r, with
    P = W diag(1/M + beta alpha^2 / K_dr) + dt B_kappa, whose fixed-stress
    content diag(1/M + beta alpha^2 / K_dr) q has the weighted mean of r."""
    m, coupling = _material_from_endpoints(ends)
    assume(coupling <= FIXED_STRESS_MAX_COUPLING)
    g = make_grid(nx, ny, tags=MIXED if mixed else FULL_DIRICHLET)
    rng = np.random.default_rng(seed)
    phi0 = smooth_phi(g, rng)
    fr = FrozenElastic(g, m, phi0)
    n, w = g.n_nodes, g.quad_weights()
    b_kappa = flux_stiffness_matrix(g, m.permeability(phi0)).toarray()
    p = np.diag(w / _fixed_stress_content_modulus(m, phi0)) + dt * b_kappa
    r = rng.standard_normal(n)
    if unknown == "theta":
        want = r - dt * (b_kappa @ np.linalg.solve(p, w * r)) / w
        got, report = linear_substep_theta_elastic(fr, dt, r)
        content = got
    else:
        want = np.linalg.solve(p, w * r)
        got, report = fr.content_solver(dt).solve(w * r)
        content = got / _fixed_stress_content_modulus(m, phi0)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert abs(np.dot(w, content) - np.dot(w, r)) <= 1e-12 * max(1.0, abs(np.dot(w, r)))
    assert report.iterations <= 12


# Endpoint values of materials whose coupling strength alpha^2 M / K_dr
# exceeds FIXED_STRESS_MAX_COUPLING at every node (at least
# 0.8^2 * 30 / (2 * 4) = 2.4): their bundles solve the content system
# through ContentSchur.
STRONG_MATERIAL_ENDPOINTS = st.fixed_dictionaries({
    "lam": st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    "mu": st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    "alpha": st.tuples(st.floats(0.8, 1.0), st.floats(0.8, 1.0)),
    "modulus": st.tuples(st.floats(30.0, 100.0), st.floats(30.0, 100.0)),
    "kappa": st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
})

# A strongly coupled variant of make_material's law: coupling strength
# 64 / K_dr, between 8 and 16.
STRONG_COUPLING = dict(a0=1.0, a1=0.0, M0=64.0, M1=0.0)


@pytest.mark.parametrize("unknown", ["theta", "q"])
@settings(deadline=None, max_examples=25)
@_content_solve_cases(STRONG_MATERIAL_ENDPOINTS)
def test_content_schur_matches_dense_solve(unknown, nx, ny, mixed, dt, ends, seed):
    """Above FIXED_STRESS_MAX_COUPLING, both quasi-static content solves
    run ContentSchur and match a dense solve built from the operators'
    columns, and keep the weighted mean of r: linear_substep_theta_elastic
    solves (I + dt A(phi0)) theta = r, and the content solver solves
    (W B(phi0) + dt B_kappa) q = W r, whose content B(phi0) q has the
    weighted mean of r.  The fixed-stress PCG needs at most 50 iterations
    here; the count grows with the coupling strength, which reaches 500
    over these materials (measured: 15-19 at 2.4-12, up to 41 beyond),
    not with the grid."""
    m, _ = _material_from_endpoints(ends)
    g = make_grid(nx, ny, tags=MIXED if mixed else FULL_DIRICHLET)
    rng = np.random.default_rng(seed)
    fr = FrozenElastic(g, m, smooth_phi(g, rng))
    assert fr.coupling > FIXED_STRESS_MAX_COUPLING
    assert isinstance(fr.content_solver(dt), ContentSchur)
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
    assert report.iterations <= 50


@pytest.mark.parametrize("tags", [MIXED, FULL_DIRICHLET], ids=["mixed", "clamped"])
def test_content_pcg_iterations_do_not_grow_with_the_grid(tags):
    """The fixed-stress preconditioner is spectrally equivalent to the
    content Schur complement, so for a strongly coupled material, whose
    bundles run ContentSchur, refining 16^2 to 64^2 adds at most two PCG
    iterations at each dt."""
    m = make_material(**STRONG_COUPLING)
    counts = {}
    for n in (16, 64):
        g = make_grid(n, tags=tags)
        rng = np.random.default_rng(17)
        fr = FrozenElastic(g, m, smooth_phi(g, rng))
        assert fr.coupling > FIXED_STRESS_MAX_COUPLING
        r = g.quad_weights() * rng.standard_normal(g.n_nodes)
        counts[n] = [fr.content_solver(dt).solve(r)[1].iterations
                     for dt in (1e-4, 1e-3, 1e-2)]
    assert all(fine <= coarse + 2 for coarse, fine in zip(counts[16], counts[64])), counts


def test_u_visco_substep_trivial_and_continuity():
    """A zero force gives a zero update, and the force Knu0 u_prev / dt
    gives (Knu0 + dt K0)^{-1} Knu0 u_prev, which tends to u_prev as dt
    tends to zero."""
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=1)
    rng = np.random.default_rng(5)
    fr = FrozenVisco(g, m, smooth_phi(g, rng))
    zero = VectorField2.zero(g)
    out, _ = linear_substep_u_visco(fr, 1e-3, zero)
    assert np.allclose(out.ux, 0.0) and np.allclose(out.uy, 0.0)
    u_prev = VectorField2(g, rng.standard_normal(g.n_nodes),
                          rng.standard_normal(g.n_nodes))
    free = ~g.dirichlet_mask()
    u_prev.ux[~free] = 0.0
    u_prev.uy[~free] = 0.0
    dt = 1e-8
    visco0 = EllipticProblem(g, m, fr.phi0, variant=VISCO, scale=STIFFNESS_SCALE)
    kx, ky = visco0.apply(u_prev.ux, u_prev.uy)
    out, _ = linear_substep_u_visco(fr, dt, VectorField2(g, kx / dt, ky / dt))
    assert np.max(np.abs(out.ux - u_prev.ux)) <= 1e-6
    assert np.max(np.abs(out.uy - u_prev.uy)) <= 1e-6


@pytest.mark.parametrize("form", ["theta", "pressure", "visco"])
def test_update_form_map_matches_the_frozen_operator_formula(form):
    """From a non-trivial iterate x_k, the update-form map gives
    x_{k+1} = (I + dt L0)^{-1}(x_n + dt (L0 x_k + N(x_k))), with the
    frozen operators L0 built densely and N evaluated here from the
    derived fields, independently of chbsim.rhs.  The material is weakly
    coupled, so the frozen content operator is the fixed-stress L_fs, and
    the pressure form's formula is the pressure map with
    theta(p) = B_fs p + (theta_k - B_fs p_k), B_fs = diag(1/c) the
    fixed-stress content of a pressure.  The visco displacement update is
    u_k + (Knu0 + dt K0)^{-1}(Knu(phi_k)(u_n - u_k) + dt F_rest), with the
    stiffnesses from the independent dense reference and F_rest the weak
    force of the stress without its viscous part, so the viscous term of
    rhs.stress is checked against the assembled visco stiffness."""
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=int(form == "visco"), eps=0.3)
    rng = np.random.default_rng(15)
    dt = 1e-3
    sources = SourceSpec(s_phase=lambda x, y, t: 0.5 * np.cos(np.pi * x),
                         s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng), sources)
    frozen = (FrozenVisco if form == "visco" else FrozenElastic)(g, m, st.phi)
    iterates = {"theta": _theta_iterates, "pressure": _pressure_iterates,
                "visco": _visco_iterates}[form]
    stream = iterates(frozen, st, sources, dt, st)

    def picard_step():
        # the map yields (x_k, d_k); sending back x_k + d_k = g(x_k) as an
        # iterate, not the accepted state, makes it build the derived
        # fields by its inexact solve and yield the next iterate's state,
        # whose fields are the ones the map goes on to use
        x, d = next(stream)
        return stream.send(([a + b for a, b in zip(x, d)], False))
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
        l_theta = _fixed_stress_operator(g, m, st.phi)
        assert_close(s2.theta, step(l_theta, st.theta, s1.theta, n_theta))
    elif form == "pressure":
        b0 = np.diag(1.0 / _fixed_stress_content_modulus(m, st.phi))
        nl0 = -flux_stiffness_matrix(g, m.permeability(st.phi)).toarray() / w[:, None]
        want = np.linalg.solve(b0 - dt * nl0,
                               st.theta - s1.theta + b0 @ p1 + dt * (n_theta - nl0 @ p1))
        assert_close(pressure(m, s2.phi, s2.theta, divergence(s2.u)), want)
    else:
        l_theta = frozen.b_km.toarray() / w[:, None]
        assert_close(s2.theta, step(l_theta, st.theta, s1.theta, n_theta))

        k_nu1 = dense_reference_stiffness(
            EllipticProblem(g, m, s1.phi, variant=VISCO, scale=STIFFNESS_SCALE))
        shifted0 = dense_reference_stiffness(
            EllipticProblem(g, m, st.phi, variant=VISCO, scale=STIFFNESS_SCALE, shift=dt))
        rx, ry = EllipticProblem(g, m, s1.phi).assemble_rhs(
            tensor_source=stress(g, m, s1.phi, s1.theta, s1.u))
        u_n, u_1, u_2 = (np.concatenate([s.u.ux, s.u.uy]) for s in (st, s1, s2))
        rhs = k_nu1 @ (u_n - u_1) - dt * np.concatenate([rx, ry])
        free = np.flatnonzero(~np.concatenate([reference_clamped(g)] * 2))
        want = u_1.copy()
        want[free] += np.linalg.solve(shifted0[np.ix_(free, free)], rhs[free])
        assert_close(u_2, want)


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
    _, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert rep.shrinks == 0 and rep.iterations >= 2


def test_visco_run_keeps_the_weak_momentum_balance_without_cg(monkeypatch):
    """A Kelvin-Voigt run solves no system at the current iterate: it makes
    no CG call, and every accepted window satisfies the weak momentum
    balance with the implicit-Euler strain rate and the phase of the
    window's end, to a small multiple of tol_picard."""
    calls = []
    original = elliptic.conjugate_gradient

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chbsim" and vars(module).get("conjugate_gradient") is original:
            monkeypatch.setattr(module, "conjugate_gradient", counted)
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=1, eps=0.3, tau1=0.05)
    rng = np.random.default_rng(21)
    sources = SourceSpec(s_phase=lambda x, y, t: 0.5 * np.cos(np.pi * x),
                         s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng), sources)
    tol = 1e-10
    cfg = StepperConfig(dt=1e-3, t_end=3e-3, tol_picard=tol)
    states, reports = run_trajectory(g, m, cfg, st, sources)
    assert len(reports) == 3 and all(r.shrinks == 0 for r in reports)
    for prev, new in zip(states, states[1:]):
        assert pde_residual(g, m, prev, new, sources)["mechanics"] <= 100 * tol
    assert calls == []


@pytest.mark.parametrize("formulation", [THETA_FORM, PRESSURE_FORM])
def test_accepted_state_is_tight_and_the_iterates_are_not(formulation, monkeypatch):
    """Inside a quasi-static window each displacement solve at a Picard
    iterate is inexact: warm-started from the previous iterate's u, it
    takes at most two PCG iterations, and some stop above the absolute
    target.  The accepted state's u is solved to the absolute target,
    from a start whose residual is far below |b|: its augmented momentum
    balance at the accepted (phi, theta) holds to that target (up to
    rounding), and every window keeps the weak momentum residual to
    1e-10.  (The pressure form's first solve of a window, from the start
    state's u, is tight too.)  The recorder sees the windows' solves
    only, not initial_state's."""
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3, tau1=0.05)
    rng = np.random.default_rng(22)
    sources = SourceSpec(s_phase=lambda x, y, t: 0.5 * np.cos(np.pi * x),
                         s_fluid=lambda x, y, t: np.exp(-10.0 * ((x - 0.4)**2 + y**2)))
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng), sources)
    solves = []
    original = elliptic.conjugate_gradient

    def recorded(apply_a, b, **kwargs):
        x, report = original(apply_a, b, **kwargs)
        solves.append((kwargs.get("forcing", 0.0) > 0, report, np.linalg.norm(b)))
        return x, report

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chbsim" and vars(module).get("conjugate_gradient") is original:
            monkeypatch.setattr(module, "conjugate_gradient", recorded)
    cfg = StepperConfig(dt=1e-3, t_end=3e-3, tol_picard=1e-9, formulation=formulation)
    states, reports = run_trajectory(g, m, cfg, st, sources)
    assert len(reports) == 3 and all(r.shrinks == 0 for r in reports)
    for prev, new in zip(states, states[1:]):
        assert pde_residual(g, m, prev, new, sources)["mechanics"] <= 1e-10
        problem = displacement_problem(g, m, new.phi)
        scalar = (eigenstrain_tensor_source(m.coefficients(new.phi))
                  + m.biot_alpha(new.phi) * m.biot_modulus(new.phi) * new.theta)
        b = np.concatenate(problem.assemble_rhs(scalar_source=scalar))
        residual = b - np.concatenate(problem.apply(new.u.ux, new.u.uy))
        assert np.linalg.norm(residual) <= 2 * REFERENCE_CG_TOL * np.linalg.norm(b)

    iterate = [(rep, bnorm) for loose, rep, bnorm in solves if loose]
    tight = [(rep, bnorm) for loose, rep, bnorm in solves if not loose]
    per_window = 2 if formulation == PRESSURE_FORM else 1
    assert len(tight) == per_window * len(reports)
    assert len(iterate) == sum(r.iterations for r in reports) - len(reports)
    assert all(rep.iterations <= 2 for rep, _ in iterate)
    assert any(rep.residual > REFERENCE_CG_TOL * bnorm for rep, bnorm in iterate)
    for rep, bnorm in tight:
        assert rep.residuals[0] <= 1e-4 * bnorm
        assert rep.residual <= REFERENCE_CG_TOL * bnorm


def _initial_balance(g, m, phi, theta, sources):
    """The augmented displacement problem at phi and the weak right-hand
    side b of its momentum balance at (phi, theta) and t = 0."""
    problem = displacement_problem(g, m, phi)
    scalar = (eigenstrain_tensor_source(m.coefficients(phi))
              + m.biot_alpha(phi) * m.biot_modulus(phi) * theta)
    return problem, np.concatenate(problem.assemble_rhs(
        body=sources.body_at(g, 0.0), scalar_source=scalar, traction=sources.traction))


@pytest.mark.parametrize("tags", [MIXED, FULL_DIRICHLET], ids=["mixed", "clamped"])
@pytest.mark.parametrize("nx, ny", [(11, 7), (6, 13)])
def test_initial_state_solves_the_displacement_without_a_factor(nx, ny, tags, monkeypatch):
    """The quasi-static initial state's u is solved by CG preconditioned
    at its own phase: initial_state factors nothing, and u holds the
    augmented momentum balance at (phi, theta), with a body force and,
    on the mixed tags, a traction, to the absolute target of an accepted
    state, and matches a dense solve of the independently assembled
    stiffness."""
    g = make_grid(nx, ny, tags=tags, lx=1.5, ly=0.8)
    m = make_material(eps=0.3, tau1=0.05)
    rng = np.random.default_rng(23)
    phi, theta = 0.8 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng)
    sources = SourceSpec(body=lambda x, y, t: (np.sin(3.0 * x), 0.5 * y),
                         traction={"top": (0.1, -0.2)} if tags == MIXED else None)
    created = _counting_factors(monkeypatch)
    st = initial_state(g, m, phi, theta, sources)
    assert created == []
    problem, b = _initial_balance(g, m, phi, theta, sources)
    u = np.concatenate([st.u.ux, st.u.uy])
    residual = b - np.concatenate(problem.apply(st.u.ux, st.u.uy))
    assert np.linalg.norm(residual) <= 2 * REFERENCE_CG_TOL * np.linalg.norm(b)
    free = np.flatnonzero(~np.tile(reference_clamped(g), 2))
    want = np.zeros_like(u)
    want[free] = np.linalg.solve(dense_reference_stiffness(problem)[np.ix_(free, free)], b[free])
    assert np.max(np.abs(u - want)) <= 1e-10 * np.max(np.abs(want))


def test_initial_state_factors_only_where_its_pcg_fails(monkeypatch):
    """At alpha = 1 and M = 1e3 the augmented stiffness is nearly
    incompressible, and CG from zero preconditioned at phi needs more than
    REFERENCE_CG_MAXITER iterations at 32^2 (116).  initial_state then
    solves u directly, with one factor, to the momentum balance of an
    accepted state, as a run's windows need it to."""
    g = make_grid(32, tags=MIXED)
    m = make_material(a0=1.0, a1=0.0, M0=1e3, M1=0.0)
    rng = np.random.default_rng(0)
    phi, theta = smooth_phi(g, rng), 0.1 * smooth_phi(g, rng)
    problem, b = _initial_balance(g, m, phi, theta, SourceSpec())
    with pytest.raises(SolverFailure, match="did not converge"):
        displacement_problem(g, m, phi, reference=problem).solve(b)
    created = _counting_factors(monkeypatch)
    st = initial_state(g, m, phi, theta, SourceSpec())
    assert len(created) == 1
    residual = b - np.concatenate(problem.apply(st.u.ux, st.u.uy))
    assert np.linalg.norm(residual) <= 2 * REFERENCE_CG_TOL * np.linalg.norm(b)


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
    new, rep = picard_window(Run(g, m, cfg, state, SourceSpec()), cfg.dt, state)
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
    states, _ = run_trajectory(g, m, cfg, st, SourceSpec())
    m0p, m0t = g.mean(st.phi), g.mean(st.theta)
    for s in states:
        assert abs(g.mean(s.phi) - m0p) <= 1e-12
        assert abs(g.mean(s.theta) - m0t) <= 1e-12


def _recording(iterates, sent):
    """The iterate map `iterates`, appending to `sent` every next unknowns
    that the window sends it (with its accepted flag)."""
    def recorded(*args):
        stream = iterates(*args)
        value = None
        while True:
            value = yield stream.send(value)
            if value is not None:
                sent.append(value[0])
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
        _, rep = picard_window(Run(g, m, cfg, st0, sources), cfg.dt, st0)
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
        _, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
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
        final = run_simulation(g, m, cfg, st, SourceSpec())
        finals.append(final)
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
        picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
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
    dt = 2.5e-3 in 32 or 33, and with eps = 0.22 at dt = 3.5e-3 in 36."""
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
        return picard_window(Run(g, m, replace(cfg, max_shrinks=max_shrinks), st), cfg.dt, st)

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


def _assert_accepted_late_at_full_dt(rho, formulation, eps, dt):
    g, m, st = _slowly_contracting_window(rho, eps)
    cfg = StepperConfig(dt=dt, t_end=dt, max_shrinks=0, formulation=formulation)
    _, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert rep.shrinks == 0 and 30 < rep.iterations <= cfg.max_picard


@ITERATE_MAPS
def test_late_converging_window_is_not_given_up(rho, formulation):
    """A window that converges in more than 30 of its 40 iterates is
    accepted at its dt, although the ratios of its accelerated residuals
    vary from iterate to iterate."""
    _assert_accepted_late_at_full_dt(rho, formulation, eps=0.2, dt=2.5e-3)


@ITERATE_MAPS
def test_slowly_contracting_window_keeps_its_full_dt(rho, formulation):
    """A window that converges in 36 of its 40 iterates is accepted at its
    dt.  The ratios of its accelerated residuals swing between 0.42 and
    0.71, so a contraction read off the last three of them predicted a
    miss and gave the attempt up at iterate 10; the rate over the whole
    attempt does not."""
    _assert_accepted_late_at_full_dt(rho, formulation, eps=0.22, dt=3.5e-3)


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
        picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert "dt tried: 0.001, 0.0005, 0.00025" in str(exc.value)
    attempts = exc.value.attempts
    assert [a.dt for a in attempts] == [0.001, 0.0005, 0.00025]
    for a in attempts:
        assert "non-finite" in a.error
        assert a.residuals == []


def test_wrongly_ordered_direct_solve_fails_the_window_at_once(monkeypatch):
    """A Kelvin-Voigt window whose displacement factor does not undo its
    node-major ordering solves finitely but wrongly: every attempt fails
    at its first iterate on the direct solve's backward error, naming the
    residual, and the window ends in StepFailure within seconds, not
    after a crawl of shrunk windows to the right state."""
    def unordered(self, b):
        return self._lu.solve(b if self._order is None else b[self._order])

    monkeypatch.setattr(DirectSolver, "apply_inverse", unordered)
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=1, eps=0.3)
    rng = np.random.default_rng(13)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    start = time.perf_counter()
    with pytest.raises(StepFailure) as exc:
        picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert time.perf_counter() - start <= 20.0
    attempts = exc.value.attempts
    assert len(attempts) == cfg.max_shrinks + 1
    for a in attempts:
        assert a.residuals == [] and "direct solve residual" in a.error


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


def _fault_first_solves(monkeypatch, rho, limit):
    """Make the first `limit` attempts' displacement solves fail.  For
    rho = 0, the stiffness at the current iterate turns indefinite, so its
    CG fails; the Kelvin-Voigt map solves at no current iterate, so for
    rho = 1 the first `limit` shifted visco problems turn singular, and
    their factorization fails."""
    if rho == 0:
        _flip_iterate_stiffness(monkeypatch, limit)
        return
    original = FrozenVisco.shifted_problem
    broken = []

    def shifted_problem(self, dt):
        problem = original(self, dt)
        if len(broken) < limit and not any(p is problem for p in broken):
            broken.append(problem)
            problem._stiffness = 0.0 * problem.stiffness_matrix()
        return problem

    monkeypatch.setattr(FrozenVisco, "shifted_problem", shifted_problem)


@ITERATE_MAPS
def test_window_factor_count_does_not_grow_with_iterations(rho, formulation, monkeypatch):
    """A window factors the phase operator and its content system once,
    however many Picard iterates it runs.  For rho = 0 the weakly coupled
    content solve factors the fixed-stress P alone, and the displacement
    solves at the current iterate, in both forms, are CG preconditioned
    by the block fast-diagonalization of the displacement problem at
    phi0, which factors nothing (two matrices).  For rho = 1 they are
    W + dt B_kappaM and the shifted visco problem (three): its map solves
    at no current iterate."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(13)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    created = _counting_factors(monkeypatch)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-11, formulation=formulation)
    _, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert rep.shrinks == 0 and rep.iterations >= 4
    assert len(created) == (3 if rho == 1 else 2)


@pytest.mark.parametrize("formulation", [THETA_FORM, PRESSURE_FORM], ids=["0", "pressure"])
def test_indefinite_iterate_solve_shrinks_dt(formulation, monkeypatch):
    """A preconditioned CG solve at the current iterate (the theta form's
    reconstruction, the pressure form's displacement) that meets
    non-positive curvature fails its attempt like a failed factorization:
    dt shrinks, and the attempt records the CG message."""
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1,
                        formulation=formulation)
    _flip_iterate_stiffness(monkeypatch, 1)
    new_state, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)

    _flip_iterate_stiffness(monkeypatch, 10**6)
    with pytest.raises(StepFailure) as exc:
        picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
    assert [a.dt for a in exc.value.attempts] == [1e-3, 5e-4]
    assert all("not positive definite" in a.error for a in exc.value.attempts)


class _NaNSolver:
    """Stands in for a factor whose solves return non-finite values."""

    def apply_inverse(self, b):
        return np.full_like(b, np.nan)

    solve = apply_inverse


def _negate_operator(solver):
    negated = solver.apply
    solver.apply = lambda q: -negated(q)


def _singular(solver):
    DirectSolver(0.0 * solver.matrix)


# Faults of a content PCG (ContentSchur) of a strongly coupled bundle:
# each trips one of CG's checks at its first iteration.  And faults of the
# direct fixed-stress solve of a weakly coupled one: a factor whose solve
# is not finite, and a singular P, whose factorization fails.
CONTENT_FAULTS = {
    "negated-P": (lambda s: setattr(s, "precond", DirectSolver(-s.precond.matrix)),
                  "preconditioner not positive definite"),
    "negated-S": (_negate_operator, "operator not positive definite"),
    "non-finite": (lambda s: setattr(s, "k0", _NaNSolver()), "non-finite value"),
}
FIXED_STRESS_FAULTS = {
    "non-finite": (lambda s: setattr(s, "_lu", _NaNSolver()), "non-finite values"),
    "singular": (_singular, "sparse factorization failed"),
}


def _check_failed_content_solve_shrinks_dt(monkeypatch, material, inject, message):
    """A window whose content solver gets `inject`ed on its first use at
    each dt fails that attempt with `message` and shrinks dt; injected at
    every dt, it fails after max_shrinks with the message in every attempt."""
    g = make_grid(10, tags=MIXED)
    rng = np.random.default_rng(14)
    st = initial_state(g, material, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)
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
    new_state, rep = picard_window(Run(g, material, cfg, st, SourceSpec()), cfg.dt, st)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)

    monkeypatch.setattr(FrozenElastic, "content_solver", faulty(10**6))
    with pytest.raises(StepFailure) as exc:
        picard_window(Run(g, material, cfg, st, SourceSpec()), cfg.dt, st)
    assert [a.dt for a in exc.value.attempts] == [1e-3, 5e-4]
    for a in exc.value.attempts:
        assert message in a.error and a.residuals == []


@pytest.mark.parametrize("fault", sorted(CONTENT_FAULTS))
def test_failed_content_pcg_shrinks_dt(fault, monkeypatch):
    """A quasi-static content PCG that meets a preconditioner or an
    operator that is not positive definite, or a non-finite value, fails
    its attempt at once like a failed factorization: dt shrinks, and the
    attempt records the CG message."""
    m = make_material(eps=0.3, **STRONG_COUPLING)
    assert isinstance(FrozenElastic(make_grid(4), m, np.zeros(16)).content_solver(1e-3),
                      ContentSchur)
    _check_failed_content_solve_shrinks_dt(monkeypatch, m, *CONTENT_FAULTS[fault])


@pytest.mark.parametrize("fault", sorted(FIXED_STRESS_FAULTS))
def test_failed_fixed_stress_solve_shrinks_dt(fault, monkeypatch):
    """A weakly coupled bundle's direct fixed-stress solve that returns
    non-finite values, or whose P is singular, fails its attempt at once:
    dt shrinks, and the attempt records the solver's message."""
    m = make_material(eps=0.3)
    assert isinstance(FrozenElastic(make_grid(4), m, np.zeros(16)).content_solver(1e-3),
                      DirectSolver)
    _check_failed_content_solve_shrinks_dt(monkeypatch, m, *FIXED_STRESS_FAULTS[fault])


@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_content_operator_follows_the_coupling_strength(strong, monkeypatch):
    """A bundle whose coupling strength is at most
    FIXED_STRESS_MAX_COUPLING takes the fixed-stress P as its content
    operator: a theta-form window factors the phase operator and P, and
    no displacement problem.  A strongly coupled bundle keeps
    ContentSchur, with its K0 factor (three factors), and the window
    converges in the 12 Picard iterates that the exact Schur solve took
    before the split."""
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3, **(STRONG_COUPLING if strong else {}))
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    created = _counting_factors(monkeypatch)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10)
    run = Run(g, m, cfg, st)
    _, rep = picard_window(run, cfg.dt, st)
    assert rep.shrinks == 0
    assert (run.frozen.coupling > FIXED_STRESS_MAX_COUPLING) == strong
    solver = run.frozen.content_solver(cfg.dt)
    if strong:
        assert isinstance(solver, ContentSchur)
        assert run.frozen.ctx0.plain._solver is solver.k0
        assert len(created) == 3 and rep.iterations == 12
    else:
        assert isinstance(solver, DirectSolver)
        assert run.frozen.ctx0.plain._solver is None
        assert len(created) == 2
    assert run.frozen.ctx0.augmented._solver is None


def _stale_bundle(g, m, phi):
    """A bundle of m's regime frozen at phi, for a window that starts
    elsewhere."""
    return (FrozenVisco if m.rho == 1 else FrozenElastic)(g, m, phi)


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
    own, own_rep = picard_window(Run(g, m, cfg, st, sources), cfg.dt, st)
    lagged, lagged_rep = picard_window(
        Run(g, m, cfg, st, sources, frozen=_stale_bundle(g, m, other)), cfg.dt, st)
    assert own_rep.shrinks == 0 and lagged_rep.shrinks == 0
    for a, b in ((own.phi, lagged.phi), (own.theta, lagged.theta),
                 (own.u.ux, lagged.u.ux), (own.u.uy, lagged.u.uy)):
        assert np.max(np.abs(a - b)) <= 10 * tol


def _counting_bundles(monkeypatch):
    built = []
    original = stepper._FrozenPhase.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(stepper._FrozenPhase, "__post_init__", counting)
    return built


@ITERATE_MAPS
def test_run_shares_one_bundle_among_several_windows(rho, formulation, monkeypatch):
    """A run of 2 BUNDLE_WINDOWS + 1 windows with no failed attempt builds
    a bundle every BUNDLE_WINDOWS windows: exactly
    ceil(windows / BUNDLE_WINDOWS) bundles, each of three factors (visco)
    or two (quasi-static).  initial_state factors nothing in either
    regime, so these are all the factors of the run."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(17)
    created = _counting_factors(monkeypatch)
    st = initial_state(g, m, 0.01 * rng.standard_normal(g.n_nodes), np.zeros(g.n_nodes),
                       SourceSpec())
    assert created == []
    built = _counting_bundles(monkeypatch)
    windows = 2 * BUNDLE_WINDOWS + 1
    cfg = StepperConfig(dt=1e-3, t_end=windows * 1e-3, tol_picard=1e-6,
                        formulation=formulation)
    _, reports = run_trajectory(g, m, cfg, st, SourceSpec())
    assert len(reports) == windows and all(r.shrinks == 0 for r in reports)
    assert len(built) == -(-windows // BUNDLE_WINDOWS)
    assert len(created) == len(built) * (3 if rho == 1 else 2)


def test_bundle_is_dropped_only_after_bundle_windows():
    """A bundle serves BUNDLE_WINDOWS windows whatever their Picard
    counts: a run keeps the bundle it is given, and counts its accepted
    windows, until the BUNDLE_WINDOWS-th drops it, and not before."""
    g = make_grid(8, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(12)
    st = initial_state(g, m, 0.1 * smooth_phi(g, rng), np.zeros(g.n_nodes), SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1.0, tol_picard=1e-6)
    bundle = FrozenElastic(g, m, np.zeros(g.n_nodes))
    run = Run(g, m, cfg, st, frozen=bundle)
    iterations = set()
    for windows in range(1, BUNDLE_WINDOWS):
        iterations.add(run.step().iterations)
        assert run.frozen is bundle and run.windows == windows
    run.step()
    assert run.frozen is None and len(iterations) > 1


@pytest.mark.parametrize("rho", [0, 1])
def test_a_run_at_t_end_refuses_another_window(rho):
    """Run.step on a run that has reached t_end raises ValueError naming t
    and t_end, and steps no zero-length window; run_simulation stops on
    the same margin, after the two windows that Run.step made."""
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(19)
    st = initial_state(g, m, 0.1 * smooth_phi(g, rng), np.zeros(g.n_nodes), SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=2e-3, tol_picard=1e-6)
    run = Run(g, m, cfg, st)
    assert [run.step().dt_used for _ in range(2)] == [1e-3, 1e-3]
    assert run.done
    with pytest.raises(ValueError, match=r"t = 0\.002\d*, t_end = 0\.002$"):
        run.step()
    states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
    assert len(reports) == 2
    assert all(np.array_equal(a, b) for a, b in zip(
        (states[-1].phi, states[-1].theta, states[-1].u.ux, states[-1].u.uy),
        (run.state.phi, run.state.theta, run.state.u.ux, run.state.u.uy)))


@pytest.mark.parametrize("bundle", ["stale", "fresh"])
@pytest.mark.parametrize("rho", [0, 1])
def test_failed_attempt_retries_on_a_bundle_rebuilt_at_the_window_phase(
        rho, bundle, monkeypatch):
    """An attempt that fails hands a new bundle, built at the window's own
    phi, to the attempt at the shrunk dt, whether the failed bundle was
    frozen at an earlier phase (stale) or built by this window (fresh);
    the retried window is bitwise the window run directly at the shrunk
    dt on a new Run.  StepFailure lists the dt values tried."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    other = st.phi + 0.2 * smooth_phi(g, rng)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)

    def new_run():
        return Run(g, m, cfg, st, frozen=None if bundle == "fresh" else _stale_bundle(g, m, other))

    _fault_first_solves(monkeypatch, rho, 1)
    built = _counting_bundles(monkeypatch)
    run = new_run()
    new_state, rep = picard_window(run, cfg.dt, st)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4
    assert new_state.t == pytest.approx(st.t + 5e-4)
    assert len(built) == 2 and run.frozen is built[1]
    assert np.array_equal(run.frozen.phi0, st.phi) and run.windows == 1
    direct, direct_rep = picard_window(Run(g, m, cfg, st), 5e-4, st)
    assert rep.residuals == direct_rep.residuals and new_state.t == direct.t
    for a, b in ((new_state.phi, direct.phi), (new_state.theta, direct.theta),
                 (new_state.u.ux, direct.u.ux), (new_state.u.uy, direct.u.uy)):
        assert a.tobytes() == b.tobytes()

    _fault_first_solves(monkeypatch, rho, 10**6)
    with pytest.raises(StepFailure) as exc:
        picard_window(new_run(), cfg.dt, st)
    assert [a.dt for a in exc.value.attempts] == [1e-3, 5e-4]
    assert "dt tried: 0.001, 0.0005)" in str(exc.value)


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
    _fault_first_solves(monkeypatch, rho, 1)
    run = Run(g, m, cfg, st)
    run.state, rep = picard_window(run, cfg.dt, st)
    assert rep.shrinks == 1
    assert {dt for _, dt in run.frozen._solvers} == {5e-4}
    bundle = run.frozen
    picard_window(run, cfg.dt, run.state)
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
    states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
    assert len(reports) == 20
    assert all(r.dt_used == cfg.dt for r in reports)
    assert abs(states[-1].t - cfg.t_end) <= 1e-12


@ITERATE_MAPS
def test_run_keeps_no_trajectory(rho, formulation):
    """run_simulation holds only its Run, so its memory does not grow
    with the windows: of the states and PicardReports an observer sees,
    keeping only weak references, the returned final state alone is
    still alive after the call, over enough windows to rebuild the
    bundle twice and fill the predictor's history."""
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(11)
    st = initial_state(g, m, 0.1 * smooth_phi(g, rng), np.zeros(g.n_nodes), SourceSpec())
    states, reports = [], []

    def keep_weakly(state, report):
        states.append(weakref.ref(state))
        reports.append(weakref.ref(report))

    windows = 2 * BUNDLE_WINDOWS + 1
    cfg = StepperConfig(dt=1e-3, t_end=windows * 1e-3, tol_picard=1e-6,
                        formulation=formulation)
    final = run_simulation(g, m, cfg, st, SourceSpec(), observer=keep_weakly)
    gc.collect()
    alive = [ref() for ref in states if ref() is not None]
    assert len(states) == len(reports) == windows
    assert len(alive) == 1 and alive[0] is final
    assert all(ref() is None for ref in reports)


# Window end times with a shrunk window (2.5e-3) and a short last one.
PREDICTOR_TIMES = [0.0, 1e-3, 2e-3, 2.5e-3, 3.5e-3, 3.8e-3]


@pytest.mark.parametrize("order", range(PREDICTOR_ORDER + 1))
def test_extrapolation_is_exact_for_polynomials_of_its_order(order):
    """The Lagrange extrapolation through order + 1 states at non-uniform
    times, those of a shrunk window among them, reproduces fields that
    are polynomials in t of degree at most order."""
    rng = np.random.default_rng(order)
    coefficients = rng.standard_normal((order + 1, 50))

    def field(t):
        return sum(c * t**d for d, c in enumerate(coefficients))

    for end in range(order + 1, len(PREDICTOR_TIMES)):
        history = [(t, field(t)) for t in PREDICTOR_TIMES[end - order - 1:end]]
        t = PREDICTOR_TIMES[end]
        assert np.allclose(_extrapolate(history, t), field(t), rtol=0, atol=1e-12)


def test_hindcast_picks_the_order_that_predicted_the_last_state():
    """A cubic history is predicted exactly by the cubic extrapolation
    alone, so the hindcast picks it; a quadratic history of four states,
    which allow orders up to 2, gives 2."""
    w = np.full(20, 0.05)
    v = np.random.default_rng(3).standard_normal((4, 20))
    cubic = [(t, v[0] + t * v[1] + t**2 * v[2] + t**3 * v[3]) for t in PREDICTOR_TIMES[1:]]
    quadratic = [(t, v[0] + t * v[1] + t**2 * v[2]) for t in PREDICTOR_TIMES[2:]]
    assert _hindcast_order(w, cubic) == PREDICTOR_ORDER == 3
    assert _hindcast_order(w, quadratic) == 2


def test_hindcast_keeps_x_n_with_fewer_than_three_states():
    """One or two states give no extrapolation to check against the last
    state, so the hindcast returns 0 even on a linear history."""
    w = np.full(20, 0.05)
    v = np.random.default_rng(4).standard_normal((2, 20))
    linear = [(t, v[0] + t * v[1]) for t in PREDICTOR_TIMES]
    assert _hindcast_order(w, linear[:1]) == 0
    assert _hindcast_order(w, linear[:2]) == 0
    assert _hindcast_order(w, linear[:3]) == 1


def test_hindcast_keeps_x_n_on_a_stiff_decaying_history():
    """States that decay geometrically onto a rest state, by a factor 0.1
    per window (a stiff mode), are overshot by every extrapolation:
    linear extrapolation errs by (1 - r)^2 against the last step's
    r (1 - r), so the hindcast keeps x_n."""
    w = np.full(20, 0.05)
    rest, mode = np.random.default_rng(5).standard_normal((2, 20))
    history = [(1e-3 * j, rest + 0.1**j * mode) for j in range(PREDICTOR_ORDER + 2)]
    assert _hindcast_order(w, history) == 0


def _spinodal_start(rho):
    """Small noise about the mixed state on a 12^2 grid: a smooth run."""
    g = make_grid(12, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(17)
    st = initial_state(g, m, 0.01 * rng.standard_normal(g.n_nodes), np.zeros(g.n_nodes),
                       SourceSpec())
    return g, m, st


def _largest_gap(states, reference):
    return max(max(np.max(np.abs(a - b)) for a, b in (
        (x.phi, y.phi), (x.theta, y.theta), (x.u.ux, y.u.ux), (x.u.uy, y.u.uy)))
        for x, y in zip(states, reference, strict=True))


@ITERATE_MAPS
def test_predicted_starts_save_iterates_within_the_picard_tolerance(rho, formulation):
    """On a smooth spinodal run, run_simulation's predicted starts take
    fewer Picard iterates, with no shrink, than the same windows run one
    by one by picard_window from x_n, and its accepted states stay within
    3 times that loop's gap to a tol_picard = 1e-11 reference.  The first
    two windows start from x_n (start_order 0); later ones from an
    extrapolation."""
    g, m, st = _spinodal_start(rho)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, tol_picard=1e-6, formulation=formulation)
    states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
    reference, _ = run_trajectory(g, m, replace(cfg, tol_picard=1e-11), st, SourceSpec())
    run, loop, loop_reports = Run(g, m, cfg, st), [st], []
    for _ in reports:
        run.state, rep = picard_window(run, cfg.dt, run.state)
        loop.append(run.state)
        loop_reports.append(rep)
    assert all(r.shrinks == 0 for r in reports + loop_reports)
    assert all(r.start_order == 0 for r in loop_reports)
    assert [r.start_order for r in reports[:2]] == [0, 0]
    assert max(r.start_order for r in reports) == PREDICTOR_ORDER
    iterations = sum(r.iterations for r in reports)
    assert iterations < 0.75 * sum(r.iterations for r in loop_reports)
    assert _largest_gap(states, reference) <= 3 * _largest_gap(loop, reference)


@ITERATE_MAPS
def test_window_started_at_its_fixed_point_accepts_at_once(rho, formulation):
    """picard_window's start is the first attempt's x_0: started at the
    window's own accepted state, solved to 1e-11, the window accepts
    its first iterate, at the same state to the Picard tolerance.  It
    reports start_order 0: only Run.step knows the order of a start."""
    g, m, st = _spinodal_start(rho)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-8, formulation=formulation)
    fixed_point, rep = picard_window(Run(g, m, replace(cfg, tol_picard=1e-11), st), cfg.dt, st)
    assert rep.iterations > 1
    new, rep = picard_window(Run(g, m, cfg, st), cfg.dt, fixed_point)
    assert rep.iterations == 1 and rep.shrinks == 0 and rep.start_order == 0
    assert _largest_gap([new], [fixed_point]) <= 1e-8


@pytest.mark.parametrize("rho", [0, 1])
def test_failed_predicted_attempt_retries_from_the_window_start(rho, monkeypatch):
    """An attempt from a predicted start that fails hands the attempt at
    the shrunk dt x_n, not the prediction, on a bundle rebuilt at the
    window's phi: the retried window is bitwise the window run directly
    at the shrunk dt from x_n on a new Run, and reports start_order 0."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=rho, eps=0.3)
    rng = np.random.default_rng(14)
    st = initial_state(g, m, 0.3 * smooth_phi(g, rng), 0.1 * smooth_phi(g, rng),
                       SourceSpec())
    predicted = SimState(g, st.phi + 0.01 * smooth_phi(g, rng), st.theta + 0.01,
                         st.u.copy(), st.t + 1e-3)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-10, max_shrinks=1)
    _fault_first_solves(monkeypatch, rho, 1)
    new_state, rep = picard_window(Run(g, m, cfg, st), cfg.dt, predicted)
    assert rep.shrinks == 1 and rep.dt_used == 5e-4 and rep.start_order == 0
    direct, direct_rep = picard_window(Run(g, m, cfg, st), 5e-4, st)
    assert rep.residuals == direct_rep.residuals and new_state.t == direct.t
    for a, b in ((new_state.phi, direct.phi), (new_state.theta, direct.theta),
                 (new_state.u.ux, direct.u.ux), (new_state.u.uy, direct.u.uy)):
        assert a.tobytes() == b.tobytes()


@ITERATE_MAPS
def test_retried_window_of_a_run_reports_start_order_zero(rho, formulation, monkeypatch):
    """In a run whose seventh window fails its attempt from a predicted
    start, that window is retried from x_n at the shrunk dt and reports
    start_order 0; the windows after it extrapolate through the shrunk
    window's non-uniform times again.  Run.step calls picard_window
    through the module at every window, so a wrapper set on the module
    sees each one."""
    g, m, st = _spinodal_start(rho)
    cfg = StepperConfig(dt=1e-3, t_end=0.012, tol_picard=1e-6, formulation=formulation)
    substep, window = stepper.linear_substep_phi, stepper.picard_window
    fail, starts = [], []

    def failing_once(*args):
        if fail:
            fail.clear()
            raise SolverFailure("injected failure", [])
        return substep(*args)

    def recording_window(run, dt, start):
        starts.append(None if start is run.state else start)
        fail[:] = [True] * (len(starts) == 7)   # the seventh window's first solve
        return window(run, dt, start)

    monkeypatch.setattr(stepper, "linear_substep_phi", failing_once)
    monkeypatch.setattr(stepper, "picard_window", recording_window)
    states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
    final = states[-1]
    assert len(starts) == len(reports)
    assert [r.shrinks for r in reports] == [0] * 6 + [1] + [0] * (len(reports) - 7)
    assert starts[6] is not None
    assert reports[6].dt_used == 5e-4 and reports[6].start_order == 0
    assert all((r.start_order > 0) == (s is not None) for r, s in zip(reports, starts)
               if r.shrinks == 0)
    assert max(r.start_order for r in reports[7:]) > 0
    assert abs(final.t - cfg.t_end) <= 1e-12


def test_run_simulation_window_count_and_observer():
    g = make_grid(10, tags=MIXED)
    m = make_material(eps=0.3)
    rng = np.random.default_rng(11)
    st = initial_state(g, m, 0.1 * smooth_phi(g, rng),
                       np.zeros(g.n_nodes), SourceSpec())
    seen, reports = [], []
    cfg = StepperConfig(dt=1e-3, t_end=3e-3, tol_picard=1e-9)
    final = run_simulation(g, m, cfg, st, SourceSpec(),
                           observer=lambda s, r: (seen.append(s.t), reports.append(r)))
    assert len(reports) == 3
    assert seen == [pytest.approx(1e-3), pytest.approx(2e-3), pytest.approx(3e-3)]
    assert final.t == pytest.approx(3e-3)


@pytest.mark.parametrize("field, value", [
    ("dt", np.nan), ("dt", np.inf), ("t_end", np.nan), ("t_end", np.inf)])
def test_stepper_config_rejects_non_finite_times(field, value):
    """A non-finite dt or t_end is rejected when the config is built, with
    a message naming the field, not after zero windows or a burnt retry
    loop."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StepperConfig(**{field: value})
