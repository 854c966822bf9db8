import numpy as np

from chbsim.grid import VectorField2, divergence, symmetric_gradient
from chbsim.rhs import (SourceSpec,
                        chemical_potential, displacement_problem, pressure,
                        reconstruct_displacement, rhs_elastic, rhs_visco,
                        stress)
from conftest import (FULL_DIRICHLET, MIXED, make_grid, make_material,
                      reference_stiffness_apply, smooth_phi)


def test_pressure_values():
    m = make_material(M0=2.0, M1=0.0, a0=1.0, a1=0.0)
    phi = np.zeros(4)
    # u = 0, theta = 3: p = M theta = 6
    assert np.allclose(pressure(m, phi, np.full(4, 3.0), np.zeros(4)), 6.0)
    m0 = make_material(a0=0.0, a1=0.0)
    theta = np.array([1.0, -2.0, 0.5, 0.0])
    assert np.allclose(pressure(m0, phi, theta, np.ones(4)),
                       m0.biot_modulus(phi) * theta)
    # theta exactly alpha div u: zero pressure
    div_u = np.array([2.0, 4.0, -1.0, 0.0])
    assert np.allclose(pressure(m, phi, 1.0 * div_u, div_u), 0.0)


def test_chemical_potential_uniform_states():
    g = make_grid(8, tags=MIXED)
    m = make_material(eps=1.0, psi_scale=1.0, lam_a=1.0, lam_b=1.0,
                      mu_a=1.0, mu_b=1.0, tau0=0.0, tau1=0.0,
                      M1=0.0, a1=0.0)
    u = VectorField2.zero(g)
    mu_val = chemical_potential(g, m, np.full(g.n_nodes, 0.5),
                                np.zeros(g.n_nodes), u)
    assert np.allclose(mu_val, -1.5, atol=1e-10)
    for p in (1.0, -1.0):
        mu_val = chemical_potential(g, m, np.full(g.n_nodes, p),
                                    np.zeros(g.n_nodes), u)
        assert np.allclose(mu_val, 0.0, atol=1e-10)


def test_stress_uniform_state():
    g = make_grid(8, tags=MIXED)
    m = make_material(M0=2.0, M1=0.0, a0=1.0, a1=0.0, tau0=0.0, tau1=0.0)
    u = VectorField2.zero(g)
    theta = np.full(g.n_nodes, 3.0)
    sig = stress(g, m, np.zeros(g.n_nodes), theta, u)
    assert np.allclose(sig.xx, -6.0, atol=1e-12)
    assert np.allclose(sig.yy, -6.0, atol=1e-12)
    assert np.allclose(sig.xy, 0.0, atol=1e-12)
    m1 = make_material(rho=1, M0=2.0, M1=0.0, a0=1.0, a1=0.0,
                       tau0=0.0, tau1=0.0)
    sig1 = stress(g, m1, np.zeros(g.n_nodes), theta, u,
                  strain_rate=symmetric_gradient(VectorField2.zero(g)))
    assert np.allclose(sig1.xx, sig.xx) and np.allclose(sig1.xy, sig.xy)


def test_derived_fields_are_local():
    """Pressure and stress are pointwise-local up to the strain stencil;
    the chemical potential adds only the Laplacian stencil."""
    g = make_grid(10, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(0)
    phi = smooth_phi(g, rng)
    theta = rng.standard_normal(g.n_nodes)
    u = VectorField2(g, rng.standard_normal(g.n_nodes),
                     rng.standard_normal(g.n_nodes))
    base_mu = chemical_potential(g, m, phi, theta, u)
    k = 5 * 10 + 5
    phi2 = phi.copy()
    phi2[k] += 0.1
    pert_mu = chemical_potential(g, m, phi2, theta, u)
    changed = np.nonzero(np.abs(pert_mu - base_mu) > 1e-13)[0]
    iy, ix = divmod(changed, 10)
    assert (np.abs(iy - 5) + np.abs(ix - 5) <= 2).all()
    dv = divergence(u)
    base_p = pressure(m, phi, theta, dv)
    p2 = pressure(m, phi2, theta, dv)
    assert (np.nonzero(np.abs(p2 - base_p) > 1e-14)[0] == [k]).all()


def test_quasistatic_momentum_balance():
    """Reconstructed displacement solves the plain momentum balance with
    the pressure (not the augmentation) on the right-hand side."""
    from chbsim.elliptic import EllipticProblem
    from chbsim.biot import STIFFNESS_SCALE
    from chbsim.rhs import eigenstrain_tensor_source
    g = make_grid(12, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(1)
    phi = smooth_phi(g, rng)
    theta = 0.3 * smooth_phi(g, rng)
    prob = displacement_problem(g, m, phi)
    u, _ = reconstruct_displacement(prob, m, theta, SourceSpec(), 0.0)
    plain = EllipticProblem(g, m, phi, scale=STIFFNESS_SCALE)
    kx, ky = reference_stiffness_apply(plain, u.ux, u.uy)
    p = pressure(m, phi, theta, divergence(u))
    rx, ry = plain.assemble_rhs(
        scalar_source=eigenstrain_tensor_source(m.coefficients(phi)) + m.biot_alpha(phi) * p)
    res = np.concatenate([kx - rx, ky - ry])
    scale = max(1.0, np.max(np.abs(np.concatenate([rx, ry]))))
    assert np.max(np.abs(res)) <= 1e-8 * scale


def test_rhs_elastic_vanishes_at_uniform_equilibrium():
    # fully clamped boundary: with a traction-free edge the uniform
    # pressure deforms the body, p is no longer uniform and the fluid
    # flows, so the state would not be an equilibrium
    g = make_grid(10, tags=FULL_DIRICHLET)
    m = make_material(m1=0.0, k1=0.0, M1=0.0, a1=0.0, tau0=0.0, tau1=0.0,
                      lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0)
    phi = np.ones(g.n_nodes)           # pure phase: psi'(1) = 0
    theta = np.full(g.n_nodes, 0.7)
    prob = displacement_problem(g, m, phi)
    u, _ = reconstruct_displacement(prob, m, theta, SourceSpec(), 0.0)
    f_phi, f_theta = rhs_elastic(g, m, phi, theta, u, SourceSpec(), 0.0)
    assert np.max(np.abs(f_phi)) <= 1e-9
    assert np.max(np.abs(f_theta)) <= 1e-9


def test_rhs_visco_vanishes_at_uniform_equilibrium():
    """At rest (u = u_n) in a uniform pure phase, the phase and content
    tendencies and the weak momentum force F_u all vanish."""
    g = make_grid(10, tags=MIXED)
    m = make_material(rho=1, m1=0.0, k1=0.0, M1=0.0, a1=0.0,
                      tau0=0.0, tau1=0.0,
                      lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0)
    phi = np.ones(g.n_nodes)
    theta = np.zeros(g.n_nodes)
    u = VectorField2.zero(g)
    f_phi, f_u, f_theta = rhs_visco(g, m, phi, theta, u, u.copy(), 1e-3, SourceSpec(), 0.0)
    assert np.max(np.abs(f_phi)) <= 1e-9
    assert np.max(np.abs(f_u.ux)) <= 1e-9 and np.max(np.abs(f_u.uy)) <= 1e-9
    assert np.max(np.abs(f_theta)) <= 1e-9


def test_rhs_lipschitz_sampled():
    """Finite sampled Lipschitz ratio of the nonlinear right-hand side."""
    g = make_grid(10, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(2)
    phi0 = smooth_phi(g, rng, amp=0.5)
    prob = displacement_problem(g, m, phi0)
    w = g.quad_weights()

    def fval(phi, theta):
        u, _ = reconstruct_displacement(prob, m, theta, SourceSpec(), 0.0)
        f_phi, f_theta = rhs_elastic(g, m, phi, theta, u, SourceSpec(), 0.0)
        return np.concatenate([f_phi, f_theta])

    ratios = []
    for _ in range(10):
        pa = phi0 + 0.1 * smooth_phi(g, rng)
        ta = 0.1 * smooth_phi(g, rng)
        pb = pa + 0.01 * smooth_phi(g, rng)
        tb = ta + 0.01 * smooth_phi(g, rng)
        dx = np.sqrt(np.dot(w, (pa - pb) ** 2) + np.dot(w, (ta - tb) ** 2))
        df = fval(pa, ta) - fval(pb, tb)
        nf = np.sqrt(np.dot(np.concatenate([w, w]), df**2))
        ratios.append(nf / dx)
    assert np.isfinite(ratios).all()
    assert max(ratios) < 1e4


def test_rhs_visco_at_phi0_reuses_the_window_factor(monkeypatch):
    """rhs_visco evaluates the weak momentum force at the implicit-Euler
    strain rate and solves nothing: it factors no matrix, at the window's
    start phase phi0 or at any other."""
    import chbsim.elliptic as elliptic
    g = make_grid(8, tags=MIXED)
    m = make_material(rho=1)
    rng = np.random.default_rng(3)
    phi0 = smooth_phi(g, rng)
    theta = 0.1 * smooth_phi(g, rng)
    u = VectorField2(g, 0.01 * rng.standard_normal(g.n_nodes),
                     0.01 * rng.standard_normal(g.n_nodes))
    u_n = VectorField2.zero(g)
    created = []

    class CountingSolver(elliptic.DirectSolver):
        def __init__(self, *args, **kwargs):
            created.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(elliptic, "DirectSolver", CountingSolver)
    rhs_visco(g, m, phi0.copy(), theta, u, u_n, 1e-3, SourceSpec(), 0.0)
    assert created == []
    rhs_visco(g, m, phi0 + 0.01, theta, u, u_n, 1e-3, SourceSpec(), 0.0)
    assert created == []
