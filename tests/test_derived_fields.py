"""The derived-field kernel of chbsim.rhs against an oracle that composes
the fields law by law.

The oracle below writes out, expression by expression, the per-law
material methods, the strain, the divergence, the zero-flux Laplacian and
the weak right-hand side assembly, and composes the chemical potential,
the stress, both right-hand sides and the energies from them, each
derived field computed wherever it is needed.  The kernel computes each
once per state; it must give the same bits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from chbsim.diagnostics import total_energy
from chbsim.grid import (DIRICHLET, EDGES, NEUMANN, SymTensorField, VectorField2,
                         laplacian_stiffness_form)
from chbsim.rhs import (SimState, SourceSpec, chemical_potential, rhs_elastic, rhs_visco,
                        stress)
from conftest import FULL_DIRICHLET, MIXED, grids, make_material

ONE_CLAMPED_EDGE = {"left": DIRICHLET, "right": NEUMANN, "bottom": NEUMANN, "top": NEUMANN}


# --- oracle: the laws, one call per coefficient -----------------------------


def _blend(phi):
    return 0.5 * (1.0 + np.tanh(phi))


def _blend_d(phi):
    with np.errstate(over="ignore"):
        return 0.5 / np.cosh(phi) ** 2


def mobility(m, phi):
    return m.m0 + m.m1 * phi**2


def permeability(m, phi):
    return m.k0 + m.k1 * phi**2


def biot_modulus(m, phi, deriv=0):
    return m.M0 + m.M1 * _blend(phi) if deriv == 0 else m.M1 * _blend_d(phi)


def biot_alpha(m, phi, deriv=0):
    return m.a0 + m.a1 * _blend(phi) if deriv == 0 else m.a1 * _blend_d(phi)


def tau(m, phi, deriv=0):
    return m.tau0 + m.tau1 * _blend(phi) if deriv == 0 else m.tau1 * _blend_d(phi)


def lame(m, phi, deriv=0):
    if deriv == 0:
        s = _blend(phi)
        return m.lam_a + (m.lam_b - m.lam_a) * s, m.mu_a + (m.mu_b - m.mu_a) * s
    sd = _blend_d(phi)
    return (m.lam_b - m.lam_a) * sd, (m.mu_b - m.mu_a) * sd


def lame_visco(m, phi, deriv=0):
    if deriv == 0:
        s = _blend(phi)
        return (m.lam_nu_a + (m.lam_nu_b - m.lam_nu_a) * s,
                m.mu_nu_a + (m.mu_nu_b - m.mu_nu_a) * s)
    sd = _blend_d(phi)
    return (m.lam_nu_b - m.lam_nu_a) * sd, (m.mu_nu_b - m.mu_nu_a) * sd


def psi(m, phi):
    return m.psi_scale * (1.0 - phi**2) ** 2


def psi_d(m, phi):
    return -4.0 * m.psi_scale * phi * (1.0 - phi**2)


def elastic_density_W(m, phi, exx, eyy, exy):
    lam, mu = lame(m, phi)
    t = tau(m, phi)
    dxx, dyy = exx - t, eyy - t
    tr = dxx + dyy
    norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
    return 2.0 * mu * norm2 + lam * tr**2


def elastic_density_derivatives(m, phi, exx, eyy, exy):
    lam, mu = lame(m, phi)
    lam_d, mu_d = lame(m, phi, deriv=1)
    t = tau(m, phi)
    t_d = tau(m, phi, deriv=1)
    dxx, dyy = exx - t, eyy - t
    tr = dxx + dyy
    norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
    w_exx = 2.0 * (2.0 * mu * dxx + lam * tr)
    w_eyy = 2.0 * (2.0 * mu * dyy + lam * tr)
    w_exy = 2.0 * (2.0 * mu * exy)
    w_phi = 2.0 * mu_d * norm2 + lam_d * tr**2 - 2.0 * t_d * (2.0 * mu + 2.0 * lam) * tr
    return w_exx, w_eyy, w_exy, w_phi


# --- oracle: the grid operators ----------------------------------------------


def symmetric_gradient(u):
    g = u.grid
    dxux = g.dx_op @ u.ux
    dyuy = g.dy_op @ u.uy
    dyux = g.dy_op @ u.ux
    dxuy = g.dx_op @ u.uy
    return SymTensorField(g, dxux, dyuy, 0.5 * (dyux + dxuy))


def divergence(u):
    g = u.grid
    return g.dx_op @ u.ux + g.dy_op @ u.uy


def neumann_laplacian(grid, f, coeff):
    ops = grid._ops()
    if np.ndim(coeff) == 0:
        weights = float(coeff) * ops["face_vol"]
    else:
        weights = ops["face_vol"] * (ops["face_avg"] @ np.asarray(coeff, dtype=float).ravel())
    flux = weights * (ops["face_grad"] @ f)
    return -(ops["face_grad_t"] @ flux) / grid.quad_weights()


def assemble_rhs(g, body=None, tensor_source=None, traction=None):
    n = g.n_nodes
    w = g.quad_weights()
    rx = np.zeros(n)
    ry = np.zeros(n)
    if body is not None:
        rx += w * body.ux
        ry += w * body.uy
    if tensor_source is not None:
        pxx = w * tensor_source.xx
        pyy = w * tensor_source.yy
        pxy = w * tensor_source.xy
        sx, sy = g.dx_op_t @ pxx, g.dy_op_t @ pyy
        sx, sy = sx + g.dy_op_t @ pxy, sy + g.dx_op_t @ pxy
        rx += sx
        ry += sy
    if traction is not None:
        for edge, (gx, gy) in traction.items():
            bw = g.boundary_quad_weights(edge)
            rx += bw * (np.asarray(gx, dtype=float) * np.ones(n)).ravel()
            ry += bw * (np.asarray(gy, dtype=float) * np.ones(n)).ravel()
    clamped = g.dirichlet_mask()
    rx[clamped] = 0.0
    ry[clamped] = 0.0
    return rx, ry


# --- oracle: the derived fields, each where it is needed ---------------------


def oracle_pressure(m, phi, theta, div_u):
    return biot_modulus(m, phi) * (theta - biot_alpha(m, phi) * div_u)


def oracle_chemical_potential(grid, m, phi, theta, u):
    strain = symmetric_gradient(u)
    div_u = strain.trace()
    lap_phi = neumann_laplacian(grid, phi, 1.0)
    _, _, _, w_phi = elastic_density_derivatives(m, phi, strain.xx, strain.yy, strain.xy)
    zeta = theta - biot_alpha(m, phi) * div_u
    m_d = biot_modulus(m, phi, deriv=1)
    a_d = biot_alpha(m, phi, deriv=1)
    bm = biot_modulus(m, phi)
    return (-m.eps * lap_phi
            + psi_d(m, phi) / m.eps
            + w_phi
            + 0.5 * m_d * zeta**2
            - bm * zeta * a_d * div_u)


def oracle_stress(grid, m, phi, theta, u, strain_rate=None):
    strain = symmetric_gradient(u)
    w_exx, w_eyy, w_exy, _ = elastic_density_derivatives(
        m, phi, strain.xx, strain.yy, strain.xy)
    zeta = theta - biot_alpha(m, phi) * strain.trace()
    piso = biot_alpha(m, phi) * biot_modulus(m, phi) * zeta
    sxx = w_exx - piso
    syy = w_eyy - piso
    sxy = w_exy
    if m.rho == 1 and strain_rate is not None:
        lam_nu, mu_nu = lame_visco(m, phi)
        tr = strain_rate.trace()
        sxx = sxx + 2.0 * mu_nu * strain_rate.xx + lam_nu * tr
        syy = syy + 2.0 * mu_nu * strain_rate.yy + lam_nu * tr
        sxy = sxy + 2.0 * mu_nu * strain_rate.xy
    return SymTensorField(grid, sxx, syy, sxy)


def _oracle_tendencies(grid, m, phi, theta, u, sources, t):
    f_phi = neumann_laplacian(grid, oracle_chemical_potential(grid, m, phi, theta, u),
                              mobility(m, phi))
    s_phase = sources.phase_at(grid, t)
    if s_phase is not None:
        f_phi = f_phi + s_phase
    p = oracle_pressure(m, phi, theta, divergence(u))
    f_theta = neumann_laplacian(grid, p, permeability(m, phi))
    s_fluid = sources.fluid_at(grid, t)
    if s_fluid is not None:
        f_theta = f_theta + s_fluid
    return f_phi, f_theta


def oracle_rhs_visco(grid, m, phi, theta, u, u_n, dt, sources, t):
    f_phi, f_theta = _oracle_tendencies(grid, m, phi, theta, u, sources, t)
    rate = symmetric_gradient(VectorField2(grid, (u.ux - u_n.ux) / dt, (u.uy - u_n.uy) / dt))
    sigma = oracle_stress(grid, m, phi, theta, u, strain_rate=rate)
    ext = assemble_rhs(grid, body=sources.body_at(grid, t), traction=sources.traction)
    sig = assemble_rhs(grid, tensor_source=sigma)
    return f_phi, (ext[0] - sig[0], ext[1] - sig[1]), f_theta


def oracle_total_energy(grid, m, state):
    phi = state.phi
    e_interface = (0.5 * m.eps * laplacian_stiffness_form(grid, phi)
                   + grid.integrate(psi(m, phi)) / m.eps)
    strain = symmetric_gradient(state.u)
    e_elastic = grid.integrate(elastic_density_W(m, phi, strain.xx, strain.yy, strain.xy))
    zeta = state.theta - biot_alpha(m, phi) * strain.trace()
    e_fluid = grid.integrate(0.5 * biot_modulus(m, phi) * zeta**2)
    return e_interface + e_elastic + e_fluid, e_interface, e_elastic, e_fluid


# --- the kernel against the oracle -------------------------------------------


def same_bits(a, b):
    """Equal arrays (np.array_equal) that also agree in every bit, signed
    zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def states(draw):
    """(grid, material, phi, theta, u, u_n, dt, sources, t) over grid
    shapes 4-12, three tag sets, both regimes and every source kind; phi
    holds exact zeros and values up to |phi| = 800."""
    tags = draw(st.sampled_from([FULL_DIRICHLET, MIXED, ONE_CLAMPED_EDGE]))
    g = draw(grids(tags=st.just(tags)))
    n = g.n_nodes
    m = make_material(rho=draw(st.sampled_from([0, 1])))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([1.0, 3.0, 800.0]))
    phi = scale * rng.uniform(-1.0, 1.0, n)
    phi[rng.random(n) < 0.2] = 0.0
    phi[rng.integers(n)] = draw(st.sampled_from([-800.0, 800.0, 0.0]))
    theta = rng.standard_normal(n)
    u = VectorField2(g, 0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
    u_n = VectorField2(g, 0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
    dt = draw(st.sampled_from([1e-3, 3.7e-4, 0.25]))
    kinds = draw(st.sets(st.sampled_from(["phase", "fluid", "body", "traction"])))
    neumann = [e for e in EDGES if tags[e] == NEUMANN]
    traction = None
    if "traction" in kinds and neumann:
        edge = draw(st.sampled_from(neumann))
        traction = {edge: (0.3, rng.standard_normal(n)) if draw(st.booleans()) else (0.3, -0.2)}
    sources = SourceSpec(
        s_phase=(lambda x, y, t: np.sin(3.0 * x) * y + t) if "phase" in kinds else None,
        s_fluid=(lambda x, y, t: np.exp(-x * y) - t) if "fluid" in kinds else None,
        body=(lambda x, y, t: (0.3 + x, -0.2 * y)) if "body" in kinds else None,
        traction=traction)
    return g, m, phi, theta, u, u_n, dt, sources, draw(st.sampled_from([0.0, 0.0123]))


@settings(deadline=None, max_examples=60)
@given(states())
def test_kernel_matches_the_law_by_law_composition_bit_for_bit(case):
    g, m, phi, theta, u, u_n, dt, sources, t = case
    assert same_bits(chemical_potential(g, m, phi, theta, u),
                     oracle_chemical_potential(g, m, phi, theta, u))
    rate = symmetric_gradient(VectorField2(g, (u.ux - u_n.ux) / dt, (u.uy - u_n.uy) / dt))
    for strain_rate in (None, rate):
        got = stress(g, m, phi, theta, u, strain_rate=strain_rate)
        want = oracle_stress(g, m, phi, theta, u, strain_rate=strain_rate)
        assert all(same_bits(getattr(got, c), getattr(want, c)) for c in ("xx", "yy", "xy"))
    got = rhs_elastic(g, m, phi, theta, u, sources, t)
    want = _oracle_tendencies(g, m, phi, theta, u, sources, t)
    assert all(same_bits(a, b) for a, b in zip(got, want))
    n_phi, f_u, n_theta = rhs_visco(g, m, phi, theta, u, u_n, dt, sources, t)
    o_phi, (o_ux, o_uy), o_theta = oracle_rhs_visco(g, m, phi, theta, u, u_n, dt, sources, t)
    assert same_bits(n_phi, o_phi) and same_bits(n_theta, o_theta)
    assert same_bits(f_u.ux, o_ux) and same_bits(f_u.uy, o_uy)
    state = SimState(g, phi, theta, u, t)
    assert total_energy(g, m, state) == oracle_total_energy(g, m, state)
