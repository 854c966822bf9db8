"""Energy accounting, PDE residuals, and convergence studies.

The discrete free energy mirrors the continuous functional with the
trapezoidal quadrature and the face-based gradient energy (the exact
quadratic form of the zero-flux Laplacian):

  E_interface = eps/2 * |grad phi|^2_faces + int psi(phi)/eps
  E_elastic   = int W(phi, E(u))
  E_fluid     = int (M(phi)/2) (theta - alpha(phi) div u)^2

pde_residual evaluates the strong/weak residuals of the governing
equations on a completed window (backward differences in time), which
ties the converged fixed point back to the implicit-Euler
discretization of the coupled system.
"""

from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticProblem
from .grid import (DIRICHLET, NEUMANN, Grid, VectorField2, laplacian_stiffness_form,
                   neumann_laplacian, symmetric_gradient)
from .rhs import SourceSpec, chemical_potential, pressure, stress
from .stepper import PRESSURE_FORM, THETA_FORM, StepperConfig, initial_state, run_simulation


@dataclass
class DiagnosticsRow:
    t: float
    e_total: float
    e_interface: float
    e_elastic: float
    e_fluid: float
    mass_phi: float
    mass_theta: float
    picard_iters: int
    rho: float
    residual: float
    dt: float

    HEADER = "t,E_total,E_interface,E_elastic,E_fluid,mass_phi,mass_theta,picard_iters,rho,residual,dt"

    def as_csv(self):
        return (f"{self.t:.12e},{self.e_total:.12e},{self.e_interface:.12e},"
                f"{self.e_elastic:.12e},{self.e_fluid:.12e},{self.mass_phi:.12e},"
                f"{self.mass_theta:.12e},{self.picard_iters},{self.rho:.6e},"
                f"{self.residual:.6e},{self.dt:.12e}")


def total_energy(grid, material, state):
    """(E_total, E_interface, E_elastic, E_fluid) of a state."""
    phi = state.phi
    e_grad = 0.5 * material.eps * laplacian_stiffness_form(grid, phi)
    e_well = grid.integrate(material.psi(phi)) / material.eps
    e_interface = e_grad + e_well
    strain = symmetric_gradient(state.u)
    wdens = material.elastic_density_W(phi, strain.xx, strain.yy, strain.xy)
    e_elastic = grid.integrate(wdens)
    zeta = state.theta - material.biot_alpha(phi) * strain.trace()
    e_fluid = grid.integrate(0.5 * material.biot_modulus(phi) * zeta**2)
    return e_interface + e_elastic + e_fluid, e_interface, e_elastic, e_fluid


def diagnostics_row(grid, material, state, report=None):
    e_total, e_int, e_el, e_fl = total_energy(grid, material, state)
    return DiagnosticsRow(
        t=state.t, e_total=e_total, e_interface=e_int, e_elastic=e_el,
        e_fluid=e_fl, mass_phi=grid.mean(state.phi), mass_theta=grid.mean(state.theta),
        picard_iters=0 if report is None else report.iterations,
        rho=0.0 if report is None else report.rho,
        residual=0.0 if report is None else report.residual,
        dt=0.0 if report is None else report.dt_used)


def energy_tolerance(tol_picard, dt, e_ref):
    """Allowed per-window energy increase for the dissipation check."""
    return 10.0 * (tol_picard + dt**2 * max(1.0, abs(e_ref)))


def pde_residual(grid, material, state_prev, state_new, sources=None):
    """Residual norms of the governing equations over one window.

    Returns a dict of weighted-L2 norms: 'phase' and 'fluid' are strong
    transport residuals with backward time differences, 'mechanics' is
    the weak momentum-balance residual on the free nodes.
    """
    dt = state_new.t - state_prev.t
    if dt <= 0:
        raise ValueError("states must be one window apart")
    sources = SourceSpec() if sources is None else sources
    w = grid.quad_weights()
    phi, theta, u = state_new.phi, state_new.theta, state_new.u
    t = state_new.t

    mu_chem = chemical_potential(grid, material, phi, theta, u)
    r_phase = ((phi - state_prev.phi) / dt
               - neumann_laplacian(grid, mu_chem, material.mobility(phi)))
    strain = symmetric_gradient(u)
    p = pressure(material, phi, theta, strain.trace())
    r_fluid = ((theta - state_prev.theta) / dt
               - neumann_laplacian(grid, p, material.permeability(phi)))
    s = sources.phase_at(grid, t)
    if s is not None:
        r_phase = r_phase - s
    s = sources.fluid_at(grid, t)
    if s is not None:
        r_fluid = r_fluid - s

    strain_rate = None
    if material.rho == 1:
        du = VectorField2(grid, (u.ux - state_prev.u.ux) / dt,
                          (u.uy - state_prev.u.uy) / dt)
        strain_rate = symmetric_gradient(du)
    sigma = stress(grid, material, phi, theta, u, strain_rate=strain_rate)
    prob = EllipticProblem(grid, material, phi)  # geometry/bookkeeping only
    # weak residual of -div sigma = f: E'W sigma - W f - traction, free nodes
    sig_rhs = prob.assemble_rhs(tensor_source=sigma)
    ext_rhs = prob.assemble_rhs(body=sources.body_at(grid, t), traction=sources.traction)
    resx = (sig_rhs[0] - ext_rhs[0]) / w
    resy = (sig_rhs[1] - ext_rhs[1]) / w

    def wnorm(v):
        return float(np.sqrt(np.dot(w, np.asarray(v)**2)))

    return {
        "phase": wnorm(r_phase),
        "fluid": wnorm(r_fluid),
        "mechanics": float(np.sqrt(np.dot(w, resx**2) + np.dot(w, resy**2))),
    }


# --- convergence studies --------------------------------------------------


def _heat_material():
    from .materials import MaterialModel
    return MaterialModel(eps=0.1, rho=0, m0=1.0, k0=1.0, M0=1.0, a0=0.0, a1=0.0)


def _heat_error(n, dt, t_end):
    g = Grid(n, n)
    mat = _heat_material()
    phi = np.zeros(g.n_nodes)
    x, y = g.coords()
    theta0 = np.cos(np.pi * x) * np.cos(np.pi * y)
    cfg = StepperConfig(dt=dt, t_end=t_end, tol_picard=1e-11, tol_lin=1e-12,
                        formulation=THETA_FORM)
    state = initial_state(g, mat, phi, theta0)
    states, _ = run_simulation(g, mat, cfg, state)
    exact = theta0 * np.exp(-2.0 * np.pi**2 * t_end)
    err = states[-1].theta - exact
    w = g.quad_weights()
    return float(np.sqrt(np.dot(w, err**2)))


def _coupled_finals(rho, formulation):
    """Final (phi, theta, u_x) of the coupled study's four runs, one per
    level."""
    from .materials import MaterialModel
    g = Grid(16, 16, edge_tags={"left": DIRICHLET, "right": NEUMANN,
                                "bottom": DIRICHLET, "top": NEUMANN})
    mat = MaterialModel(eps=0.35, rho=rho, m0=1.0, m1=0.5, k0=1.0, k1=0.5,
                        M0=1.0, M1=0.5, a0=0.5, a1=0.2, psi_scale=1.0,
                        lam_a=1.0, lam_b=2.0, mu_a=1.0, mu_b=2.0,
                        lam_nu_a=1.0, lam_nu_b=1.5, mu_nu_a=1.0, mu_nu_b=1.5,
                        tau0=0.0, tau1=0.05)
    x, y = g.coords()
    phi0 = 0.4 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y)
    theta0 = 0.1 * np.cos(2.0 * np.pi * x)
    finals = []
    for k in range(4):
        cfg = StepperConfig(dt=4e-3 / 2**k, t_end=0.016, tol_picard=1e-11,
                            formulation=formulation)
        states, _ = run_simulation(g, mat, cfg, initial_state(g, mat, phi0, theta0))
        final = states[-1]
        finals.append((final.phi, final.theta, final.u.ux))
    return g.quad_weights(), finals


def convergence_study(preset):
    """Observed convergence orders for a named study.

    'heat': the decoupled fluid sub-problem (alpha = 0, M = 1,
    kappa = 1) against the separable exact solution; returns observed
    first order in time and second order in space.

    'elasticity': manufactured displacement solution on the clamped
    square; returns the observed spatial order of the displacement
    solve (expected about two).

    'coupled': the full coupled scheme in time, on 16x16 with the
    spinodal material of the acceptance runs and mixed edge tags, from
    phi0 = 0.4 cos(pi x) cos(2 pi y), theta0 = 0.1 cos(2 pi x), to
    T = 0.016 at dt = 4e-3 / 2^k (k = 0..3) and tol_picard = 1e-11.  With
    no exact solution, the order of each field comes from the weighted
    L2 norms e_k of the differences of successive levels,
    log2(e_k / e_{k+1}), in the theta form, the pressure form and the
    Kelvin-Voigt regime; returns them per regime and field, and their
    minimum (expected about one).
    """
    if preset == "coupled":
        orders = {}
        regimes = {"theta": (0, THETA_FORM), "pressure": (0, PRESSURE_FORM),
                   "visco": (1, THETA_FORM)}
        for name, (rho, formulation) in regimes.items():
            w, finals = _coupled_finals(rho, formulation)
            orders[name] = {}
            for i, field in enumerate(("phi", "theta", "u_x")):
                diffs = [np.sqrt(np.dot(w, (a[i] - b[i])**2))
                         for a, b in zip(finals, finals[1:])]
                orders[name][field] = [float(np.log2(diffs[j] / diffs[j + 1]))
                                       for j in range(len(diffs) - 1)]
        return {"orders": orders,
                "time_order": min(min(o) for regime in orders.values()
                                  for o in regime.values())}
    if preset == "heat":
        t_end = 0.02
        errs_t = [_heat_error(48, t_end / m, t_end) for m in (4, 8, 16)]
        order_t = float(np.mean(np.log2(np.array(errs_t[:-1]) / np.array(errs_t[1:]))))
        errs_x = [_heat_error(n, 1e-5, 2e-4) for n in (8, 16, 32)]
        order_x = float(np.mean(np.log2(np.array(errs_x[:-1]) / np.array(errs_x[1:]))))
        return {"time_errors": errs_t, "time_order": order_t,
                "space_errors": errs_x, "space_order": order_x}
    if preset == "elasticity":
        errs, orders = elasticity_mms(ns=(16, 32, 64))
        return {"space_errors": errs, "space_order": float(np.mean(orders)),
                "orders": orders}
    raise ValueError(f"unknown study preset '{preset}'")


def elasticity_mms(ns=(16, 32, 64), lam=1.0, mu=1.0):
    """Manufactured-solution study for the clamped displacement solve.

    v* = (sin(pi x) sin(pi y), sin(pi x) sin(pi y)), body force
    f = -div(C E(v*)) with constant Lame parameters; returns (errors,
    observed orders) in the weighted L2 norm.
    """
    from .elliptic import solve_elasticity
    from .materials import MaterialModel
    errs = []
    for n in ns:
        g = Grid(n, n)
        mat = MaterialModel(lam_a=lam, lam_b=lam, mu_a=mu, mu_b=mu)
        prob = EllipticProblem(g, mat, np.zeros(g.n_nodes))
        x, y = g.coords()
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        c = np.cos(np.pi * x) * np.cos(np.pi * y)
        pi2 = np.pi**2
        # f = -mu lap v - (mu + lam) grad(div v) for C E = 2 mu E + lam tr I
        fx = 2.0 * pi2 * mu * s + (mu + lam) * (pi2 * s - pi2 * c)
        fy = 2.0 * pi2 * mu * s + (mu + lam) * (pi2 * s - pi2 * c)
        rhs = prob.assemble_rhs(body=VectorField2(g, fx, fy))
        u, _ = solve_elasticity(prob, rhs)
        w = g.quad_weights()
        err = np.sqrt(np.dot(w, (u.ux - s)**2) + np.dot(w, (u.uy - s)**2))
        errs.append(float(err))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
    return errs, orders
