"""Derived fields and the physical tendencies of the fixed-point map.

The time integrator freezes the coefficient operators at the start
phase field phi0 of a recent window.  The implicit-Euler window is the
fixed point x = x_n + dt N(x); the frozen operator L(phi0) only makes
the Picard map contract, and appears only in the stepper's solves (see
chbsim.stepper).  The N components are assembled here directly from the
strong equations:

  N_phi   = div(m(phi) grad mu) + S_phase
  N_theta = div(kappa(phi) grad p) + S_fluid
  F_u     = weak(f, g) - E'W sigma(phi, theta, u; E((u - u_n) / dt))   (visco)

where mu and p are the derived chemical potential and pressure at the
current iterate; F_u, the weak momentum force at the implicit-Euler
strain rate, vanishes at the Kelvin-Voigt window's momentum balance.
Evaluating N and F_u through the derived fields keeps every sign tied
to the governing equations.

Each derived field is computed once per state (phi, theta, u), by
derive: one MaterialModel.coefficients pass over phi, one strain E(u),
whose trace is div u, one evaluation of W_E and W_phi, and zeta and p
once; mu, N_phi and N_theta, and for rho = 1 the rate strain, sigma and
F_u, are built from them.  rhs_elastic and rhs_visco, the stepper's
entry points at each Picard evaluation, are calls of derive, and so
are chemical_potential, stress and diagnostics.pde_residual.  pressure,
diagnostics.total_energy, the displacement stiffness
(EllipticProblem.lame) and reconstruct_displacement's load read the
same coefficient pass; a displacement problem's stiffness and load
share one (EllipticProblem.coefficients).  F_u's weak divergence of
sigma is grid.weak_divergence, the one EllipticProblem.assemble_rhs
uses.

The quasi-static reconstruction at the current iterate (when the
stepper passes a reference to displacement_problem) factors nothing:
it runs CG preconditioned by the block fast-diagonalization of the same
problem frozen at phi0, warm-started from the previous iterate's
displacement.  Inside a window it is inexact, stopped by a forcing term
relative to the start's own preconditioned residual; the accepted
state's is solved to the absolute target (see chbsim.stepper).
"""

from dataclasses import dataclass

import numpy as np

from .elliptic import (AUGMENTED, STIFFNESS_SCALE, VISCO, EllipticProblem, solve_elasticity,
                       weak_rhs)
from .grid import (SymTensorField, VectorField2, neumann_laplacian, symmetric_gradient,
                   weak_divergence)


@dataclass
class SourceSpec:
    """External sources: phase and fluid scalars, body force, tractions.

    Scalar sources and the body force are callables (x, y, t) -> array
    (the body force returns a pair); traction maps Neumann edges to
    constant or nodal (gx, gy) data.  None means zero.
    """

    s_phase: object = None
    s_fluid: object = None
    body: object = None
    traction: dict = None

    def phase_at(self, grid, t):
        if self.s_phase is None:
            return None
        x, y = grid.coords()
        return np.asarray(self.s_phase(x, y, t), dtype=float)

    def fluid_at(self, grid, t):
        if self.s_fluid is None:
            return None
        x, y = grid.coords()
        return np.asarray(self.s_fluid(x, y, t), dtype=float)

    def body_at(self, grid, t):
        if self.body is None:
            return None
        x, y = grid.coords()
        fx, fy = self.body(x, y, t)
        return VectorField2(grid, np.broadcast_to(np.asarray(fx, dtype=float), x.shape).copy(),
                            np.broadcast_to(np.asarray(fy, dtype=float), x.shape).copy())


@dataclass
class SimState:
    """One point of the trajectory: phase, fluid content, displacement."""

    grid: object
    phi: np.ndarray
    theta: np.ndarray
    u: VectorField2
    t: float = 0.0

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float).ravel()
        self.theta = np.asarray(self.theta, dtype=float).ravel()

    def copy(self):
        return SimState(self.grid, self.phi.copy(), self.theta.copy(), self.u.copy(), self.t)


# --- derived fields -------------------------------------------------------


def pressure(material, phi, theta, div_u):
    """p = M(phi) (theta - alpha(phi) div u)."""
    return material.coefficients(phi).content_split(theta, div_u)[1]


def eigenstrain_tensor_source(c):
    """Isotropic scalar P with P I = C(phi) T(phi) (model stiffness scale),
    STIFFNESS_SCALE (2 mu + 2 lam) tau, from the Coefficients c at phi.

    Used as the scalar tensor-source of the displacement right-hand
    side: -div(C T) enters weakly as + sum w P div(w_test).
    """
    return STIFFNESS_SCALE * (2.0 * c.mu + 2.0 * c.lam) * c.tau


@dataclass
class StateFields:
    """The fields derived from one state (phi, theta, u) on grid, each
    computed once (see derive): the Coefficients c at phi, the strain
    derivative w_e = (xx, yy, xy) of the elastic energy density, zeta,
    the pressure p and the chemical potential mu_chem."""

    grid: object
    material: object
    c: object
    w_e: list
    zeta: np.ndarray
    p: np.ndarray
    mu_chem: np.ndarray

    def stress(self, strain_rate=None):
        """Total stress sigma = W_E + rho C_nu E(du/dt) - alpha M zeta I; the
        viscous term only for rho = 1 and a strain rate."""
        c = self.c
        w_exx, w_eyy, w_exy = self.w_e
        piso = c.alpha * c.modulus * self.zeta
        sxx = w_exx - piso
        syy = w_eyy - piso
        sxy = w_exy
        if self.material.rho == 1 and strain_rate is not None:
            lam_nu, mu_nu = c.lam_nu, c.mu_nu
            tr = strain_rate.trace()
            sxx = sxx + 2.0 * mu_nu * strain_rate.xx + lam_nu * tr
            syy = syy + 2.0 * mu_nu * strain_rate.yy + lam_nu * tr
            sxy = sxy + 2.0 * mu_nu * strain_rate.xy
        return SymTensorField(self.grid, sxx, syy, sxy)


def derive(grid, material, phi, theta, u):
    """The StateFields of (phi, theta, u): one coefficient pass over phi,
    one strain of u, whose trace is div u, and one evaluation of the
    elastic density derivatives.

    mu = -eps Lap phi + psi'(phi)/eps + W_phi + coupling terms, where the
    coupling terms are the phase derivatives of the fluid energy density
    (M/2)(theta - alpha div u)^2:
      (M'/2)(theta - alpha div u)^2 - M (theta - alpha div u) alpha' div u.
    """
    c = material.coefficients(phi)
    strain = symmetric_gradient(u)
    div_u = strain.trace()
    lap_phi = neumann_laplacian(grid, phi, 1.0)
    *w_e, w_phi = c.elastic_density_derivatives(strain.xx, strain.yy, strain.xy)
    zeta, p = c.content_split(theta, div_u)
    mu_chem = (-material.eps * lap_phi
               + material.psi_d(phi) / material.eps
               + w_phi
               + 0.5 * c.modulus_d * zeta**2
               - p * c.alpha_d * div_u)
    return StateFields(grid, material, c, w_e, zeta, p, mu_chem)


def chemical_potential(grid, material, phi, theta, u):
    """mu = -eps Lap phi + psi'(phi)/eps + W_phi + coupling terms (see derive)."""
    return derive(grid, material, phi, theta, u).mu_chem


def stress(grid, material, phi, theta, u, strain_rate=None):
    """Total stress sigma = W_E + rho C_nu E(du/dt) - alpha M zeta I."""
    return derive(grid, material, phi, theta, u).stress(strain_rate)


def rate_strain(u, u_n, dt):
    """The implicit-Euler strain rate E((u - u_n) / dt)."""
    grid = u.grid
    return symmetric_gradient(VectorField2(grid, (u.ux - u_n.ux) / dt, (u.uy - u_n.uy) / dt))


def momentum_force(grid, sigma, sources, t):
    """F_u = weak(f, g) - E'W sigma: the weak momentum force of the stress
    sigma under the sources' body force and tractions at time t, as a
    VectorField2 of nodal weak-form values, zero on the Dirichlet nodes."""
    w = grid.quad_weights()
    ext_x, ext_y = weak_rhs(grid, body=sources.body_at(grid, t), traction=sources.traction)
    sig_x, sig_y = weak_divergence(grid, w * sigma.xx, w * sigma.yy, w * sigma.xy)
    f_x, f_y = ext_x - sig_x, ext_y - sig_y
    clamped = grid.dirichlet_mask()
    f_x[clamped] = 0.0
    f_y[clamped] = 0.0
    return VectorField2(grid, f_x, f_y)


# --- displacement reconstruction (elastic regime) -------------------------


def displacement_problem(grid, material, phi, reference=None):
    """Augmented quasi-static displacement problem at phase phi.

    reference is passed to EllipticProblem: with the stepper's frozen
    augmented problem at phi0, the solve is CG preconditioned by that
    problem's block fast-diagonalization, and nothing is factored.
    """
    return EllipticProblem(grid, material, phi, variant=AUGMENTED, reference=reference)


def reconstruct_displacement(problem, theta, sources, t, start=None, forcing=0.0):
    """Solve the quasi-static displacement for given phase and content.

    u = Ctilde(phi)^{-1}( -div(C T + alpha M theta I) + f, g ).

    A problem with a reference solves by CG from the displacement start
    (None: zero), to the absolute target, or, with forcing > 0, only
    until its preconditioned residual norm has fallen by that factor
    (see EllipticProblem.solve); a problem without one solves directly.
    """
    c = problem.coefficients
    scalar = eigenstrain_tensor_source(c) + c.alpha * c.modulus * theta
    rhs = problem.assemble_rhs(
        body=sources.body_at(problem.grid, t), scalar_source=scalar,
        traction=sources.traction)
    return solve_elasticity(problem, rhs, start, forcing)


# --- right-hand sides -----------------------------------------------------


def phase_rhs(grid, mobility, mu_chem, s_phase):
    """N_phi = div(m(phi) grad mu) + S_phase, from the mobility field."""
    out = neumann_laplacian(grid, mu_chem, mobility)
    if s_phase is not None:
        out = out + s_phase
    return out


def tendencies(fields, sources, t):
    """(N_phi, N_theta) at time t from the StateFields of one state;
    N_theta = div(kappa(phi) grad p) + S_fluid."""
    grid = fields.grid
    n_phi = phase_rhs(grid, fields.c.mobility, fields.mu_chem, sources.phase_at(grid, t))
    n_theta = neumann_laplacian(grid, fields.p, fields.c.permeability)
    s_fluid = sources.fluid_at(grid, t)
    if s_fluid is not None:
        n_theta = n_theta + s_fluid
    return n_phi, n_theta


def rhs_elastic(grid, material, phi, theta, u, sources, t):
    """(N_phi, N_theta) for the quasi-static regime at one Picard iterate.

    u must be the displacement reconstructed at (phi, theta).
    """
    return tendencies(derive(grid, material, phi, theta, u), sources, t)


@dataclass
class ViscoOperators:
    """Frozen-phase visco operators of the Kelvin-Voigt regime: visco0, the
    visco stiffness Knu(phi0), and apply_a0, the frozen operator
    A0 = Knu(phi0)^{-1} K(phi0) of the displacement update.  The stepper
    uses neither: its update solves the shifted problem alone (see
    chbsim.stepper.FrozenVisco).
    """

    grid: object
    material: object
    phi0: np.ndarray

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float).ravel()
        self.visco0 = EllipticProblem(self.grid, self.material, self.phi0, variant=VISCO)

    def apply_a0(self, u):
        """A0 u = Knu(phi0)^{-1} K(phi0) u (Knu(phi0) factored on first use)."""
        elastic0 = EllipticProblem(self.grid, self.material, self.phi0)
        return solve_elasticity(self.visco0, elastic0.apply(u.ux, u.uy))[0]


def rhs_visco(grid, material, phi, theta, u, u_n, dt, sources, t):
    """(N_phi, F_u, N_theta) for the visco-elastic regime at one iterate.

    F_u is the weak momentum force at the implicit-Euler strain rate
    E((u - u_n) / dt), as a VectorField2 of nodal weak-form values (zero
    on the Dirichlet nodes); it vanishes where the window's momentum
    balance holds.
    """
    fields = derive(grid, material, phi, theta, u)
    n_phi, n_theta = tendencies(fields, sources, t)
    sigma = fields.stress(rate_strain(u, u_n, dt))
    return n_phi, momentum_force(grid, sigma, sources, t), n_theta
