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

from .biot import STIFFNESS_SCALE
from .elliptic import AUGMENTED, VISCO, EllipticProblem, solve_elasticity
from .grid import SymTensorField, VectorField2, divergence, neumann_laplacian, symmetric_gradient


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
    return material.biot_modulus(phi) * (theta - material.biot_alpha(phi) * div_u)


def eigenstrain_tensor_source(material, phi):
    """Isotropic scalar P with P I = C(phi) T(phi) (model stiffness scale).

    Used as the scalar tensor-source of the displacement right-hand
    side: -div(C T) enters weakly as + sum w P div(w_test).
    """
    lam, mu = material.lame(phi)
    tau = material.tau(phi)
    return STIFFNESS_SCALE * (2.0 * mu + 2.0 * lam) * tau


def chemical_potential(grid, material, phi, theta, u):
    """mu = -eps Lap phi + psi'(phi)/eps + W_phi + coupling terms.

    The coupling terms are the phase derivatives of the fluid energy
    density (M/2)(theta - alpha div u)^2:
      (M'/2)(theta - alpha div u)^2 - M (theta - alpha div u) alpha' div u.
    """
    strain = symmetric_gradient(u)
    div_u = strain.trace()
    lap_phi = neumann_laplacian(grid, phi, 1.0)
    _, _, _, w_phi = material.elastic_density_derivatives(
        phi, strain.xx, strain.yy, strain.xy)
    zeta = theta - material.biot_alpha(phi) * div_u
    m_d = material.biot_modulus(phi, deriv=1)
    a_d = material.biot_alpha(phi, deriv=1)
    bm = material.biot_modulus(phi)
    mu_chem = (-material.eps * lap_phi
               + material.psi_d(phi) / material.eps
               + w_phi
               + 0.5 * m_d * zeta**2
               - bm * zeta * a_d * div_u)
    return mu_chem


def stress(grid, material, phi, theta, u, strain_rate=None):
    """Total stress sigma = W_E + rho C_nu E(du/dt) - alpha M zeta I."""
    strain = symmetric_gradient(u)
    w_exx, w_eyy, w_exy, _ = material.elastic_density_derivatives(
        phi, strain.xx, strain.yy, strain.xy)
    zeta = theta - material.biot_alpha(phi) * strain.trace()
    piso = material.biot_alpha(phi) * material.biot_modulus(phi) * zeta
    sxx = w_exx - piso
    syy = w_eyy - piso
    sxy = w_exy
    if material.rho == 1 and strain_rate is not None:
        lam_nu, mu_nu = material.lame_visco(phi)
        tr = strain_rate.trace()
        sxx = sxx + 2.0 * mu_nu * strain_rate.xx + lam_nu * tr
        syy = syy + 2.0 * mu_nu * strain_rate.yy + lam_nu * tr
        sxy = sxy + 2.0 * mu_nu * strain_rate.xy
    return SymTensorField(grid, sxx, syy, sxy)


# --- displacement reconstruction (elastic regime) -------------------------


def displacement_problem(grid, material, phi, reference=None):
    """Augmented quasi-static displacement problem at phase phi.

    reference is passed to EllipticProblem: with the stepper's frozen
    augmented problem at phi0, the solve is CG preconditioned by that
    problem's block fast-diagonalization, and nothing is factored.
    """
    return EllipticProblem(grid, material, phi, variant=AUGMENTED, scale=STIFFNESS_SCALE,
                           reference=reference)


def reconstruct_displacement(problem, material, theta, sources, t, start=None, forcing=0.0):
    """Solve the quasi-static displacement for given phase and content.

    u = Ctilde(phi)^{-1}( -div(C T + alpha M theta I) + f, g ).

    A problem with a reference solves by CG from the displacement start
    (None: zero), to the absolute target, or, with forcing > 0, only
    until its preconditioned residual norm has fallen by that factor
    (see EllipticProblem.solve); a problem without one solves directly.
    """
    phi = problem.phi
    scalar = (eigenstrain_tensor_source(material, phi)
              + material.biot_alpha(phi) * material.biot_modulus(phi) * theta)
    rhs = problem.assemble_rhs(
        body=sources.body_at(problem.grid, t), scalar_source=scalar,
        traction=sources.traction)
    return solve_elasticity(problem, rhs, start, forcing)


# --- right-hand sides -----------------------------------------------------


def phase_rhs(grid, material, phi, mu_chem, s_phase):
    """N_phi = div(m(phi) grad mu) + S_phase."""
    out = neumann_laplacian(grid, mu_chem, material.mobility(phi))
    if s_phase is not None:
        out = out + s_phase
    return out


def _content_rhs(grid, material, phi, theta, u, sources, t):
    """N_theta = div(kappa(phi) grad p) + S_fluid."""
    p = pressure(material, phi, theta, divergence(u))
    out = neumann_laplacian(grid, p, material.permeability(phi))
    s_fluid = sources.fluid_at(grid, t)
    if s_fluid is not None:
        out = out + s_fluid
    return out


def rhs_elastic(grid, material, phi, theta, u, sources, t):
    """(N_phi, N_theta) for the quasi-static regime at one Picard iterate.

    u must be the displacement reconstructed at (phi, theta).
    """
    mu_chem = chemical_potential(grid, material, phi, theta, u)
    f_phi = phase_rhs(grid, material, phi, mu_chem, sources.phase_at(grid, t))
    return f_phi, _content_rhs(grid, material, phi, theta, u, sources, t)


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
        self.visco0 = EllipticProblem(
            self.grid, self.material, self.phi0, variant=VISCO,
            scale=STIFFNESS_SCALE)

    def apply_a0(self, u):
        """A0 u = Knu(phi0)^{-1} K(phi0) u (Knu(phi0) factored on first use)."""
        elastic0 = EllipticProblem(self.grid, self.material, self.phi0, scale=STIFFNESS_SCALE)
        return solve_elasticity(self.visco0, elastic0.apply(u.ux, u.uy))[0]


def rhs_visco(grid, material, phi, theta, u, u_n, dt, sources, t):
    """(N_phi, F_u, N_theta) for the visco-elastic regime at one iterate.

    F_u is the weak momentum force at the implicit-Euler strain rate
    E((u - u_n) / dt), as a VectorField2 of nodal weak-form values (zero
    on the Dirichlet nodes); it vanishes where the window's momentum
    balance holds.
    """
    mu_chem = chemical_potential(grid, material, phi, theta, u)
    f_phi = phase_rhs(grid, material, phi, mu_chem, sources.phase_at(grid, t))
    rate = symmetric_gradient(VectorField2(grid, (u.ux - u_n.ux) / dt, (u.uy - u_n.uy) / dt))
    sigma = stress(grid, material, phi, theta, u, strain_rate=rate)
    prob = EllipticProblem(grid, material, phi)  # assembly only
    rhs_ext = prob.assemble_rhs(body=sources.body_at(grid, t), traction=sources.traction)
    rhs_sig = prob.assemble_rhs(tensor_source=sigma)
    f_u = VectorField2(grid, rhs_ext[0] - rhs_sig[0], rhs_ext[1] - rhs_sig[1])
    return f_phi, f_u, _content_rhs(grid, material, phi, theta, u, sources, t)
