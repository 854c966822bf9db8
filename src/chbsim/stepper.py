"""Linearize-and-contract time integration.

Each implicit-Euler window of length dt solves the fixed-point equation
x = x_n + dt N(x), where N collects the physical tendencies from
chbsim.rhs.  The operators L(phi0), frozen at the window-start phase
field phi0, only make the Picard map contract.  The map is written in
update form: each iterate solves for its update d and adds it,

    d = (I + dt L(phi0))^{-1} ( x_n - x_k + dt N(x_k) ),   x_{k+1} = x_k + d,

which is x_{k+1} = (I + dt L)^{-1}(x_n + dt (L x_k + N(x_k))), without
applying L to any iterate.  The linear substeps are:

  phase:      (I + dt eps Lap(m(phi0) Lap .)) d = r,
              solved as the SPD system (W + dt eps B1 D_m W^{-1} B1)
  content:    (I + dt A(phi0)) d = r in the quasi-static regime,
              solved in the conjugate pressure variable q:
              (W B(phi0) + dt B_kappa) q = W r, d = r + dt NL(q)
  content:    (W + dt B_{kappa M}) d = W r in the visco regime
  displacement: (K_nu + dt K) d = K_nu (u_n - u_k + dt udot) in the
              visco regime (displacement is reconstructed, not evolved,
              in the quasi-static regime)

Because the operators are frozen, every system that is constant over a
window is factored once per (window, dt) by a sparse direct solver and
reused by every Picard iterate: the phase operator, the quasi-static
content system (as the quasi-definite saddle-point form of its pressure
unfolding), and the window-start elasticity problems.  Displacement
problems at the current iterate phi_k (the quasi-static reconstruction,
the pressure form's displacement and the visco u-dot problem) differ
from their phi0 counterparts by O(|phi_k - phi0|); they are solved by
CG preconditioned with the phi0 factor, to the fixed relative tolerance
elliptic.REFERENCE_CG_TOL, and never factored.  A window therefore
factors three matrices, and each retry at a smaller dt two more.  The
visco content substep runs Jacobi-preconditioned CG, to the relative
tolerance tol_lin.

The regimes differ only in their iterate map: the quasi-static regime
iterates in theta (or, with formulation = 'pressure', in the pressure
p) and the visco regime in (phi, theta, u).  Each map is a generator of
successive updates; picard_window runs the one attempt loop over it.
The iteration residual is the weighted-L2 norm of the update of the
map's unknowns; the contraction estimate rho is the median of
successive residual ratios.  A window that fails to contract, or whose
linear solve fails, is retried with dt scaled down by shrink_factor.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .biot import STIFFNESS_SCALE, BiotContext
from .elliptic import (PLAIN, VISCO, DirectSolver, EllipticProblem, SolverFailure,
                       conjugate_gradient, solve_elasticity)
from .grid import VectorField2, divergence, flux_stiffness_matrix
from .rhs import (SimState, SourceSpec, ViscoOperators, displacement_problem,
                  eigenstrain_tensor_source, pressure, reconstruct_displacement,
                  rhs_elastic, rhs_visco)

THETA_FORM = "theta"
PRESSURE_FORM = "pressure"


@dataclass
class PicardAttempt:
    """One try at a window: its dt, the Picard residuals it computed, and
    the SolverFailure message that ended it (None when Picard did not
    converge in max_picard iterations, or when it succeeded)."""

    dt: float
    residuals: list
    error: str = None


class StepFailure(RuntimeError):
    """A window failed to converge even after all allowed dt shrinks.

    attempts lists every PicardAttempt made, in order.
    """

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


@dataclass
class StepperConfig:
    """Window length, Picard and dt-shrink controls, formulation.

    tol_lin and max_lin are the tolerance and iteration cap of the visco
    content substep's CG and of nothing else; tol_lin is relative to the
    right-hand side of that substep, which is the content update's.  The
    other substeps are solved by sparse direct factorizations, and the
    displacement solves at the current iterate by CG preconditioned with
    the window's factor, to a fixed internal tolerance.
    """

    dt: float = 1e-3
    t_end: float = 1e-2
    tol_picard: float = 1e-9
    max_picard: int = 40
    shrink_factor: float = 0.5
    max_shrinks: int = 10
    tol_lin: float = 1e-10
    max_lin: int = 20000
    refresh_linearization: bool = True
    formulation: str = THETA_FORM

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if not (0 < self.shrink_factor < 1):
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.formulation not in (THETA_FORM, PRESSURE_FORM):
            raise ValueError(f"unknown formulation '{self.formulation}'")
        for name, low in (("max_picard", 1), ("max_shrinks", 0), ("max_lin", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("tol_picard", "tol_lin"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class PicardReport:
    iterations: int
    residual: float
    residuals: list
    rho: float
    converged: bool
    dt_used: float
    shrinks: int


def _median_ratio(residuals):
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    if not ratios:
        return 0.0
    return float(np.median(ratios))


def _wnorm2(w, v):
    return float(np.dot(w, v * v))


# --- frozen operator bundles ---------------------------------------------


@dataclass
class _FrozenPhase:
    """Window-frozen data shared by both regimes, with the phase solver."""

    grid: object
    material: object
    phi0: np.ndarray

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float).ravel()
        self.b_one = flux_stiffness_matrix(self.grid, 1.0)
        self.m0 = self.material.mobility(self.phi0)
        self.w = self.grid.quad_weights()
        self._phase_solvers = {}

    def phase_solver(self, dt):
        """DirectSolver of W + dt eps B1 diag(m0/w) B1, cached per dt."""
        solver = self._phase_solvers.get(dt)
        if solver is None:
            a = sp.diags(self.w) + (dt * self.material.eps) * (
                self.b_one @ sp.diags(self.m0 / self.w) @ self.b_one)
            solver = self._phase_solvers[dt] = DirectSolver(a)
        return solver


@dataclass
class FrozenElastic(_FrozenPhase):
    """Window-frozen operators for the quasi-static regime."""

    def __post_init__(self):
        super().__post_init__()
        self.ctx0 = BiotContext(self.grid, self.material, self.phi0)
        self.b_kappa = flux_stiffness_matrix(self.grid, self.ctx0.kappa)
        self._content_solvers = {}

    def content_solver(self, dt):
        """DirectSolver of the content system, cached per dt.

        The pressure unfolding of (W B(phi0) + dt B_kappa) q = W r is the
        symmetric quasi-definite system

            [ Z     G_f   ] [q]   [W r]
            [ G_f'  -K0_f ] [v] = [ 0 ]

        with the pressure block Z = W/M0 + dt B_kappa, the coupling
        G v = W alpha0 div v and the plain stiffness K0 at phi0, both
        restricted to the free displacement dofs.  Eliminating v gives
        back W B(phi0) + dt B_kappa, so one factorization yields q and
        the displacement v[q] together.
        """
        solver = self._content_solvers.get(dt)
        if solver is None:
            n = self.grid.n_nodes
            plain = self.ctx0.plain
            div_f = self.grid.strain_op[3 * n:, plain.free_dofs]
            g_f = sp.diags(self.w * self.ctx0.alpha) @ div_f
            z = sp.diags(self.w / self.ctx0.modulus) + dt * self.b_kappa
            saddle = sp.bmat([[z, g_f], [g_f.T, -plain.stiffness_matrix()]])
            solver = self._content_solvers[dt] = DirectSolver(saddle, quasi_definite=True)
        return solver


@dataclass
class FrozenVisco(_FrozenPhase):
    """Window-frozen operators for the Kelvin-Voigt regime."""

    def __post_init__(self):
        super().__post_init__()
        self.ops = ViscoOperators(self.grid, self.material, self.phi0)
        self.b_km = flux_stiffness_matrix(self.grid, self.ops.kappa_m0)
        self._shifted = {}

    def shifted_problem(self, dt):
        """Shifted visco problem K_nu + dt K at phi0, cached per dt."""
        prob = self._shifted.get(dt)
        if prob is None:
            prob = EllipticProblem(
                self.grid, self.material, self.phi0, variant=VISCO,
                scale=STIFFNESS_SCALE, shift=dt)
            self._shifted[dt] = prob
        return prob


# --- linear substeps ------------------------------------------------------


def linear_substep_phi(frozen, dt, r):
    """Solve (I + dt eps Lap(m(phi0) Lap .)) phi = r (SPD symmetrized).

    Direct solve with the window's cached factorization.
    """
    w = frozen.w
    x, rep = frozen.phase_solver(dt).solve(w * r)
    # the exact solution has the same weighted mean as r (the flux term
    # is mean-free); restore the invariant against round-off
    x += np.dot(w, r - x) / w.sum()
    return x, rep


def _solve_conjugate_pressure(frozen, dt, rhs_w):
    """Solve (W B(phi0) + dt B_kappa) q = rhs_w for the pressure-like q.

    Returns (q, report).  The displacement block of the pressure
    unfolding (see FrozenElastic.content_solver) is discarded.
    """
    n = frozen.grid.n_nodes
    free_dofs = frozen.ctx0.plain.free_dofs
    sol, rep = frozen.content_solver(dt).solve(
        np.concatenate([rhs_w, np.zeros(free_dofs.size)]))
    return sol[:n], rep


def linear_substep_theta_elastic(frozen, dt, r):
    """Solve (I + dt A(phi0)) theta = r via the conjugate pressure q.

    Returns (theta, report).  theta is recovered from the flux form
    theta = r + dt NL(q, kappa0), which conserves the weighted mean of r
    exactly.  The solve is direct.
    """
    w = frozen.w
    q, rep = _solve_conjugate_pressure(frozen, dt, w * r)
    theta = r - dt * (frozen.b_kappa @ q) / w
    return theta, rep


def linear_substep_theta_visco(frozen, dt, r, tol, maxiter):
    """Solve (I + dt L_{kappa M}) theta = r (SPD symmetrized)."""
    w = frozen.w
    b_km = frozen.b_km

    def apply_a(v):
        return w * v + dt * (b_km @ v)

    inv_diag = 1.0 / (w + dt * b_km.diagonal())

    def jacobi(v):
        return inv_diag * v

    x, rep = conjugate_gradient(apply_a, w * r, precondition=jacobi, tol=tol,
                                maxiter=maxiter)
    x += np.dot(w, r - x) / w.sum()
    return x, rep


def linear_substep_u_visco(frozen, dt, u_n, f_u):
    """Solve (K_nu + dt K)(phi0) d = K_nu(phi0) (u_n + dt f_u) for d."""
    rhs = frozen.ops.visco0.apply(u_n.ux + dt * f_u.ux, u_n.uy + dt * f_u.uy)
    return solve_elasticity(frozen.shifted_problem(dt), rhs)


# --- Picard windows -------------------------------------------------------


def _theta_iterates(frozen, state, sources, dt, cfg):
    """Quasi-static iterate map in the fluid content theta.

    The displacement is reconstructed at each new (phi, theta) and does
    not enter the residual.
    """
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    phi_k, theta_k, u_k = state.phi, state.theta, state.u
    while True:
        n_phi, n_theta = rhs_elastic(grid, material, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_elastic(
            frozen, dt, state.theta - theta_k + dt * n_theta)
        phi_k, theta_k = phi_k + d_phi, theta_k + d_theta
        problem = displacement_problem(grid, material, phi_k,
                                       reference=frozen.ctx0.augmented)
        u_k, _ = reconstruct_displacement(problem, material, theta_k, sources, t_new)
        yield (d_phi, d_theta), SimState(grid, phi_k, theta_k, u_k, t_new)


def _pressure_iterates(frozen, state, sources, dt, cfg):
    """Quasi-static iterate map in the pressure p.

    Independent route for cross-checking: displacement solves use the
    plain (unaugmented) stiffness with -grad(alpha p) loading, and the
    fluid content is carried implicitly through
    theta = p / M + alpha div u.  The pressure update solves
    (W B(phi0) + dt B_kappa) d_p = W (theta_n - theta_k + dt N_theta).
    """
    grid, material, w = frozen.grid, frozen.material, frozen.w
    t_new = state.t + dt

    def solve_u(phi, p):
        prob = EllipticProblem(grid, material, phi, variant=PLAIN, scale=STIFFNESS_SCALE,
                               reference=frozen.ctx0.plain)
        scalar = eigenstrain_tensor_source(material, phi) + material.biot_alpha(phi) * p
        rhs = prob.assemble_rhs(body=sources.body_at(grid, t_new), scalar_source=scalar,
                                traction=sources.traction)
        return solve_elasticity(prob, rhs)[0]

    def content_of(phi, p, u):
        return p / material.biot_modulus(phi) + material.biot_alpha(phi) * divergence(u)

    phi_k = state.phi
    p_k = pressure(material, state.phi, state.theta, divergence(state.u))
    u_k = solve_u(phi_k, p_k)
    theta_k = content_of(phi_k, p_k, u_k)
    while True:
        n_phi, n_theta = rhs_elastic(grid, material, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_p, _ = _solve_conjugate_pressure(
            frozen, dt, w * (state.theta - theta_k + dt * n_theta))
        phi_k, p_k = phi_k + d_phi, p_k + d_p
        u_k = solve_u(phi_k, p_k)
        theta_k = content_of(phi_k, p_k, u_k)
        yield (d_phi, d_p), SimState(grid, phi_k, theta_k, u_k, t_new)


def _visco_iterates(frozen, state, sources, dt, cfg):
    """Kelvin-Voigt iterate map: phase, content and displacement all
    enter the residual."""
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    phi_k, theta_k, u_k = state.phi, state.theta, state.u
    while True:
        n_phi, udot, n_theta = rhs_visco(
            grid, material, frozen.ops, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_visco(
            frozen, dt, state.theta - theta_k + dt * n_theta, cfg.tol_lin, cfg.max_lin)
        d_u, _ = linear_substep_u_visco(
            frozen, dt, VectorField2(grid, state.u.ux - u_k.ux, state.u.uy - u_k.uy), udot)
        phi_k, theta_k = phi_k + d_phi, theta_k + d_theta
        u_k = VectorField2(grid, u_k.ux + d_u.ux, u_k.uy + d_u.uy)
        yield (d_phi, d_theta, d_u.ux, d_u.uy), SimState(grid, phi_k, theta_k, u_k, t_new)


def picard_window(grid, material, state, sources, cfg, frozen=None):
    """Advance one window; returns (new_state, PicardReport, frozen).

    One attempt loop serves both regimes.  An iterate map (theta form,
    pressure form or Kelvin-Voigt) is a generator over (frozen, state,
    sources, dt, cfg) that yields each Picard iterate as (update,
    SimState): the update is the arrays d added to the unknowns that
    enter the residual, and the SimState is the new iterate.  An attempt
    stops when the weighted-L2 norm of the update is at most tol_picard
    times 1 + |phi| + |theta| of the start state (+ |u| in the visco
    regime), or after max_picard iterates; _shrink_loop retries it at
    smaller dt.

    frozen carries the window linearization; pass the previous bundle
    with cfg.refresh_linearization = False to keep the global frozen
    operators of a paper-faithful fixed linearization.
    """
    if material.rho == 1:
        frozen_type, iterates = FrozenVisco, _visco_iterates
    elif cfg.formulation == PRESSURE_FORM:
        frozen_type, iterates = FrozenElastic, _pressure_iterates
    else:
        frozen_type, iterates = FrozenElastic, _theta_iterates
    if frozen is None:
        frozen = frozen_type(grid, material, state.phi)
    w = frozen.w
    scale = 1.0 + np.sqrt(_wnorm2(w, state.phi)) + np.sqrt(_wnorm2(w, state.theta))
    if material.rho == 1:
        scale += np.sqrt(_wnorm2(w, state.u.ux) + _wnorm2(w, state.u.uy))

    def attempt(dt, residuals):
        stream = iterates(frozen, state, sources, dt, cfg)
        for _ in range(cfg.max_picard):
            update, new_state = next(stream)
            delta = np.sqrt(sum(_wnorm2(w, d) for d in update))
            residuals.append(delta)
            if delta <= cfg.tol_picard * scale:
                return new_state
        return None

    new_state, rep = _shrink_loop(cfg, state.t, attempt)
    return new_state, rep, frozen


def _shrink_loop(cfg, t, attempt_fn):
    """Run attempt_fn(dt, residuals) from window start t, shrinking dt on
    failure.

    attempt_fn appends each Picard residual to residuals and returns the
    new state, or None when Picard does not converge; a SolverFailure
    also fails the attempt.  Every attempt is recorded, and StepFailure
    carries them all.
    """
    dt = cfg.dt
    attempts = []
    while True:
        attempt = PicardAttempt(dt, [])
        attempts.append(attempt)
        try:
            new_state = attempt_fn(dt, attempt.residuals)
        except SolverFailure as exc:
            attempt.error = str(exc)
            new_state = None
        if new_state is not None:
            residuals = attempt.residuals
            rep = PicardReport(
                iterations=len(residuals), residual=residuals[-1] if residuals else 0.0,
                residuals=residuals, rho=_median_ratio(residuals),
                converged=True, dt_used=dt, shrinks=len(attempts) - 1)
            return new_state, rep
        if len(attempts) > cfg.max_shrinks:
            raise StepFailure(
                f"window at t = {t:.6g} failed after {cfg.max_shrinks} dt shrinks "
                f"(dt tried: {', '.join(f'{a.dt:.6g}' for a in attempts)})", attempts)
        dt *= cfg.shrink_factor


# --- driver ---------------------------------------------------------------


def initial_state(grid, material, phi, theta, sources=None, u_init="quasistatic"):
    """Assemble a consistent initial state.

    u_init = 'quasistatic' reconstructs the displacement from (phi,
    theta); 'zero' starts from u = 0 (visco regime only).
    """
    phi = np.asarray(phi, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    sources = SourceSpec() if sources is None else sources
    if u_init == "zero":
        u = VectorField2.zero(grid)
    elif u_init == "quasistatic":
        problem = displacement_problem(grid, material, phi)
        u, _ = reconstruct_displacement(problem, material, theta, sources, 0.0)
    else:
        raise ValueError(f"unknown u_init '{u_init}'")
    return SimState(grid, phi, theta, u, 0.0)


def run_simulation(grid, material, cfg, state, sources=None, observer=None):
    """March windows until t_end; returns (states, reports).

    states[0] is the initial state; one entry is appended per accepted
    window.  observer(state, report), when given, is called after each
    window (the CLI uses it for output).
    """
    sources = SourceSpec() if sources is None else sources
    states = [state]
    reports = []
    frozen = None
    t = state.t
    while t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        dt = min(cfg.dt, cfg.t_end - t)
        wcfg = replace(cfg, dt=dt)
        if cfg.refresh_linearization:
            frozen = None
        state, rep, frozen = picard_window(grid, material, state, sources, wcfg, frozen)
        t = state.t
        states.append(state)
        reports.append(rep)
        if observer is not None:
            observer(state, rep)
    return states, reports
