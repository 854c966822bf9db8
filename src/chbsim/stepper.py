"""Linearize-and-contract time integration.

Each implicit-Euler window of length dt solves the fixed-point equation
x = x_n + dt N(x), where N collects the physical tendencies from
chbsim.rhs.  The operators L(phi0), frozen at the start phase field
phi0 of this or an earlier window, only make the Picard map contract.
The map is written in update form: each iterate solves for its update
d and adds it,

    d = (I + dt L(phi0))^{-1} ( x_n - x_k + dt N(x_k) ),   x_{k+1} = x_k + d,

which is x_{k+1} = (I + dt L)^{-1}(x_n + dt (L x_k + N(x_k))), without
applying L to any iterate.  The linear substeps are:

  phase:      (I + dt eps Lap(m(phi0) Lap .)) d = r,
              solved as the SPD system (W + dt eps B1 D_m W^{-1} B1)
  content:    (I + dt A(phi0)) d = r in the quasi-static regime,
              solved in the conjugate pressure variable q:
              (W B(phi0) + dt B_kappa) q = W r by fixed-stress
              preconditioned CG on its Schur complement, d = r + dt NL(q)
  content:    (W + dt B_{kappa M}) d = W r in the visco regime
  displacement: (K_nu + dt K) d = K_nu (u_n - u_k + dt udot) in the
              visco regime (displacement is reconstructed, not evolved,
              in the quasi-static regime)

The operators are frozen in a bundle (FrozenElastic, FrozenVisco) at
the phase field of the window that builds it.  Every matrix that is
constant over a bundle is factored once per (bundle, dt) by a sparse
direct solver and reused by every Picard iterate: the phase operator,
the content system (quasi-static: its fixed-stress preconditioner P and
the plain stiffness K0 that each product with its Schur complement
solves with; visco: the content matrix itself) and the frozen
elasticity problems.  Displacement problems at the current iterate
phi_k (the quasi-static reconstruction, the pressure form's
displacement and the visco u-dot problem) differ from their frozen
counterparts by O(|phi_k - phi0|); they are solved by CG preconditioned
with the frozen factor, to the fixed relative tolerance
elliptic.REFERENCE_CG_TOL, and never factored.  A bundle therefore
factors four matrices per dt: phase, P, K0 and the augmented problem in
the quasi-static theta form (three in the pressure form, whose
displacement solves share K0), and phase, content, visco0 and the
shifted visco problem in the visco regime.

Since N carries every nonlinearity, L(phi0) sets only the rate of
contraction, not the fixed point, so a bundle frozen at an earlier
window's phase reaches the same state (the chord method: Kelley,
Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
ch. 5).  run_simulation therefore lets one bundle serve up to
BUNDLE_WINDOWS windows, and rebuilds it at the current window's phase
sooner when a window needs more Picard iterates than the bundle's first
one did, or when an attempt on it fails (see Linearization), the way
CVODE refreshes its Newton matrix (Hindmarsh et al., ACM TOMS 31,
2005).  A bundle keeps the factors of one dt: a retry at a smaller dt
replaces those that depend on dt.

The regimes differ only in their iterate map: the quasi-static regime
iterates in (phi, theta) (or, with formulation = 'pressure', in
(phi, p)) and the visco regime in (phi, theta, u).  Each map is a
generator that evaluates g at the current unknowns x_k, yields x_k and
its update d_k = g(x_k) - x_k, and takes the next unknowns back.
picard_window runs the one loop over the map: attempts at shrinking
dt, each running Anderson-accelerated Picard iterates (AA(m) with
m = ANDERSON_DEPTH, Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the
next unknowns are the affine combination of the last m + 1 values
g(x_i) whose updates combine to the least weighted-L2 norm.  Each
g(x_i) keeps the weighted means of phi and theta, so their affine
combinations do too, and a converged attempt accepts g(x_k) itself;
acceleration changes the iterates, not the fixed point.  On a linearly
converging map, AA improves the rate (Evans, Pollock, Rebholz & Xiao,
SIAM J. Numer. Anal. 58, 2020), which is what a weakly contracting
Picard map behind a sharp interface needs.  The iteration residual is
the weighted-L2 norm of the update d_k; the contraction estimate rho is
the median of successive residual ratios of the accelerated iteration.
A window that fails to converge, or whose linear solve fails, is
retried with dt scaled down by shrink_factor, on a bundle rebuilt at
its own phase if the failed attempt's was stale.  An attempt is given
up before max_picard iterates once it cannot converge (see
_cannot_converge): at a non-finite residual, or, from iterate
GIVE_UP_AFTER on, when the ratio observed over its last three
residuals is not below 1 or, kept up, would not bring the residual down
to the target within max_picard iterates (the chord method's stopping
test, Kelley, ch. 5).
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .biot import STIFFNESS_SCALE, BiotContext
from .elliptic import (PLAIN, REFERENCE_CG_MAXITER, REFERENCE_CG_TOL, VISCO, DirectSolver,
                       EllipticProblem, SolverFailure, conjugate_gradient, solve_elasticity)
from .grid import VectorField2, divergence, flux_stiffness_matrix
from .rhs import (SimState, SourceSpec, ViscoOperators, displacement_problem,
                  eigenstrain_tensor_source, pressure, reconstruct_displacement,
                  rhs_elastic, rhs_visco)

THETA_FORM = "theta"
PRESSURE_FORM = "pressure"


@dataclass
class PicardAttempt:
    """One try at a window: its dt, the Picard residuals it computed, and
    the SolverFailure message that ended it (None when it succeeded, or
    when Picard did not converge: it ran max_picard iterations, or it was
    given up earlier because its contraction could not reach tol_picard
    in max_picard iterations, see _cannot_converge).  fresh says
    whether the attempt's bundle was built at the window's own phi; a
    stale one was built at the phi of an earlier window."""

    dt: float
    residuals: list
    error: str = None
    fresh: bool = True


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

    No solve reads tol_lin: the frozen substeps are sparse direct
    solves, and the displacement solves at the current iterate run CG
    preconditioned with the bundle's factor to a fixed internal
    tolerance.  The field, its config key and its validation are kept
    only because bench/run_bench.py writes stepper.tol_lin into every
    config, and parse_config rejects unknown keys.
    """

    dt: float = 1e-3
    t_end: float = 1e-2
    tol_picard: float = 1e-9
    max_picard: int = 40
    shrink_factor: float = 0.5
    max_shrinks: int = 10
    tol_lin: float = 1e-10
    formulation: str = THETA_FORM

    def __post_init__(self):
        for name in ("dt", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if not (0 < self.shrink_factor < 1):
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.formulation not in (THETA_FORM, PRESSURE_FORM):
            raise ValueError(f"unknown formulation '{self.formulation}'")
        for name, low in (("max_picard", 1), ("max_shrinks", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("tol_picard", "tol_lin"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class PicardReport:
    """The accepted attempt of a window: its iterate count, last residual
    and residual history, the median ratio rho of its successive
    residuals (the observed contraction of the accelerated iteration,
    not of the plain Picard map), its dt and the shrinks before it."""

    iterations: int
    residual: float
    residuals: list
    rho: float
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


# Picard iterates an attempt runs before its observed contraction may end
# it.  The rule reads the accelerated residuals, whose ratios vary from
# iterate to iterate.  Of the 1496 attempts that converge in the test
# suite and in the benchmark workloads (seeds 1-8, and retry-qs-32 at
# eps = 0.15), none would be given up.  The workloads' attempts converge
# in at most 11 iterates, at least 4e8 times below the target the rule
# predicts; the closest of all, a 10^2 test window converging at iterate
# 33 of 40, predicts at iterate 9 a last residual 1.36 times below it.
GIVE_UP_AFTER = 5


def _cannot_converge(residuals, target, max_picard):
    """Whether an attempt with these Picard residuals, none of them at
    most target, cannot reach target within max_picard iterates.

    A non-finite residual cannot.  From iterate k = GIVE_UP_AFTER on, the
    contraction estimate rho = (r_k / r_{k-3})^(1/3) must lie below 1,
    and the residual it predicts at the last iterate, r_k rho^(max_picard
    - k), must reach target.
    """
    r = residuals[-1]
    if not np.isfinite(r):
        return True
    k = len(residuals)
    if k < GIVE_UP_AFTER:
        return False
    rho = (r / residuals[-4]) ** (1.0 / 3.0)
    return not rho < 1.0 or r * rho ** (max_picard - k) > target


# --- frozen operator bundles ---------------------------------------------


# Weight of the fixed-stress term in the content preconditioner
# P = Z + beta W alpha0^2 / K_dr.  beta = 1 is the classical fixed-stress
# split; over beta in [0, 2] the preconditioned iteration count stays at
# 6-8 on every grid measured (32^2 to 128^2), so it is not a setting.
FIXED_STRESS_BETA = 1.0


class ContentSchur:
    """Quasi-static content solve S q = b by preconditioned CG.

    S = Z + G_f K0_f^{-1} G_f' (see FrozenElastic.content_solver): one
    product costs one solve with the plain K0 factor k0.  The
    preconditioner is the LU of the fixed-stress approximation
    P = Z + beta W alpha0^2 / K_dr, with the drained bulk modulus
    K_dr = lam + mu of the scaled plain stiffness at phi0.  Fixed-stress
    splitting is spectrally equivalent to S (Kim, Tchelepi & Juanes,
    CMAME 200, 2011; Mikelic & Wheeler, Comput. Geosci. 17, 2013), so
    the iteration count does not grow with the grid.  CG runs to the
    relative tolerance REFERENCE_CG_TOL, like the other preconditioned
    solves.
    """

    def __init__(self, z, g_f, k0, precond):
        self.z = z.tocsr()
        self.g_f = g_f.tocsr()
        self.g_f_t = g_f.T.tocsr()
        self.k0 = k0
        self.precond = precond

    def apply(self, q):
        """S q."""
        return self.z @ q + self.g_f @ self.k0.apply_inverse(self.g_f_t @ q)

    def solve(self, b):
        """(q, SolveReport) of S q = b."""
        return conjugate_gradient(self.apply, b, precondition=self.precond.apply_inverse,
                                  tol=REFERENCE_CG_TOL, maxiter=REFERENCE_CG_MAXITER)


@dataclass
class _FrozenPhase:
    """Frozen data shared by both regimes, with the phase solver and the
    bundle's one solver cache, keyed by (role, dt)."""

    grid: object
    material: object
    phi0: np.ndarray

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float).ravel()
        self.b_one = flux_stiffness_matrix(self.grid, 1.0)
        self.m0 = self.material.mobility(self.phi0)
        self.w = self.grid.quad_weights()
        self._solvers = {}

    def _cached(self, role, dt, build):
        """The bundle's solver for (role, dt); build() makes it on first use.

        Building one for a new dt first drops the solvers of every other
        dt, so a bundle that serves many windows and retries holds the
        factors of one dt at a time.
        """
        if (role, dt) not in self._solvers:
            self._solvers = {key: s for key, s in self._solvers.items() if key[1] == dt}
            self._solvers[role, dt] = build()
        return self._solvers[role, dt]

    def phase_solver(self, dt):
        """DirectSolver of W + dt eps B1 diag(m0/w) B1, cached per dt."""
        return self._cached("phase", dt, lambda: DirectSolver(
            sp.diags(self.w) + (dt * self.material.eps) * (
                self.b_one @ sp.diags(self.m0 / self.w) @ self.b_one)))


@dataclass
class FrozenElastic(_FrozenPhase):
    """Window-frozen operators for the quasi-static regime."""

    def __post_init__(self):
        super().__post_init__()
        self.ctx0 = BiotContext(self.grid, self.material, self.phi0)
        self.b_kappa = flux_stiffness_matrix(self.grid, self.ctx0.kappa)

    def content_solver(self, dt):
        """ContentSchur of the content system, cached per dt.

        The content system (W B(phi0) + dt B_kappa) q = W r has the
        pressure unfolding

            [ Z     G_f   ] [q]   [W r]
            [ G_f'  -K0_f ] [v] = [ 0 ]

        with the pressure block Z = W/M0 + dt B_kappa, the coupling
        G v = W alpha0 div v and the plain stiffness K0 at phi0, both
        restricted to the free displacement dofs.  Eliminating v gives
        back W B(phi0) + dt B_kappa as the SPD Schur complement
        Z + G_f K0_f^{-1} G_f', which ContentSchur solves by CG with the
        bundle's plain K0 factor, preconditioned by the fixed-stress P.
        """
        def build():
            n = self.grid.n_nodes
            plain, alpha = self.ctx0.plain, self.ctx0.alpha
            div_f = self.grid.strain_op[3 * n:, self.grid.free_dofs]
            g_f = sp.diags(self.w * alpha) @ div_f
            z = sp.diags(self.w / self.ctx0.modulus) + dt * self.b_kappa
            lam, mu = self.material.lame(self.phi0)
            k_drained = STIFFNESS_SCALE * (lam + mu)
            fixed_stress = z + sp.diags(FIXED_STRESS_BETA * self.w * alpha**2 / k_drained)
            return ContentSchur(z, g_f, plain.factor(), DirectSolver(fixed_stress))
        return self._cached("content", dt, build)


@dataclass
class FrozenVisco(_FrozenPhase):
    """Window-frozen operators for the Kelvin-Voigt regime."""

    def __post_init__(self):
        super().__post_init__()
        self.ops = ViscoOperators(self.grid, self.material, self.phi0)
        self.b_km = flux_stiffness_matrix(self.grid, self.ops.kappa_m0)

    def content_solver(self, dt):
        """DirectSolver of W + dt B_{kappa M}(phi0), cached per dt."""
        return self._cached("content", dt, lambda: DirectSolver(
            sp.diags(self.w) + dt * self.b_km))

    def shifted_problem(self, dt):
        """Shifted visco problem K_nu + dt K at phi0, cached per dt."""
        return self._cached("shifted", dt, lambda: EllipticProblem(
            self.grid, self.material, self.phi0, variant=VISCO,
            scale=STIFFNESS_SCALE, shift=dt))


# --- linear substeps ------------------------------------------------------


def _mean_restoring_solve(solver, w, r):
    """Solve (W + dt B) x = W r, then restore the weighted mean of r,
    which the exact solution keeps (B is a mean-free flux matrix)."""
    x, rep = solver.solve(w * r)
    x += np.dot(w, r - x) / w.sum()
    return x, rep


def linear_substep_phi(frozen, dt, r):
    """Solve (I + dt eps Lap(m(phi0) Lap .)) phi = r (SPD symmetrized)."""
    return _mean_restoring_solve(frozen.phase_solver(dt), frozen.w, r)


def linear_substep_theta_elastic(frozen, dt, r):
    """Solve (I + dt A(phi0)) theta = r via the conjugate pressure q,
    which solves (W B(phi0) + dt B_kappa) q = W r (see
    FrozenElastic.content_solver).

    Returns (theta, report).  theta is recovered from the flux form
    theta = r + dt NL(q, kappa0), which conserves the weighted mean of r
    exactly, whatever the CG residual of q.
    """
    w = frozen.w
    q, rep = frozen.content_solver(dt).solve(w * r)
    theta = r - dt * (frozen.b_kappa @ q) / w
    return theta, rep


def linear_substep_theta_visco(frozen, dt, r):
    """Solve (I + dt L_{kappa M}) theta = r (SPD symmetrized)."""
    return _mean_restoring_solve(frozen.content_solver(dt), frozen.w, r)


def linear_substep_u_visco(frozen, dt, u_n, f_u):
    """Solve (K_nu + dt K)(phi0) d = K_nu(phi0) (u_n + dt f_u) for d."""
    rhs = frozen.ops.visco0.apply(u_n.ux + dt * f_u.ux, u_n.uy + dt * f_u.uy)
    return solve_elasticity(frozen.shifted_problem(dt), rhs)


# --- Picard windows -------------------------------------------------------


# Most windows one bundle serves before it is rebuilt.  On the criterion
# 05 runs (200 windows at 32^2), 5 factors 4.7 times less than a bundle
# per window, for 0.2-0.4 % more Picard iterates; 20 saves another 8-13 %
# of the run time there but takes up to 1.3 % more iterates.
BUNDLE_WINDOWS = 5


@dataclass
class Linearization:
    """The frozen bundle that successive windows of one run share.

    A window that has no bundle of its regime builds one at its own phi.
    The bundle is dropped, so that the next window builds a fresh one,
    after it has served BUNDLE_WINDOWS windows or after a window that
    needed more Picard iterates than its first one.  A failed attempt on
    a stale bundle also rebuilds it (see picard_window).
    """

    frozen: _FrozenPhase = None
    windows: int = 0            # windows accepted on the bundle
    first_iterations: int = 0   # Picard iterates of the first of them

    def refresh(self, frozen_type, grid, material, phi):
        # free a stale bundle's factors before the new bundle makes its own
        self.frozen = None
        self.frozen = frozen_type(grid, material, phi)
        self.windows = 0

    def record(self, iterations):
        """Count one accepted window that took `iterations` Picard iterates."""
        if self.windows == 0:
            self.first_iterations = iterations
        self.windows += 1
        if self.windows >= BUNDLE_WINDOWS or iterations > self.first_iterations:
            self.frozen = None


def _theta_iterates(frozen, state, sources, dt):
    """Quasi-static iterate map in the fluid content theta.

    The unknowns are (phi, theta).  The displacement is reconstructed at
    each next (phi, theta) and does not enter the residual.
    """
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    phi_k, theta_k, u_k = state.phi, state.theta, state.u
    while True:
        n_phi, n_theta = rhs_elastic(grid, material, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_elastic(
            frozen, dt, state.theta - theta_k + dt * n_theta)
        phi_k, theta_k = yield (phi_k, theta_k), (d_phi, d_theta)
        problem = displacement_problem(grid, material, phi_k,
                                       reference=frozen.ctx0.augmented)
        u_k, _ = reconstruct_displacement(problem, material, theta_k, sources, t_new)
        yield SimState(grid, phi_k, theta_k, u_k, t_new)


def _pressure_iterates(frozen, state, sources, dt):
    """Quasi-static iterate map in the pressure p.

    Independent route for cross-checking: the unknowns are (phi, p);
    displacement solves use the plain (unaugmented) stiffness with
    -grad(alpha p) loading, and the fluid content is carried implicitly
    through theta = p / M + alpha div u.  The pressure update solves
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
        d_p, _ = frozen.content_solver(dt).solve(w * (state.theta - theta_k + dt * n_theta))
        phi_k, p_k = yield (phi_k, p_k), (d_phi, d_p)
        u_k = solve_u(phi_k, p_k)
        theta_k = content_of(phi_k, p_k, u_k)
        yield SimState(grid, phi_k, theta_k, u_k, t_new)


def _visco_iterates(frozen, state, sources, dt):
    """Kelvin-Voigt iterate map: the unknowns (phi, theta, u_x, u_y) all
    enter the residual, and no field is derived."""
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    phi_k, theta_k, u_k = state.phi, state.theta, state.u
    while True:
        n_phi, udot, n_theta = rhs_visco(
            grid, material, frozen.ops, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_visco(
            frozen, dt, state.theta - theta_k + dt * n_theta)
        d_u, _ = linear_substep_u_visco(
            frozen, dt, VectorField2(grid, state.u.ux - u_k.ux, state.u.uy - u_k.uy), udot)
        phi_k, theta_k, ux, uy = yield ((phi_k, theta_k, u_k.ux, u_k.uy),
                                        (d_phi, d_theta, d_u.ux, d_u.uy))
        u_k = VectorField2(grid, ux, uy)
        yield SimState(grid, phi_k, theta_k, u_k, t_new)


# Evaluations of the map that each Anderson iterate combines, besides the
# newest.  On retry-qs-32 (seed 1), whose plain map contracts at
# 0.84-1.01 and shrank dt in 5 of 7 windows, depths 1-5 all converge
# every window at dt = 1e-3, in 38, 34, 31, 28 and 29 evaluations; with
# eps = 0.15, depth 1 still shrinks 3 times and depths 2-4 take 45, 39
# and 40 evaluations.  The spinodal workloads take 81 at every depth.
ANDERSON_DEPTH = 3


def _anderson_step(sw, history):
    """The next unknowns of Anderson acceleration (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011) from history, the last pairs (x_i, d_i) of
    unknowns and updates d_i = g(x_i) - x_i, oldest first, as flat arrays.

    With the differences dX, dF of successive x_i and d_i, gamma
    minimizes |sw (d_k - dF gamma)|, sw the square root of the weights
    of the Picard residual, and the step is x_k + d_k - (dX + dF) gamma:
    an affine combination of the g(x_i), which therefore keeps every
    weighted mean that all g(x_i) share.  One pair gives the Picard step
    g(x_k).
    """
    x, d = history[-1]
    if len(history) == 1:
        return x + d
    dx = np.column_stack([b[0] - a[0] for a, b in zip(history, history[1:])])
    df = np.column_stack([b[1] - a[1] for a, b in zip(history, history[1:])])
    gamma = np.linalg.lstsq(sw[:, None] * df, sw * d, rcond=None)[0]
    return x + d - (dx + df) @ gamma


def picard_window(grid, material, state, sources, cfg, linearization=None):
    """Advance one window; returns (new_state, PicardReport).

    linearization is the Linearization that the windows of a run share;
    None builds a fresh bundle at the window's start phase field, which
    is then used by this window alone.  Given one, the window reuses its
    bundle if it has one for the window's regime, and records its
    iterate count in it (see Linearization).  One loop serves both
    regimes: each attempt runs an iterate map (theta form, pressure form
    or Kelvin-Voigt), a generator over (frozen, state, sources, dt).  At
    each iterate it yields (x_k, d_k), the arrays of the unknowns and of
    their update d_k = g(x_k) - x_k; sent the next unknowns, it builds
    the fields derived from them and yields their SimState.  The window
    sends the Anderson step of _anderson_step, over the last
    ANDERSON_DEPTH + 1 pairs of the attempt (the history restarts with
    every attempt).  An attempt succeeds when the weighted-L2 norm of
    d_k is at most tol_picard times 1 + |phi| + |theta| of the start
    state (+ |u| in the visco regime); the window then accepts
    g(x_k) = x_k + d_k.  The report's rho is the observed contraction of
    the accelerated iteration.  An attempt fails after max_picard
    iterates, on a SolverFailure, or as soon as _cannot_converge shows
    that it cannot succeed within max_picard iterates: at a non-finite
    residual, or from iterate GIVE_UP_AFTER on when its contraction
    estimate is not below 1 or predicts a residual above the target at
    iterate max_picard.  The window is then retried with
    dt scaled by shrink_factor, on a bundle rebuilt at the window's phi
    if the failed one was stale.  After max_shrinks retries, StepFailure
    carries every PicardAttempt made, and its message marks the stale
    ones.
    """
    if material.rho == 1:
        frozen_type, iterates = FrozenVisco, _visco_iterates
    elif cfg.formulation == PRESSURE_FORM:
        frozen_type, iterates = FrozenElastic, _pressure_iterates
    else:
        frozen_type, iterates = FrozenElastic, _theta_iterates
    if linearization is None:
        linearization = Linearization()
    fresh = not isinstance(linearization.frozen, frozen_type)
    if fresh:
        linearization.refresh(frozen_type, grid, material, state.phi)
    w = linearization.frozen.w
    scale = 1.0 + np.sqrt(_wnorm2(w, state.phi)) + np.sqrt(_wnorm2(w, state.theta))
    if material.rho == 1:
        scale += np.sqrt(_wnorm2(w, state.u.ux) + _wnorm2(w, state.u.uy))

    target = cfg.tol_picard * scale
    dt = cfg.dt
    attempts = []
    while True:
        attempt = PicardAttempt(dt, [], fresh=fresh)
        attempts.append(attempt)
        residuals = attempt.residuals
        stream = iterates(linearization.frozen, state, sources, dt)
        history = []
        try:
            while True:
                x, d = (np.concatenate(v) for v in next(stream))
                blocks = x.size // w.size
                sw = np.sqrt(np.tile(w, blocks))
                residuals.append(float(np.linalg.norm(sw * d)))
                if residuals[-1] <= target:
                    new_state = stream.send(np.split(x + d, blocks))
                    linearization.record(len(residuals))
                    return new_state, PicardReport(
                        iterations=len(residuals), residual=residuals[-1],
                        residuals=residuals, rho=_median_ratio(residuals),
                        dt_used=dt, shrinks=len(attempts) - 1)
                if (len(residuals) == cfg.max_picard
                        or _cannot_converge(residuals, target, cfg.max_picard)):
                    break
                history = history[-ANDERSON_DEPTH:] + [(x, d)]
                stream.send(np.split(_anderson_step(sw, history), blocks))
        except SolverFailure as exc:
            attempt.error = str(exc)
        if len(attempts) > cfg.max_shrinks:
            tried = ", ".join(f"{a.dt:.6g}" + ("" if a.fresh else " (stale bundle)")
                              for a in attempts)
            raise StepFailure(f"window at t = {state.t:.6g} failed after {cfg.max_shrinks} "
                              f"dt shrinks (dt tried: {tried})", attempts)
        if not fresh:
            linearization.refresh(frozen_type, grid, material, state.phi)
            fresh = True
        dt *= cfg.shrink_factor


# --- driver ---------------------------------------------------------------


def initial_state(grid, material, phi, theta, sources=None):
    """Assemble the initial state at t = 0 from (phi, theta).

    The regime fixes the start displacement: the quasi-static regime
    (rho = 0) reconstructs it from (phi, theta) and the sources, and the
    Kelvin-Voigt regime (rho = 1) starts from rest, u = 0.
    """
    phi = np.asarray(phi, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    if material.rho == 1:
        u = VectorField2.zero(grid)
    else:
        sources = SourceSpec() if sources is None else sources
        problem = displacement_problem(grid, material, phi)
        u, _ = reconstruct_displacement(problem, material, theta, sources, 0.0)
    return SimState(grid, phi, theta, u, 0.0)


def run_simulation(grid, material, cfg, state, sources=None, observer=None):
    """March windows until t_end; returns (states, reports).

    states[0] is the initial state; one entry is appended per accepted
    window.  The windows share one Linearization, so a frozen bundle
    serves up to BUNDLE_WINDOWS of them.  Each window runs at cfg.dt,
    the last one at the remainder t_end - t when that is shorter by more
    than rounding (1e-9 cfg.dt), so that a run of whole windows keeps
    one dt.  observer(state, report), when given, is called after each
    window (the CLI uses it for output).
    """
    sources = SourceSpec() if sources is None else sources
    states = [state]
    reports = []
    linearization = Linearization()
    t = state.t
    while t < cfg.t_end - 1e-12 * max(1.0, cfg.t_end):
        dt = cfg.t_end - t
        if dt >= cfg.dt * (1.0 - 1e-9):
            dt = cfg.dt
        state, rep = picard_window(grid, material, state, sources, replace(cfg, dt=dt),
                                   linearization)
        t = state.t
        states.append(state)
        reports.append(rep)
        if observer is not None:
            observer(state, rep)
    return states, reports
