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
              solved in the conjugate pressure variable q,
              d = r + dt NL(q): at weak coupling, q solves the
              fixed-stress split P q = W r, with
              P = W/M0 + dt B_kappa + beta W alpha0^2 / K_dr;
              at strong coupling, (W B(phi0) + dt B_kappa) q = W r by
              P-preconditioned CG on its Schur complement
  content:    (W + dt B_{kappa M}) d = W r in the visco regime
  displacement: (K_nu + dt K)(phi0) d = dt F_u(x_k) in the visco regime,
              dt F_u = K_nu(phi_k)(u_n - u_k) + dt (f - E'W sigma_rest),
              with the state-dependent viscous mass K_nu(phi_k) (u is
              reconstructed, not evolved, in the quasi-static regime)

The operators are frozen in a bundle (FrozenElastic, FrozenVisco) at
the phase field of the window that builds it.  Every matrix that is
constant over a bundle is SPD, and is factored once per (bundle, dt) by
a sparse direct solver (elliptic.DirectSolver) and reused by every
Picard iterate: the phase operator, the content system (quasi-static:
the fixed-stress P, and at strong coupling also the plain stiffness K0
that each product with the Schur complement solves with; visco: the
content matrix itself) and the visco regime's shifted elasticity
problem.  The displacement problems at a current iterate phi_k (the
quasi-static reconstruction and the pressure form's displacement) and
the initial state's are solved by CG preconditioned with the block
fast-diagonalization (elliptic.LameBlockPreconditioner) of the problem
at phi0, or at the initial phase, which factors nothing (initial_state
factors only if its CG fails).  A weakly coupled quasi-static bundle
therefore factors two matrices per dt, phase and P, in both forms; a
strongly coupled one adds K0 (three).  A visco bundle factors three:
phase, content and the shifted visco problem.

A quasi-static map feeds an iterate's u only into its tendencies, so
the displacement solve at a Picard iterate is inexact: it starts from
the previous iterate's u and stops once its preconditioned residual
norm is ITERATE_FORCING / (1 + s)^2 times its start's, s the bundle's
coupling strength, an error that shrinks with the Picard update.  Only
the accepted state's u is solved to the absolute target
elliptic.REFERENCE_CG_TOL |b|, from the last iterate's.

Since N carries every nonlinearity, L(phi0) sets only the rate of
contraction, not the fixed point, so a bundle frozen at an earlier
window's phase reaches the same state (the chord method: Kelley,
Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
ch. 5).  A Run therefore lets one bundle serve BUNDLE_WINDOWS windows,
and rebuilds it at the current window's phase sooner only when an
attempt on it fails (see picard_window), the way CVODE refreshes its
Newton matrix on age and on failure (Hindmarsh et al., ACM TOMS 31,
2005).  A bundle keeps the factors of one dt: a retry at a smaller dt
replaces those that depend on dt.

The regimes differ only in their iterate map: the quasi-static regime
iterates in (phi, theta) (or, with formulation = 'pressure', in
(phi, p)) and the visco regime in (phi, theta, u).  Each map is a
generator that evaluates g at the current unknowns x_k, yields x_k and
its update d_k = g(x_k) - x_k, and takes back the next unknowns with a
flag that says whether they are the window's accepted state.
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
its own phase.  An attempt is given up before max_picard iterates once
it cannot converge (see _cannot_converge): at a non-finite residual,
or, from iterate GIVE_UP_AFTER on, when its mean rate over the whole
attempt is not below 1 or, kept up, would not bring the residual down
to the target within max_picard iterates (the chord method's stopping
test, Kelley, ch. 5).

The solutions are smooth in time after the initial layer, so a window
starts its Picard iteration from a prediction of its state, not from
x_n: Run.step extrapolates every field (phi, theta, u_x, u_y) to
t_n + dt by the Lagrange polynomial through the last k + 1 accepted
states, at their own times, with k at most PREDICTOR_ORDER.  k is picked
by hindcast: the order whose same extrapolation, made one window back,
came closest to the state just accepted, in the quadrature-weighted L2
norm over all fields.  k = 0, the start from x_n, is kept whenever no
extrapolation beats it: in the first two windows, in the next one or
two of a spinodal run, and in every window of the sharp-interface runs
that shrink least (see PREDICTOR_ORDER).  Only a window's first attempt
starts from the prediction; a retry after a failed attempt starts from
x_n at the shrunk dt.  The start moves the iterates, not the fixed
point.  This is the predictor of implicit integrators (CVODE: Hindmarsh
et al., ACM TOMS 31, 2005; the extrapolated starting values of Hairer &
Wanner, Solving Ordinary Differential Equations II, Sec. IV.8).
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .elliptic import (AUGMENTED, PLAIN, REFERENCE_CG_MAXITER, REFERENCE_CG_TOL,
                       STIFFNESS_SCALE, VISCO, DirectSolver, EllipticProblem, SolverFailure,
                       conjugate_gradient, solve_elasticity)
from .grid import VectorField2, divergence, flux_stiffness_matrix
from .rhs import (SimState, SourceSpec, displacement_problem, eigenstrain_tensor_source,
                  pressure, reconstruct_displacement, rhs_elastic, rhs_visco)

THETA_FORM = "theta"
PRESSURE_FORM = "pressure"


@dataclass
class PicardAttempt:
    """One try at a window: its dt, the Picard residuals it computed, and
    the SolverFailure message that ended it (None when it succeeded, or
    when Picard did not converge: it ran max_picard iterations, or it was
    given up earlier because its contraction could not reach tol_picard
    in max_picard iterations, see _cannot_converge)."""

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

    No solve reads tol_lin: the frozen substeps are sparse direct
    solves, and the displacement solves at the current iterate run CG
    preconditioned with the bundle's block fast-diagonalization, a
    Picard iterate's to the coupling-scaled forcing term ITERATE_FORCING
    and the accepted state's to the absolute target REFERENCE_CG_TOL
    |b|; neither is a setting.  The field, its config key and its
    validation are kept only because
    bench/run_bench.py writes stepper.tol_lin into every config, and
    parse_config rejects unknown keys.
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
    not of the plain Picard map), its dt and the shrinks before it.
    start_order is the order k of the extrapolation that the accepted
    attempt started from, set by Run.step; 0, the start state x_n, for a
    window run without a predicted start and for every retry."""

    iterations: int
    residual: float
    residuals: list
    rho: float
    dt_used: float
    shrinks: int
    start_order: int = 0


def _median_ratio(residuals):
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1) if residuals[i] > 0]
    if not ratios:
        return 0.0
    return float(np.median(ratios))


def _wnorm2(w, v):
    return float(np.dot(w, v * v))


# Picard iterates an attempt runs before its observed contraction may end
# it.  Audited with the give-up off, each converged attempt checked at
# every prefix: none of the 913 attempts that converge in the test suite,
# nor of the 400 of the benchmark workloads (seeds 1-8, and retry-qs-32 at
# eps = 0.15), would be given up.  The workloads' attempts converge in at
# most 11 iterates, far below the target the rule predicts; the closest of
# all, a 10^2 test window converging at iterate 36 of 40, predicts at
# iterate 34 a last residual 8.7 times below it.  Of 122 attempts that
# converge in a scan of that window over eps in [0.14, 0.3] and dt in
# [1e-3, 6e-3], two would be given up, both converging at their 40th and
# last iterate; the rate over the last three ratios gave up 14.
GIVE_UP_AFTER = 5


def _cannot_converge(residuals, target, max_picard):
    """Whether an attempt with these Picard residuals, none of them at
    most target, cannot reach target within max_picard iterates.

    A non-finite residual cannot.  From iterate k = GIVE_UP_AFTER on, the
    contraction estimate rho = (r_k / r_1)^(1/(k-1)), the mean rate over
    the whole attempt, must lie below 1, and the residual it predicts at
    the last iterate, r_k rho^(max_picard - k), must reach target.  The
    ratios of successive accelerated residuals vary from iterate to
    iterate, so a rate read off a few of them can predict failure for an
    attempt that converges; the whole attempt spans at least
    ANDERSON_DEPTH + 1 of them.
    """
    r = residuals[-1]
    if not np.isfinite(r):
        return True
    k = len(residuals)
    if k < GIVE_UP_AFTER:
        return False
    rho = (r / residuals[0]) ** (1.0 / (k - 1))
    return not rho < 1.0 or r * rho ** (max_picard - k) > target


# --- frozen operator bundles ---------------------------------------------


# Weight of the fixed-stress term in P = Z + beta W alpha0^2 / K_dr.  At
# weak coupling P is the frozen content operator itself, so beta sets the
# split's rate of contraction; at strong coupling P preconditions
# ContentSchur.  beta = 1 is the classical fixed-stress split (Kim,
# Tchelepi & Juanes, CMAME 200, 2011), not a setting: as a preconditioner
# at s = 0.2, beta in [0, 2] kept the PCG count at 6-8 on every grid
# measured (32^2 to 128^2).
FIXED_STRESS_BETA = 1.0

# Largest coupling strength s_max = max alpha0^2 M0 / K_dr over the nodes
# at which the bundle's fixed-stress P is the frozen content operator (see
# FrozenElastic.content_solver).  The split contracts at about s / (1 + s)
# (Mikelic & Wheeler, Comput. Geosci. 17, 2013).  Measured with alpha = 1
# and M raised, on 10 windows of spinodal-qs-32 and on retry-qs-32 (seed
# 1): against the Schur solve's 41 and 31 Picard iterates, the split alone
# takes 54 and 32 at s = 1 and 61 and 37 at s = 2, in 0.55-0.65 of the
# time; 77 and 42 at s = 2.7, in 0.8 of it; at s = 4 it is slower, and
# from s = 5.3 on it shrinks dt.  The benchmark workloads have s = 0.08.
FIXED_STRESS_MAX_COUPLING = 2.0


class ContentSchur:
    """Quasi-static content solve S q = b by preconditioned CG, the content
    solver of a strongly coupled bundle (see FrozenElastic.content_solver).

    S = Z + G_f K0_f^{-1} G_f': one product costs one solve with the plain
    K0 factor k0.  The preconditioner is the factor of the fixed-stress
    approximation P = Z + beta W alpha0^2 / K_dr, with the drained bulk
    modulus K_dr = lam + mu of the scaled plain stiffness at phi0.
    Fixed-stress splitting is spectrally equivalent to S (Kim, Tchelepi &
    Juanes, CMAME 200, 2011; Mikelic & Wheeler, Comput. Geosci. 17, 2013),
    so the iteration count does not grow with the grid; it grows with the
    coupling strength.  CG runs from zero to the absolute target
    REFERENCE_CG_TOL |b|, like the accepted state's displacement solve.
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
    bundle's one solver cache, keyed by (role, dt).  A bundle reads its
    frozen coefficient fields from one Coefficients pass at phi0 (_freeze),
    which it does not keep."""

    grid: object
    material: object
    phi0: np.ndarray

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float).ravel()
        self.b_one = flux_stiffness_matrix(self.grid, 1.0)
        self.w = self.grid.quad_weights()
        self._solvers = {}
        self._freeze(self.material.coefficients(self.phi0))

    def _freeze(self, c):
        """Read the frozen fields from the Coefficients c at phi0: m(phi0)."""
        self.m0 = c.mobility

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
        """DirectSolver of W + dt eps B1 diag(m0/w) B1, cached per dt: SPD,
        as W is and B1 diag(m0/w) B1 is semidefinite."""
        return self._cached("phase", dt, lambda: DirectSolver(
            sp.diags(self.w) + (dt * self.material.eps) * (
                self.b_one @ sp.diags(self.m0 / self.w) @ self.b_one)))


@dataclass
class FrozenElastic(_FrozenPhase):
    """Window-frozen operators for the quasi-static regime.

    coupling is the largest coupling strength alpha0^2 M0 / K_dr over the
    nodes, with the drained bulk modulus K_dr of the fixed-stress P.  Its
    plain and augmented displacement problems at phi0 lend their block
    preconditioners to the iterates' displacement solves (pressure and
    theta form); only ContentSchur factors one, the plain.
    """

    def _freeze(self, c):
        """m(phi0), alpha0, M0, kappa0 and the drained bulk modulus K_dr
        from c, and the two reference problems at phi0."""
        super()._freeze(c)
        self.alpha0, self.modulus0 = c.alpha, c.modulus
        self.b_kappa = flux_stiffness_matrix(self.grid, c.permeability)
        self.k_drained = STIFFNESS_SCALE * (c.lam + c.mu)
        self.coupling = float(np.max(self.alpha0**2 * self.modulus0 / self.k_drained))
        self.plain = EllipticProblem(self.grid, self.material, self.phi0, variant=PLAIN)
        self.augmented = EllipticProblem(self.grid, self.material, self.phi0, variant=AUGMENTED)

    def content_solver(self, dt):
        """The frozen content operator's solver, cached per dt.

        The content system (W B(phi0) + dt B_kappa) q = W r has the
        pressure unfolding

            [ Z     G_f   ] [q]   [W r]
            [ G_f'  -K0_f ] [v] = [ 0 ]

        with the pressure block Z = W/M0 + dt B_kappa, the coupling
        G v = W alpha0 div v and the plain stiffness K0 at phi0, both
        restricted to the free displacement dofs.  Eliminating v gives
        back W B(phi0) + dt B_kappa as the SPD Schur complement
        S = Z + G_f K0_f^{-1} G_f'.  Its fixed-stress approximation
        P = Z + beta W alpha0^2 / K_dr replaces the elastic response
        G_f K0_f^{-1} G_f' by the diagonal one of a drained medium.

        Since the frozen operator sets only the rate of contraction, not
        the fixed point, a bundle whose coupling is at most
        FIXED_STRESS_MAX_COUPLING takes P itself as its content operator:
        the DirectSolver of the SPD P, which factors no stiffness.  Above
        it the split alone contracts too slowly, and the solver is
        ContentSchur, which solves S by CG with the bundle's plain K0
        factor, preconditioned by P.
        """
        def build():
            z = sp.diags(self.w / self.modulus0) + dt * self.b_kappa
            fixed_stress = DirectSolver(
                z + sp.diags(FIXED_STRESS_BETA * self.w * self.alpha0**2 / self.k_drained))
            if self.coupling <= FIXED_STRESS_MAX_COUPLING:
                return fixed_stress
            n = self.grid.n_nodes
            g_f = sp.diags(self.w * self.alpha0) @ self.grid.strain_op[3 * n:, self.grid.free_dofs]
            return ContentSchur(z, g_f, self.plain.factor(), fixed_stress)
        return self._cached("content", dt, build)


@dataclass
class FrozenVisco(_FrozenPhase):
    """Window-frozen operators for the Kelvin-Voigt regime: B_{kappa M}(phi0)
    and, per dt, the content solver and the shifted visco problem."""

    def _freeze(self, c):
        """m(phi0) and kappa M(phi0) from c."""
        super()._freeze(c)
        self.b_km = flux_stiffness_matrix(self.grid, c.permeability * c.modulus)

    def content_solver(self, dt):
        """DirectSolver of W + dt B_{kappa M}(phi0), cached per dt: SPD, as
        W is and the flux matrix B_{kappa M} is semidefinite."""
        return self._cached("content", dt, lambda: DirectSolver(
            sp.diags(self.w) + dt * self.b_km))

    def shifted_problem(self, dt):
        """Shifted visco problem K_nu + dt K at phi0, cached per dt."""
        return self._cached("shifted", dt, lambda: EllipticProblem(
            self.grid, self.material, self.phi0, variant=VISCO, shift=dt))


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
    which solves (W B(phi0) + dt B_kappa) q = W r; at weak coupling A(phi0)
    is replaced by its fixed-stress split, and q solves P q = W r (see
    FrozenElastic.content_solver).

    Returns (theta, report).  theta is recovered from the flux form
    theta = r + dt NL(q, kappa0), which conserves the weighted mean of r
    exactly, whatever the residual of q.
    """
    w = frozen.w
    q, rep = frozen.content_solver(dt).solve(w * r)
    theta = r - dt * (frozen.b_kappa @ q) / w
    return theta, rep


def linear_substep_theta_visco(frozen, dt, r):
    """Solve (I + dt L_{kappa M}) theta = r (SPD symmetrized)."""
    return _mean_restoring_solve(frozen.content_solver(dt), frozen.w, r)


def linear_substep_u_visco(frozen, dt, f_u):
    """Solve (K_nu + dt K)(phi0) d = dt f_u for d, f_u the weak momentum
    force of rhs_visco."""
    return solve_elasticity(frozen.shifted_problem(dt), (dt * f_u.ux, dt * f_u.uy))


# --- Picard windows -------------------------------------------------------


# Most windows one bundle serves before it is rebuilt.  Picard iterates of
# criterion 05's 200-window 32^2 runs (seed 1, rho = 0 plus 1) by the age:
# 5: 852, 10: 859, 20: 851, 40: 872, one per run: 984.  On seeds 1-10 of
# the workloads, 20 keeps the iterates of 5 and 1/4 of the spinodal bundles.
BUNDLE_WINDOWS = 20


# Forcing term eta of the displacement solves at a Picard iterate: each
# runs from the previous iterate's u until its preconditioned residual
# norm is at most eta / (1 + s)^2 times its start's (see
# _iterate_forcing), so the error it leaves is about that multiple of
# |d_k| and shrinks with the Picard update (the inexact-Newton forcing
# term: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), and
# Anderson acceleration keeps its rate (Toth et al., SIAM J. Sci. Comput.
# 39, 2017).  On seeds 1-10 of spinodal-qs-32, retry-qs-32 and
# source-qs-64 (s = 0.08), CG iterations of the iterate solves per ten
# runs, theta form: eta = 0.01 takes 1664, 1030 and 550; eta = 0.1 takes
# 982, 540 and 320, at most two per solve in the theta form and three in
# the pressure form, with the Picard iterates of tight solves window by
# window in both forms; eta = 0.3 takes 722, 390 and 240, but the
# pressure form's source-qs-64 takes 210 Picard iterates, not 200; eta =
# 0.5 takes one per solve, but retry-qs-32 takes 320, not 310.  0.1 is
# the largest that keeps the iterates.
ITERATE_FORCING = 0.1


def _iterate_forcing(frozen):
    """The forcing term of a bundle's iterate solves, ITERATE_FORCING over
    (1 + s)^2, s = frozen.coupling.

    A displacement error du moves the pressure M (theta - alpha div u) by
    alpha M div du, a move that grows with s = alpha^2 M / K_dr; so the
    solve must be tighter at strong coupling.  On the retry-qs-32 config
    at 10^2 and 32^2 with a0 = 1, a1 = modulus1 = 0, eps = 0.3 and
    modulus0 in {4, 16, 64, 256} (s = 0.7 to 44), seeds 1-2, both forms:
    the unscaled eta shrinks dt 19 times and takes 1627 Picard iterates;
    eta / (1 + s) and eta / (1 + s)^2 shrink none and take 776 and 770,
    against 810 with the exact solves preconditioned by a sparse LU at
    phi0.  The square keeps the 12 iterates of the strongly coupled
    window of tests/test_stepper.py, where eta / (1 + s) takes 13, and
    the square with a stop on the Euclidean residual in place of the
    preconditioned one takes 11.
    """
    return ITERATE_FORCING / (1.0 + frozen.coupling)**2


def _theta_iterates(frozen, state, sources, dt, start):
    """Quasi-static iterate map in the fluid content theta.

    The unknowns are (phi, theta), x_0 those of start (the window's
    start state x_n or a prediction), with start's u.  The displacement
    is reconstructed at each next (phi, theta) and does not enter the
    residual: at a Picard iterate inexactly, by PCG from the previous
    iterate's u to the coupling-scaled forcing term of _iterate_forcing;
    at the accepted state to the absolute target, from the last
    iterate's u.
    """
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    iterate_forcing = _iterate_forcing(frozen)
    phi_k, theta_k, u_k = start.phi, start.theta, start.u
    while True:
        n_phi, n_theta = rhs_elastic(grid, material, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_elastic(
            frozen, dt, state.theta - theta_k + dt * n_theta)
        (phi_k, theta_k), accepted = yield (phi_k, theta_k), (d_phi, d_theta)
        problem = displacement_problem(grid, material, phi_k,
                                       reference=frozen.augmented)
        u_k, _ = reconstruct_displacement(problem, theta_k, sources, t_new, u_k,
                                          0.0 if accepted else iterate_forcing)
        yield SimState(grid, phi_k, theta_k, u_k, t_new)


def _pressure_iterates(frozen, state, sources, dt, start):
    """Quasi-static iterate map in the pressure p.

    Independent route for cross-checking: the unknowns are (phi, p);
    displacement solves use the plain (unaugmented) stiffness with
    -grad(alpha p) loading, and the fluid content is carried implicitly
    through theta = p / M + alpha div u.  The pressure update solves the
    bundle's content operator, (W B(phi0) + dt B_kappa) d_p
    = W (theta_n - theta_k + dt N_theta), or P d_p = W (...) at weak
    coupling.  x_0 is the (phi, p) of start.  The first displacement
    solve, at x_0, runs from start's u: to the absolute target when start
    is the window's start state x_n, and as an iterate solve when it is a
    predicted start.  Each at a Picard iterate runs from the previous
    iterate's u to the coupling-scaled forcing term of _iterate_forcing;
    the accepted state's runs from the last iterate's u to the absolute
    target, so its theta carries a tight div u.
    """
    grid, material, w = frozen.grid, frozen.material, frozen.w
    t_new = state.t + dt
    iterate_forcing = _iterate_forcing(frozen)

    def solve_u(phi, p, u0, forcing):
        """(u, theta) at (phi, p), both from one coefficient pass."""
        prob = EllipticProblem(grid, material, phi, variant=PLAIN, reference=frozen.plain)
        c = prob.coefficients
        scalar = eigenstrain_tensor_source(c) + c.alpha * p
        rhs = prob.assemble_rhs(body=sources.body_at(grid, t_new), scalar_source=scalar,
                                traction=sources.traction)
        u = solve_elasticity(prob, rhs, u0, forcing)[0]
        return u, p / c.modulus + c.alpha * divergence(u)

    phi_k = start.phi
    p_k = pressure(material, start.phi, start.theta, divergence(start.u))
    u_k, theta_k = solve_u(phi_k, p_k, start.u, 0.0 if start is state else iterate_forcing)
    while True:
        n_phi, n_theta = rhs_elastic(grid, material, phi_k, theta_k, u_k, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_p, _ = frozen.content_solver(dt).solve(w * (state.theta - theta_k + dt * n_theta))
        (phi_k, p_k), accepted = yield (phi_k, p_k), (d_phi, d_p)
        u_k, theta_k = solve_u(phi_k, p_k, u_k, 0.0 if accepted else iterate_forcing)
        yield SimState(grid, phi_k, theta_k, u_k, t_new)


def _visco_iterates(frozen, state, sources, dt, start):
    """Kelvin-Voigt iterate map: the unknowns (phi, theta, u_x, u_y), x_0
    those of start, all enter the residual, no field is derived, and no
    system at the current iterate is solved."""
    grid, material = frozen.grid, frozen.material
    t_new = state.t + dt
    phi_k, theta_k, u_k = start.phi, start.theta, start.u
    while True:
        n_phi, f_u, n_theta = rhs_visco(
            grid, material, phi_k, theta_k, u_k, state.u, dt, sources, t_new)
        d_phi, _ = linear_substep_phi(frozen, dt, state.phi - phi_k + dt * n_phi)
        d_theta, _ = linear_substep_theta_visco(
            frozen, dt, state.theta - theta_k + dt * n_theta)
        d_u, _ = linear_substep_u_visco(frozen, dt, f_u)
        (phi_k, theta_k, ux, uy), _ = yield ((phi_k, theta_k, u_k.ux, u_k.uy),
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


def picard_window(run, dt, start):
    """Advance run one window of length dt from run.state, x_n; returns
    (new_state, PicardReport) and leaves run.state to the caller.

    start, a SimState, is the first attempt's start x_0: x_n itself or
    a prediction of the window's state (see Run.step); a retry starts
    from x_n.  The fixed point does not depend on it.  The window reuses
    run.frozen, builds it at x_n's phi when the run has none, counts the
    accepted window in run.windows, and drops the bundle, so that a
    later window builds a fresh one, once it has served BUNDLE_WINDOWS
    windows.  One loop serves both
    regimes: each attempt runs an iterate map (theta form, pressure form
    or Kelvin-Voigt), a generator over (frozen, state, sources, dt).  At
    each iterate it yields (x_k, d_k), the arrays of the unknowns and of
    their update d_k = g(x_k) - x_k; sent (x, accepted), the next
    unknowns and whether they are the window's accepted state, it builds
    the fields derived from them and yields their SimState.  The
    quasi-static maps build an iterate's displacement inexactly and the
    accepted state's to the absolute target (see ITERATE_FORCING); the
    Kelvin-Voigt map derives no field and ignores the flag.  Each map
    also takes the attempt's start x_0.  The window
    sends the Anderson step of _anderson_step, over the last
    ANDERSON_DEPTH + 1 pairs of the attempt (the history restarts with
    every attempt), as an iterate.  An attempt succeeds when the
    weighted-L2 norm of d_k is at most tol_picard times
    1 + |phi| + |theta| of the start state (+ |u| in the visco regime);
    the window then sends g(x_k) = x_k + d_k as the accepted state and
    returns the SimState it yields.  The report's rho is the observed
    contraction of the accelerated iteration.  An attempt fails after
    max_picard iterates, on a SolverFailure, or as soon as
    _cannot_converge shows that it cannot succeed within max_picard
    iterates: at a non-finite residual, or from iterate GIVE_UP_AFTER on
    when its mean rate over the attempt is not below 1 or predicts a
    residual above the target at iterate max_picard.  The window is then
    retried with dt scaled by shrink_factor, on a bundle rebuilt at the
    window's phi, whatever phi the failed one was frozen at: the
    dt-dependent factors are made anew at the shrunk dt in any case, so
    a rebuild at the same phi repeats only the phi0-only parts.  After
    max_shrinks retries, StepFailure carries every PicardAttempt made.
    """
    state, material, cfg = run.state, run.material, run.cfg
    if material.rho == 1:
        frozen_type, iterates = FrozenVisco, _visco_iterates
    elif cfg.formulation == PRESSURE_FORM:
        frozen_type, iterates = FrozenElastic, _pressure_iterates
    else:
        frozen_type, iterates = FrozenElastic, _theta_iterates
    w = run.grid.quad_weights()
    scale = 1.0 + np.sqrt(_wnorm2(w, state.phi)) + np.sqrt(_wnorm2(w, state.theta))
    if material.rho == 1:
        scale += np.sqrt(_wnorm2(w, state.u.ux) + _wnorm2(w, state.u.uy))

    target = cfg.tol_picard * scale
    attempts = []
    while True:
        if run.frozen is None:
            run.frozen, run.windows = frozen_type(run.grid, material, state.phi), 0
        attempt = PicardAttempt(dt, [])
        attempts.append(attempt)
        residuals = attempt.residuals
        stream = iterates(run.frozen, state, run.sources, dt, start)
        history = []
        try:
            while True:
                x, d = (np.concatenate(v) for v in next(stream))
                blocks = x.size // w.size
                sw = np.sqrt(np.tile(w, blocks))
                residuals.append(float(np.linalg.norm(sw * d)))
                if residuals[-1] <= target:
                    new_state = stream.send((np.split(x + d, blocks), True))
                    run.windows += 1
                    if run.windows >= BUNDLE_WINDOWS:
                        run.frozen = None
                    return new_state, PicardReport(
                        iterations=len(residuals), residual=residuals[-1],
                        residuals=residuals, rho=_median_ratio(residuals),
                        dt_used=dt, shrinks=len(attempts) - 1)
                if (len(residuals) == cfg.max_picard
                        or _cannot_converge(residuals, target, cfg.max_picard)):
                    break
                history = history[-ANDERSON_DEPTH:] + [(x, d)]
                stream.send((np.split(_anderson_step(sw, history), blocks), False))
        except SolverFailure as exc:
            attempt.error = str(exc)
        if len(attempts) > cfg.max_shrinks:
            tried = ", ".join(f"{a.dt:.6g}" for a in attempts)
            raise StepFailure(f"window at t = {state.t:.6g} failed after {cfg.max_shrinks} "
                              f"dt shrinks (dt tried: {tried})", attempts)
        run.frozen = None       # freed before the retry builds its own at x_n's phi
        dt *= cfg.shrink_factor
        start = state


# --- predicted starts -----------------------------------------------------


# Highest order of the extrapolation a window starts from (see
# Run.step); the history holds PREDICTOR_ORDER + 2 states.  Total
# Picard iterates on seeds 1-10 of spinodal-qs-32 and spinodal-visco-32
# (20 windows each), then 200-window runs at seed 1 (bundles of 5), by the
# highest order: 0 (every window from x_n) 795, 773; 1090, 1009.  1: 625,
# 611; 829, 760.  2: 498, 442; 584, 577.  3: 414, 397; 429, 423.  4: 438,
# 404; 408, 375.  5: 446, 418; 422, 370.  From 1 on, source-qs-64 and
# retry-qs-32 take 190 and 300, not 200 and 310, and no window shrinks.
# 3 is the fewest on the short runs and within 13 % of the fewest on the
# long ones.  Where the hindcast picks less, on seeds 1-10: k = 0, 1, 2, 3
# on 15, 10, 10, 64 % of the windows of spinodal-qs-32 and 18, 12, 18,
# 52 % of spinodal-visco-32 (k < 3 mostly in the first eight windows), and
# 0 or 1 on 75 and 25 % of source-qs-64 and retry-qs-32 (4 windows).  On
# the retry scan (retry-qs-32 at eps 0.1, 0.09, 0.08, seeds 1-3) it keeps
# k = 0 for all 15 first attempts at eps 0.1 and 0.09.  Without it, a
# fixed order min(3, states - 1) takes 456 and 430 iterates on the
# spinodal runs and 15 shrinks on the scan at eps 0.1 and 0.09, not 3 and
# 6; a ramp min(3, states - 2) keeps the shrinks and takes 425, 398, 190
# and 290 on the four workloads, but 264 and 327 iterates on the scan at
# eps 0.1 and 0.09, not 234 and 306 (theta form; the pressure form reads
# the same to within 15 iterates).
PREDICTOR_ORDER = 3


def _extrapolate(history, t):
    """The Lagrange polynomial through history, pairs (t_j, x_j) of
    distinct times and flat arrays, evaluated at t."""
    x = 0.0
    for j, (t_j, x_j) in enumerate(history):
        x = x + math.prod((t - t_i) / (t_j - t_i)
                          for i, (t_i, _) in enumerate(history) if i != j) * x_j
    return x


def _hindcast_order(w, history):
    """The order k in 0 .. PREDICTOR_ORDER whose extrapolation through the
    k + 1 states of history before its last came closest to that last
    state, in the w-weighted L2 norm; history holds pairs (t_j, x_j),
    oldest first.  Ties go to the lower order, so 0, the last state
    itself, is the answer unless an extrapolation beats it, and it is
    the only one with fewer than three states."""
    *past, (t_n, x_n) = history
    errors = [_wnorm2(w, _extrapolate(past[len(past) - k - 1:], t_n) - x_n)
              for k in range(min(PREDICTOR_ORDER, len(past) - 1) + 1)]
    return int(np.argmin(errors)) if errors else 0


# --- driver ---------------------------------------------------------------


def initial_state(grid, material, phi, theta, sources=None):
    """Assemble the initial state at t = 0 from (phi, theta).

    The regime fixes the start displacement: the quasi-static regime
    (rho = 0) reconstructs it from (phi, theta) and the sources, and the
    Kelvin-Voigt regime (rho = 1) starts from rest, u = 0.  No window
    reuses a factor at phi: u is solved by CG preconditioned at phi, and
    directly only where CG fails (a nearly incompressible stiffness).
    """
    phi = np.asarray(phi, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    if material.rho == 1:
        return SimState(grid, phi, theta, VectorField2.zero(grid), 0.0)
    sources = SourceSpec() if sources is None else sources
    problem = displacement_problem(grid, material, phi)
    try:
        u, _ = reconstruct_displacement(replace(problem, reference=problem), theta, sources, 0.0)
    except SolverFailure:
        u, _ = reconstruct_displacement(problem, theta, sources, 0.0)
    return SimState(grid, phi, theta, u, 0.0)


@dataclass
class Run:
    """Everything one run carries from window to window, as CVODE keeps it
    in one integrator memory: the grid, material, StepperConfig cfg and
    sources, the current state, the frozen bundle that the windows share
    and its age, windows, the number of windows accepted on it (see
    picard_window), and history, the times and fields of the last
    PREDICTOR_ORDER + 2 accepted states (the start state counting as
    one).  Nothing in it grows with the number of windows."""

    grid: object
    material: object
    cfg: StepperConfig
    state: SimState
    sources: SourceSpec = None
    frozen: _FrozenPhase = None
    windows: int = 0

    def __post_init__(self):
        self.sources = SourceSpec() if self.sources is None else self.sources
        self.w = np.tile(self.grid.quad_weights(), 4)   # weights of a history entry
        self.history = deque(maxlen=PREDICTOR_ORDER + 2)

    @property
    def done(self):
        """Whether the run has reached t_end, to within the rounding margin
        1e-12 max(1, t_end)."""
        t_end = self.cfg.t_end
        return self.state.t >= t_end - 1e-12 * max(1.0, t_end)

    def step(self):
        """Advance the run one window by picard_window; returns its report.
        Raises ValueError, naming t and t_end, on a run that is done.

        The window runs at cfg.dt, or at the remainder t_end - t when that
        is shorter by more than rounding (1e-9 cfg.dt), so that a run of
        whole windows keeps one dt.  Its first attempt starts from the
        Lagrange extrapolation of every field (phi, theta, u_x, u_y) to
        t_n + dt through the last k + 1 states, at their own times, with
        k picked by hindcast (_hindcast_order): the k whose extrapolation
        through the states before x_n came closest to x_n, in the
        quadrature-weighted L2 norm over all fields.  k = 0 starts from
        x_n itself, and wins unless an extrapolation beats it, so always
        in the first two windows.  The report's start_order records k
        unless the window shrank."""
        state, cfg = self.state, self.cfg
        if self.done:
            raise ValueError(f"run has reached its end: t = {state.t:.17g}, "
                             f"t_end = {cfg.t_end:.17g}")
        dt = cfg.t_end - state.t
        if dt >= cfg.dt * (1.0 - 1e-9):
            dt = cfg.dt
        self.history.append((state.t, np.concatenate([state.phi, state.theta, state.u.ux,
                                                      state.u.uy])))
        order = _hindcast_order(self.w, self.history)
        start = state
        if order:
            phi, theta, ux, uy = np.split(
                _extrapolate(list(self.history)[-order - 1:], state.t + dt), 4)
            start = SimState(self.grid, phi, theta, VectorField2(self.grid, ux, uy),
                             state.t + dt)
        self.state, report = picard_window(self, dt, start)
        if report.shrinks == 0:
            report.start_order = order
        return report


def run_simulation(grid, material, cfg, state, sources=None, observer=None):
    """March windows until t_end; returns the final state.

    The loop steps one Run, so memory does not grow with the number of
    windows; a caller that wants the trajectory or the PicardReports
    collects them through observer(state, report), which, when given, is
    called after each window (the CLI uses it for output).
    """
    run = Run(grid, material, cfg, state, sources)
    while not run.done:
        report = run.step()
        if observer is not None:
            observer(run.state, report)
    return run.state
