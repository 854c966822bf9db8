"""Elliptic solves: sparse direct factorizations, preconditioned CG.

Displacement problems are posed in weak form with the trapezoidal
quadrature: for the plain variant the bilinear form is

    a(v, w) = sum_k w_k  C(phi_k) E(v)_k : E(w)_k.

Variants:

  * plain      : C(phi) only
  * augmented  : C(phi) plus the volumetric term alpha^2 M (div v)(div w)
  * visco      : visco-elastic stiffness C_nu(phi), optionally shifted by
                 s times the elastic stiffness (for implicit steps of the
                 Kelvin-Voigt regime)

All variants are symmetric positive definite on the subspace of
displacements vanishing on the Dirichlet nodes; at least one Dirichlet
edge is required by the grid, which rules out rigid-body kernels.

Each problem has one representation of its form: the sparse stiffness
K = E' diag(weight) E on the free dofs, assembled by stiffness_matrix()
from the Gram map its grid caches (Grid.stiffness_gram): a problem is
its grid's layout plus its weights.  apply() is its product, scattered
back to nodal arrays, and solve() factors or iterates with it.  A
problem without a reference factors K on its first solve, in the
grid's node-major order of the free dofs, and caches the factor, so
every later solve with the same frozen coefficients is a pair of
triangular solves.  A problem given a reference problem (same grid and
variant, typically frozen at the start phase of a recent window) solves
K x = b by CG, and neither problem is factored: the preconditioner is
the reference's LameBlockPreconditioner, a block symmetric Gauss-Seidel
over (u_x, u_y) whose diagonal blocks are constant-coefficient copies
of the reference's, solved by fast diagonalization.  Korn's inequality
makes it spectrally equivalent to every stiffness of the variant
uniformly in the grid, so the iteration count from zero (about 20 to the
absolute target REFERENCE_CG_TOL ||b|| on an interface phase at 16^2
to 128^2) is set by the coefficient contrast.  Such a solve may start
from a nearby solution x0 and may be inexact: with a forcing term
eta > 0 it stops once the preconditioned residual norm is at most eta
times the start's own.  The time stepper solves each Picard iterate's
displacement so, from the previous iterate's, and the accepted state's
to the absolute target (see chbsim.stepper).

Right-hand sides (weak_rhs, on a grid) accept a body force, a nodal
tensor source P entering as + sum w_k P_k : E(w)_k (the weak form of
-div P, grid.weak_divergence), a scalar source q entering as
+ sum w_k q_k (div w)_k (the weak form of -grad q), and edge tractions
on the Neumann edges with boundary trapezoid quadrature.

DirectSolver factors the time stepper's window-frozen systems, every
one of them SPD, with SuperLU in its symmetric mode: a minimum degree
ordering of A + A' and diagonal pivots.  conjugate_gradient solves the
systems that are iterative: a problem with a reference, and the time
stepper's strongly coupled quasi-static content system, whose Schur
complement is preconditioned by the factor of its fixed-stress
approximation.
Both report failure the same way: SolverFailure.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import NEUMANN, EDGES, VectorField2, weak_divergence


class SolverFailure(RuntimeError):
    """A linear solve failed; carries the residual history.

    Raised when CG misses its tolerance or meets a non-finite value, when
    a sparse factorization fails (singular matrix), and when a direct
    solve returns non-finite values or too large a backward error.
    """

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


@dataclass
class SolveReport:
    """Iterations (0 for a direct solve) and the residual norms ||b - A x||."""

    iterations: int
    residual: float
    residuals: list


# Largest normwise backward error of a direct solve (see DirectSolver.solve).
# The phase, P, visco content and shifted stiffness factors give at most
# 5.6e-18 on an interface phase at 32^2-128^2, dt = 1e-3 and 1e-2 (|r|/|b|
# up to 9.6e-11); a factor of 2A gives at least 1 / (2 + sqrt(n) cond(A)).
DIRECT_BACKWARD_ERROR_TOL = 1e-10


class DirectSolver:
    """Sparse factorization of a symmetric positive definite matrix,
    factored once and reused.

    The matrix must be SPD, as every system the time stepper freezes is:
    the phase and content operators are a positive diagonal plus
    semidefinite flux terms, and the displacement stiffness is
    Korn-coercive on the free dofs.  So SuperLU runs in its symmetric
    mode: a minimum degree ordering of A + A' applied to rows and columns
    alike, with diagonal pivots (George & Liu, SIAM Rev. 31, 1989; Li,
    ACM TOMS 31, 2005).  It makes less fill than the general default, a
    COLAMD ordering of A'A with partial pivoting, which pivots off the
    diagonal of the phase operator.

    order, when given, is a permutation of the unknowns that the
    factorization sees in place of the caller's: A[order][:, order] is
    factored, and solves scatter back, so callers never see it.  Minimum
    degree breaks its ties well only from a good start, so the
    displacement stiffness is factored in its node-major order
    (Grid.node_major_order).

    A singular or failed factorization, a non-finite solution and a
    wrong one (see solve) raise SolverFailure, so callers handle a
    direct solve exactly like a failed CG solve.
    """

    def __init__(self, matrix, order=None):
        self.matrix = sp.csc_matrix(matrix)
        self._norm = np.linalg.norm(self.matrix.data)   # Frobenius norm of A
        self._order = order
        permuted = self.matrix if order is None else self.matrix[order][:, order]
        try:
            self._lu = spla.splu(permuted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverFailure(f"sparse factorization failed: {exc}", []) from exc

    def apply_inverse(self, b):
        """x = A^{-1} b with no residual check: a preconditioner step."""
        if self._order is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x

    def solve(self, b):
        """x = A^{-1} b with its residual report; raises SolverFailure when
        the normwise backward error |r| / (|A|_F |x| + |b|) of r = b - A x
        (Rigal & Gaches, J. ACM 14, 1967) exceeds DIRECT_BACKWARD_ERROR_TOL,
        so a wrong factor fails at once."""
        b = np.asarray(b, dtype=float)
        x = self.apply_inverse(b)
        res = float(np.linalg.norm(b - self.matrix @ x))
        if not np.isfinite(res):
            raise SolverFailure("direct solve produced non-finite values", [res])
        scale = self._norm * np.linalg.norm(x) + np.linalg.norm(b)
        if res > DIRECT_BACKWARD_ERROR_TOL * scale:
            raise SolverFailure(f"direct solve residual {res:.3e} has backward error "
                                f"{res / scale:.2e} > {DIRECT_BACKWARD_ERROR_TOL:g}", [res])
        return x, SolveReport(0, res, [res])


def _require_positive(value, name, owner, it, history):
    """Raise SolverFailure unless the CG inner product `name` is positive,
    as it is when its owner (the operator for p'Ap, the preconditioner
    for r'z) is SPD and every value is finite."""
    if not value > 0.0:
        reason = "non-finite value" if not np.isfinite(value) else f"{owner} not positive definite"
        raise SolverFailure(f"{reason} ({name} = {value:.3e} at iter {it})", history)


def conjugate_gradient(apply_a, b, x0=None, precondition=None, tol=1e-10, maxiter=5000,
                       forcing=0.0):
    """Preconditioned CG for SPD operators, started from x0 (None: zero).

    Stops when ||r|| <= tol ||b||, an absolute target whatever the
    start, or, with a forcing term eta > 0 (an inexact solve), once the
    preconditioned residual norm sqrt(r' M^{-1} r) is at most eta times
    the start's own; 0, the default, gives the absolute target alone.
    The preconditioned norm is the one CG computes anyway, and for M
    close to A it estimates the energy norm of the error.  b = 0 returns
    x = 0 at once, and a start that already meets the absolute target is
    returned with 0 iterations; a zero start takes r = b and makes one
    product with A per iteration.  precondition maps a residual r to
    M^{-1} r for an SPD preconditioner M; None means no preconditioning
    (M = I, so eta bounds the Euclidean residual).  Raises
    SolverFailure when maxiter is exhausted, and at once on a non-finite
    right-hand side or start residual, a curvature p'Ap or a
    preconditioned residual product r'z that is not positive (the
    operator or the preconditioner is not SPD), or a non-finite value in
    either.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise SolverFailure("non-finite right-hand side", [bnorm])
    if bnorm == 0.0:
        return np.zeros_like(b), SolveReport(0, bnorm, [bnorm])
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply_a(x)
    res = float(np.linalg.norm(r))
    if not np.isfinite(res):
        raise SolverFailure(f"non-finite value (||b - A x0|| = {res:.3e} at iter 0)", [res])
    target = tol * bnorm
    history = [res]
    if res <= target:
        return x, SolveReport(0, res, history)
    if precondition is None:
        def precondition(r):
            return r
    z = precondition(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    _require_positive(rz, "r'z", "preconditioner", 0, history)
    forcing_target = forcing**2 * rz
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        pap = float(np.dot(p, ap))
        _require_positive(pap, "p'Ap", "operator", it, history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= target:
            return x, SolveReport(it, res, history)
        z = precondition(r)
        rz_new = float(np.dot(r, z))
        _require_positive(rz_new, "r'z", "preconditioner", it, history)
        if rz_new <= forcing_target:
            return x, SolveReport(it, res, history)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailure(
        f"CG did not converge in {maxiter} iterations (residual {res:.3e}, target {target:.3e})",
        history)


# Tolerance relative to |b| (the absolute target of a tight solve) and
# iteration cap of the CG solves with a reference problem's block
# preconditioner, and of the strongly coupled content PCG.  From zero, a
# displacement solve takes 19-21 iterations to this target on an interface
# phase of the benchmark material at 16^2 to 128^2, and a warm start
# fewer; the cap only bounds a failing solve.
REFERENCE_CG_TOL = 1e-12
REFERENCE_CG_MAXITER = 100

PLAIN = "plain"
AUGMENTED = "augmented"
VISCO = "visco"


class LameBlockPreconditioner:
    """Block symmetric Gauss-Seidel over (u_x, u_y) for a stiffness K.

    K's diagonal blocks are replaced by their constant-coefficient copies

        D_x = hx hy [(2 mu + lam) T_y (x) A_x + mu A_y (x) T_x],
        D_y = hx hy [(2 mu + lam) A_y (x) T_x + mu T_y (x) A_x]

    at scalar Lame parameters (lam, mu), with the per-axis SBP operators
    A = d1' T d1 and trapezoid masses T on the free nodes; each is solved
    by fast diagonalization in the grid's axis eigenvectors
    (Grid.axis_eigenpairs; Lynch, Rice & Thomas, Numer. Math. 6, 1964).
    The off-diagonal blocks K_xy = K_yx' are K's own.  One step is

        w_x = D_x^{-1} r_x,  z_y = D_y^{-1} (r_y - K_yx w_x),
        z_x = D_x^{-1} (r_x - K_xy z_y),

    that is z = M^{-1} r with M = (D + L) D^{-1} (D + L'), L = K_yx the
    lower block: SPD for any SPD D.  Dropping the coupling of the
    components in D is displacement decomposition (Blaheta, Numer.
    Linear Algebra Appl. 1, 1994), and Korn's inequality makes it
    spectrally equivalent to K uniformly in the grid, so the PCG count
    is set by the coefficient contrast, not by the grid.
    """

    def __init__(self, grid, stiffness, lam, mu):
        (ex, self.vx), (ey, self.vy) = grid.axis_eigenpairs
        self.shape = (ey.size, ex.size)
        half = self.shape[0] * self.shape[1]
        self.k_xy = stiffness[:half, half:].tocsr()
        self.k_yx = stiffness[half:, :half].tocsr()
        h2 = grid.hx * grid.hy
        self.inv_x = 1.0 / (h2 * ((2.0 * mu + lam) * ex[None, :] + mu * ey[:, None]))
        self.inv_y = 1.0 / (h2 * (mu * ex[None, :] + (2.0 * mu + lam) * ey[:, None]))

    def _block_solve(self, inv, r):
        z = self.vy.T @ r.reshape(self.shape) @ self.vx
        return (self.vy @ (inv * z) @ self.vx.T).ravel()

    def __call__(self, r):
        """M^{-1} r for a residual r on the free dofs, (r_x, r_y) stacked."""
        half = r.size // 2
        r_x, r_y = r[:half], r[half:]
        w_x = self._block_solve(self.inv_x, r_x)
        z_y = self._block_solve(self.inv_y, r_y - self.k_yx @ w_x)
        z_x = self._block_solve(self.inv_x, r_x - self.k_xy @ z_y)
        return np.concatenate([z_x, z_y])


def _geometric_mean(values):
    """The geometric mean of a nonnegative nodal field (0 if it has a 0)."""
    with np.errstate(divide="ignore"):
        return float(np.exp(np.mean(np.log(values))))


@dataclass
class EllipticProblem:
    """One displacement solve context with frozen coefficient fields.

    variant selects the stiffness (see module docstring); shift adds
    shift * elastic stiffness on top of the visco stiffness.  scale
    multiplies the Lame parameters of the (elastic) stiffness; the
    coupled model uses scale = 2 because its strain energy density
    C(E-T):(E-T) has strain derivative 2 C (E-T).  phi is copied at
    construction, so the stiffness is assembled and factored at most
    once per problem.

    reference, when given, is a problem on the same grid with the same
    variant whose LameBlockPreconditioner, built on first need,
    preconditions CG on this problem's stiffness (see the module
    docstring); neither problem is then factored.
    """

    grid: object
    material: object
    phi: np.ndarray
    variant: str = PLAIN
    scale: float = 1.0
    shift: float = 0.0
    reference: "EllipticProblem" = None

    def __post_init__(self):
        if self.variant not in (PLAIN, AUGMENTED, VISCO):
            raise ValueError(f"unknown elliptic variant '{self.variant}'")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.reference is not None and (self.reference.grid != self.grid
                                           or self.reference.variant != self.variant):
            raise ValueError("reference problem needs the same grid and variant")
        self.phi = np.array(self.phi, dtype=float).ravel()
        if self.phi.size != self.grid.n_nodes:
            raise ValueError("phase field length does not match grid")
        self._coefficients = None
        self._stiffness = None
        self._solver = None
        self._preconditioner = None

    # --- operator ---------------------------------------------------------

    @property
    def coefficients(self):
        """The material's Coefficients at this problem's phi, made on first
        use and kept until stiffness_matrix has read them: a displacement
        load assembled first (reconstruct_displacement) and the stiffness
        share one pass, and a problem that outlives its assembly, as a
        time stepper's frozen ones do, keeps none (keeping it raised the
        peak RSS of a 64^2 quasi-static run with a fluid source from 86.2
        to 88.3 MB)."""
        if self._coefficients is None:
            self._coefficients = self.material.coefficients(self.phi)
        return self._coefficients

    def lame(self):
        """The nodal Lame pair (lam, mu) of this problem's stiffness: the
        variant's coefficients, scaled and shifted (see stiffness_matrix)."""
        c = self.coefficients
        lam, mu = self.scale * c.lam, self.scale * c.mu
        if self.variant == VISCO:
            return c.lam_nu + self.shift * lam, c.mu_nu + self.shift * mu
        if self.variant == AUGMENTED:
            lam = lam + c.alpha**2 * c.modulus
        return lam, mu

    def stiffness_matrix(self):
        """K = E_f' diag(weight) E_f on the free dofs (sparse CSC, cached).

        E_f is Grid.strain_op restricted to the free dofs, with rows exx,
        eyy, the engineering shear gxy = 2 exy and div = exx + eyy.  The
        isotropic energy density C E:E = 2 mu (exx^2 + eyy^2) + mu gxy^2
        + (lam + aug) div^2 is diagonal in these rows, so K is a weighted
        Gram product, and its values are linear in the 4n row weights.
        They are one sparse product T @ weight, stored in a fixed CSC
        pattern; T and the pattern depend only on the grid and are
        cached with it (Grid.stiffness_gram).
        """
        if self._stiffness is None:
            lam, mu = self.lame()
            w = self.grid.quad_weights()
            weight = np.concatenate([2.0 * mu * w, 2.0 * mu * w, mu * w, lam * w])
            self._coefficients = None   # the stiffness keeps what it read
            gram, indices, indptr = self.grid.stiffness_gram
            m = self.grid.free_dofs.size
            self._stiffness = sp.csc_matrix((gram @ weight, indices, indptr), shape=(m, m))
        return self._stiffness

    def apply(self, ux, uy):
        """K times a displacement, as a (kx, ky) pair of nodal arrays.

        Dirichlet entries of the input are ignored (treated as zero) and
        the Dirichlet entries of the output are zeroed.
        """
        n, free = self.grid.n_nodes, self.grid.free_dofs
        out = np.zeros(2 * n)
        out[free] = self.stiffness_matrix() @ np.concatenate([ux, uy])[free]
        return out[:n], out[n:]

    def factor(self):
        """The DirectSolver of the stiffness, factored on the first call in
        the grid's node-major order of the free dofs: there minimum degree
        made 0.69M stored entries of L + U on an interface phase at 64^2,
        against 1.15M in the stacked (u_x, u_y) order."""
        if self._solver is None:
            self._solver = DirectSolver(self.stiffness_matrix(), self.grid.node_major_order)
        return self._solver

    def preconditioner(self):
        """The LameBlockPreconditioner of the stiffness, at the geometric
        means of the nodal lam and mu, built on the first call.

        On an interface phase with lam and mu ranging over a factor 10,
        CG from zero took 38 iterations with these means, 46 with the
        geometric means sqrt(min max) of their ranges (32^2 and 64^2).
        """
        if self._preconditioner is None:
            lam, mu = self.lame()
            self._preconditioner = LameBlockPreconditioner(
                self.grid, self.stiffness_matrix(), _geometric_mean(lam), _geometric_mean(mu))
        return self._preconditioner

    def solve(self, b, x0=None, forcing=0.0):
        """K^{-1} b on the free dofs of a stacked (bx, by) vector.

        Without a reference, a direct solve with this problem's factor,
        which needs no start and is exact.  With one, CG preconditioned by
        the reference's LameBlockPreconditioner, started from the stacked
        x0 (None: zero) and stopped at the residual REFERENCE_CG_TOL ||b||
        or, with forcing > 0, once the preconditioned residual norm has
        fallen by that factor (see conjugate_gradient).  Returns the
        stacked solution, zero on the Dirichlet dofs, and its
        SolveReport.
        """
        x = np.zeros(2 * self.grid.n_nodes)
        free = self.grid.free_dofs
        if self.reference is None:
            x[free], report = self.factor().solve(b[free])
        else:
            x[free], report = conjugate_gradient(
                self.stiffness_matrix().dot, b[free],
                x0=None if x0 is None else x0[free],
                precondition=self.reference.preconditioner(),
                tol=REFERENCE_CG_TOL, maxiter=REFERENCE_CG_MAXITER, forcing=forcing)
        return x, report

    # --- right-hand side assembly ----------------------------------------

    def assemble_rhs(self, body=None, tensor_source=None, scalar_source=None,
                     traction=None):
        """Weak right-hand side vector (rx, ry) for the listed sources on
        this problem's grid (see weak_rhs)."""
        return weak_rhs(self.grid, body, tensor_source, scalar_source, traction)


def weak_rhs(grid, body=None, tensor_source=None, scalar_source=None, traction=None):
    """Weak right-hand side vector (rx, ry) of a displacement problem on
    grid for the listed sources, zero on the Dirichlet nodes.

    body: VectorField2 body force f, enters as sum w f . w_test
    tensor_source: SymTensorField P, enters as sum w P : E(w_test),
        the weak form of -div P
    scalar_source: flat array q, enters as sum w q div(w_test),
        the weak form of -grad q (q times identity in P)
    traction: dict edge -> (gx, gy) arrays or floats, applied on
        Neumann edges with boundary trapezoid quadrature
    """
    g = grid
    n = g.n_nodes
    w = g.quad_weights()
    rx = np.zeros(n)
    ry = np.zeros(n)
    if body is not None:
        rx += w * body.ux
        ry += w * body.uy
    pxx = pyy = pxy = None
    if tensor_source is not None:
        pxx = w * tensor_source.xx
        pyy = w * tensor_source.yy
        pxy = w * tensor_source.xy
    if scalar_source is not None:
        q = w * np.asarray(scalar_source, dtype=float).ravel()
        pxx = q if pxx is None else pxx + q
        pyy = q if pyy is None else pyy + q
    if pxx is not None:
        sx, sy = weak_divergence(g, pxx, pyy, pxy)
        rx += sx
        ry += sy
    if traction is not None:
        for edge, (gx, gy) in traction.items():
            if edge not in EDGES:
                raise ValueError(f"unknown edge '{edge}'")
            if g.edge_tags[edge] != NEUMANN:
                raise ValueError(f"traction given on non-neumann edge '{edge}'")
            bw = g.boundary_quad_weights(edge)
            rx += bw * (np.asarray(gx, dtype=float) * np.ones(n)).ravel()
            ry += bw * (np.asarray(gy, dtype=float) * np.ones(n)).ravel()
    clamped = g.dirichlet_mask()
    rx[clamped] = 0.0
    ry[clamped] = 0.0
    return rx, ry


def solve_elasticity(problem, rhs, start=None, forcing=0.0):
    """Solve the displacement problem for the weak rhs pair, from the
    VectorField2 start (None: zero) and with the forcing term forcing (see
    EllipticProblem.solve); returns (VectorField2, SolveReport)."""
    n = problem.grid.n_nodes
    x0 = None if start is None else np.concatenate([start.ux, start.uy])
    x, report = problem.solve(np.concatenate(rhs), x0, forcing)
    return VectorField2(problem.grid, x[:n], x[n:]), report
