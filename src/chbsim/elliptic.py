"""Elliptic solves: sparse direct factorizations, LU-preconditioned CG.

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
K = E' diag(w C) E on the free dofs, assembled once by
stiffness_matrix().  apply() is its product, scattered back to nodal
arrays, and solve() factors or preconditions with it.  A problem
without a reference computes the sparse LU of K on its first solve and
caches it, so every later solve with the same frozen coefficients is a
pair of triangular solves.  A problem given a
reference problem (same grid and variant, typically frozen at the
window-start phase) factors nothing: it solves K x = b by CG
preconditioned with the reference's cached LU.  The two stiffnesses
differ by O(|phi - phi_ref|), so a few iterations reach the fixed
relative tolerance REFERENCE_CG_TOL.

Right-hand sides accept a body force, a nodal tensor source P entering
as + sum w_k P_k : E(w)_k (the weak form of -div P), a scalar source q
entering as + sum w_k q_k (div w)_k (the weak form of -grad q), and edge
tractions on the Neumann edges with boundary trapezoid quadrature.

DirectSolver wraps a sparse LU for the time stepper's window-frozen
systems; conjugate_gradient solves the one kind of system that is
iterative, a problem with a reference, preconditioned by the
reference's LU.  Both report failure the same way: SolverFailure.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import NEUMANN, EDGES, VectorField2


class SolverFailure(RuntimeError):
    """A linear solve failed; carries the residual history.

    Raised when CG misses its tolerance or meets a non-finite value, when
    a sparse factorization fails (singular matrix), and when a direct
    solve returns non-finite values.
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


class DirectSolver:
    """Sparse LU of a nonsingular matrix, factored once and reused.

    A singular or failed factorization and a non-finite solution (from a
    non-finite matrix or right-hand side) raise SolverFailure, so callers
    handle a direct solve exactly like a failed CG solve.

    quasi_definite=True is for symmetric matrices [[A, B], [B', -C]] with
    A and C positive definite.  Every symmetric permutation of such a
    matrix has an LDL' factorization, so the pivots can stay on the
    diagonal of a minimum-degree ordering of A + A', which fills in far
    less than the default ordering with partial pivoting.
    """

    def __init__(self, matrix, quasi_definite=False):
        self.matrix = sp.csc_matrix(matrix)
        opts = {}
        if quasi_definite:
            opts = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
        try:
            self._lu = spla.splu(self.matrix, **opts)
        except RuntimeError as exc:
            raise SolverFailure(f"sparse factorization failed: {exc}", []) from exc

    def apply_inverse(self, b):
        """x = A^{-1} b with no residual check: a preconditioner step."""
        return self._lu.solve(b)

    def solve(self, b):
        """x = A^{-1} b with its residual report."""
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        res = float(np.linalg.norm(b - self.matrix @ x))
        if not np.isfinite(res):
            raise SolverFailure("direct solve produced non-finite values", [res])
        return x, SolveReport(0, res, [res])


def conjugate_gradient(apply_a, b, precondition=None, tol=1e-10, maxiter=5000):
    """Preconditioned CG for SPD operators.

    Stops when ||r|| <= tol * ||b||, so b = 0 returns x = 0 at once.
    precondition maps a residual r to M^{-1} r for an SPD preconditioner
    M; None means no preconditioning.  Raises SolverFailure when maxiter
    is exhausted, and at once on a non-finite right-hand side or a
    curvature p'Ap that is not positive.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise SolverFailure("non-finite right-hand side", [bnorm])
    target = tol * bnorm
    if bnorm <= target:
        return np.zeros_like(b), SolveReport(0, bnorm, [bnorm])
    if precondition is None:
        def precondition(r):
            return r
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    history = [bnorm]
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        pap = float(np.dot(p, ap))
        if not pap > 0.0:
            raise SolverFailure(
                f"operator not positive definite (p'Ap = {pap:.3e} at iter {it})", history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        history.append(res)
        if res <= target:
            return x, SolveReport(it, res, history)
        z = precondition(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailure(
        f"CG did not converge in {maxiter} iterations (residual {res:.3e}, target {target:.3e})",
        history)


# Relative tolerance and iteration cap of the CG solves preconditioned by
# a reference problem's LU.  The reference stiffness is within
# O(|phi - phi_ref|) of the problem's own, so CG needs a handful of
# iterations; the cap only bounds a failing solve.
REFERENCE_CG_TOL = 1e-12
REFERENCE_CG_MAXITER = 100

PLAIN = "plain"
AUGMENTED = "augmented"
VISCO = "visco"


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
    variant whose LU preconditions CG on this problem's stiffness (see
    the module docstring); this problem is then never factored, and the
    reference is factored on first need.
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
        self._w = self.grid.quad_weights()
        self._free = ~self.grid.dirichlet_mask()
        self.free_dofs = np.flatnonzero(np.concatenate([self._free, self._free]))
        self._stiffness = None
        self._solver = None

    # --- operator ---------------------------------------------------------

    def stiffness_matrix(self):
        """K = E' diag(w C) E restricted to the free dofs (sparse, cached).

        E is Grid.strain_op, with rows exx, eyy, the engineering shear
        gxy = 2 exy and div = exx + eyy.  The isotropic energy density
        C E:E = 2 mu (exx^2 + eyy^2) + mu gxy^2 + (lam + aug) div^2 is
        diagonal in these rows, so K is one weighted Gram product.
        """
        if self._stiffness is None:
            phi, material = self.phi, self.material
            lam, mu = material.lame(phi)
            lam, mu = self.scale * lam, self.scale * mu
            if self.variant == VISCO:
                lam_nu, mu_nu = material.lame_visco(phi)
                lam, mu = lam_nu + self.shift * lam, mu_nu + self.shift * mu
            elif self.variant == AUGMENTED:
                lam = lam + material.biot_alpha(phi)**2 * material.biot_modulus(phi)
            w = self._w
            strain = self.grid.strain_op[:, self.free_dofs]
            weight = sp.diags(np.concatenate([2.0 * mu * w, 2.0 * mu * w, mu * w, lam * w]))
            self._stiffness = (strain.T @ weight @ strain).tocsc()
        return self._stiffness

    def apply(self, ux, uy):
        """K times a displacement, as a (kx, ky) pair of nodal arrays.

        Dirichlet entries of the input are ignored (treated as zero) and
        the Dirichlet entries of the output are zeroed.
        """
        n = self.grid.n_nodes
        out = np.zeros(2 * n)
        out[self.free_dofs] = self.stiffness_matrix() @ np.concatenate([ux, uy])[self.free_dofs]
        return out[:n], out[n:]

    def factor(self):
        """The DirectSolver of the stiffness, factored on the first call."""
        if self._solver is None:
            self._solver = DirectSolver(self.stiffness_matrix())
        return self._solver

    def solve(self, b):
        """K^{-1} b on the free dofs of a stacked (bx, by) vector.

        Without a reference, a direct solve with this problem's factor;
        with one, CG preconditioned by the reference's factor.  Returns
        the stacked solution, zero on the Dirichlet dofs, and its
        SolveReport.
        """
        x = np.zeros(2 * self.grid.n_nodes)
        b_free = b[self.free_dofs]
        if self.reference is None:
            x[self.free_dofs], report = self.factor().solve(b_free)
        else:
            x[self.free_dofs], report = conjugate_gradient(
                self.stiffness_matrix().dot, b_free,
                precondition=self.reference.factor().apply_inverse,
                tol=REFERENCE_CG_TOL, maxiter=REFERENCE_CG_MAXITER)
        return x, report

    # --- right-hand side assembly ----------------------------------------

    def assemble_rhs(self, body=None, tensor_source=None, scalar_source=None,
                     traction=None):
        """Weak right-hand side vector (rx, ry) for the listed sources.

        body: VectorField2 body force f, enters as sum w f . w_test
        tensor_source: SymTensorField P, enters as sum w P : E(w_test),
            the weak form of -div P
        scalar_source: flat array q, enters as sum w q div(w_test),
            the weak form of -grad q (q times identity in P)
        traction: dict edge -> (gx, gy) arrays or floats, applied on
            Neumann edges with boundary trapezoid quadrature
        """
        g = self.grid
        n = g.n_nodes
        w = self._w
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
            sx, sy = g.dx_op_t @ pxx, g.dy_op_t @ pyy
            if pxy is not None:   # shear only from a tensor source
                sx, sy = sx + g.dy_op_t @ pxy, sy + g.dx_op_t @ pxy
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
        free = self._free
        rx[~free] = 0.0
        ry[~free] = 0.0
        return rx, ry


def solve_elasticity(problem, rhs):
    """Direct solve of the displacement problem; returns (VectorField2, SolveReport)."""
    n = problem.grid.n_nodes
    x, report = problem.solve(np.concatenate(rhs))
    return VectorField2(problem.grid, x[:n], x[n:]), report
