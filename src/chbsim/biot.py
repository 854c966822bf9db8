"""Fluid-content/pressure conjugate operators and the fluid generator.

For a frozen phase field phi the model couples the fluid content theta
and the pressure p through the quasi-static displacement.  Eliminating
the displacement gives two mutually inverse, positive, self-adjoint
operators on the discrete L2 space:

  pressure -> content:  B q = q / M(phi) + alpha(phi) div v[q],
      where v[q] solves the plain elasticity problem with right-hand
      side -grad(alpha(phi) q) (weak form), and

  content -> pressure:  A th = M(phi) (th - alpha(phi) div w[th]),
      where w[th] solves the volumetrically augmented problem (stiffness
      plus alpha^2 M (div .)(div .)) with right-hand side
      -grad(alpha(phi) M(phi) th).

The identity A o B = B o A = id holds exactly at the discrete level
(up to round-off in the direct displacement solves): the augmented
solve applied to the right-hand side generated by B q reproduces v[q],
and the correction terms cancel.  Both operators are self-adjoint in the quadrature
inner product and positive definite (B has eigenvalues >= 1/max M).

The weighted inner product (u, v)_H = (u, A(phi0) v)_L2 turns the fluid
evolution operator

  theta -> -div( kappa(phi) grad( A(phi) theta ) )

into a self-adjoint, bounded-below operator for phi = phi0; the
H-symmetrized spectrum is computed by the reference oracle.
"""

from dataclasses import dataclass

import numpy as np

from .elliptic import AUGMENTED, PLAIN, EllipticProblem, solve_elasticity
from .grid import divergence, neumann_laplacian


@dataclass
class BiotContext:
    """Frozen-phase context bundling the two displacement problems.

    The operators below factor a problem on first use.  The oracle reads
    them; the time stepper's FrozenElastic builds its own pair.
    """

    grid: object
    material: object
    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float).ravel()
        c = self.material.coefficients(self.phi)
        self.alpha, self.modulus, self.kappa = c.alpha, c.modulus, c.permeability
        self.plain = EllipticProblem(self.grid, self.material, self.phi, variant=PLAIN)
        self.augmented = EllipticProblem(self.grid, self.material, self.phi, variant=AUGMENTED)

    def _solve(self, problem, scalar_source):
        rhs = problem.assemble_rhs(scalar_source=scalar_source)
        return solve_elasticity(problem, rhs)[0]


def apply_B_tilde(ctx, q):
    """Pressure -> fluid content map (see module docstring)."""
    q = np.asarray(q, dtype=float).ravel()
    v = ctx._solve(ctx.plain, ctx.alpha * q)
    return q / ctx.modulus + ctx.alpha * divergence(v)


def apply_A_tilde(ctx, theta):
    """Fluid content -> pressure map, inverse of apply_B_tilde."""
    theta = np.asarray(theta, dtype=float).ravel()
    w = ctx._solve(ctx.augmented, ctx.alpha * ctx.modulus * theta)
    return ctx.material.coefficients(ctx.phi).content_split(theta, divergence(w))[1]


def apply_fluid_operator(ctx, theta):
    """theta -> -div( kappa grad( A theta ) ), zero-flux realization."""
    return -neumann_laplacian(ctx.grid, apply_A_tilde(ctx, theta), ctx.kappa)
