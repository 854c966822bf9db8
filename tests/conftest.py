import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from chbsim.elliptic import AUGMENTED, VISCO
from chbsim.grid import Grid, DIRICHLET, EDGES, NEUMANN
from chbsim.materials import MaterialModel

FULL_DIRICHLET = {"left": DIRICHLET, "right": DIRICHLET,
                  "bottom": DIRICHLET, "top": DIRICHLET}
MIXED = {"left": DIRICHLET, "right": NEUMANN,
         "bottom": DIRICHLET, "top": NEUMANN}

# any edge tags with at least one clamped edge
EDGE_TAGS = st.fixed_dictionaries(
    {e: st.sampled_from([DIRICHLET, NEUMANN]) for e in EDGES}).filter(
    lambda tags: DIRICHLET in tags.values())


def make_grid(nx=8, ny=None, tags=None, lx=1.0, ly=1.0):
    if ny is None:
        ny = nx
    return Grid(nx, ny, lx, ly, dict(tags or FULL_DIRICHLET))


def make_material(**kw):
    """Coupled material with phase-dependent coefficients unless overridden."""
    params = dict(eps=0.2, rho=0, m0=1.0, m1=0.5, k0=1.0, k1=0.5,
                  M0=1.0, M1=0.5, a0=0.5, a1=0.2, psi_scale=1.0,
                  lam_a=1.0, lam_b=2.0, mu_a=1.0, mu_b=2.0,
                  lam_nu_a=1.0, lam_nu_b=1.5, mu_nu_a=1.0, mu_nu_b=1.5,
                  tau0=0.0, tau1=0.1)
    params.update(kw)
    return MaterialModel(**params)


def decoupled_material(**kw):
    """alpha = 0, M = 1: fluid and mechanics decouple."""
    params = dict(eps=0.2, rho=0, m0=1.0, m1=0.0, k0=1.0, k1=0.0,
                  M0=1.0, M1=0.0, a0=0.0, a1=0.0, psi_scale=1.0,
                  lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0,
                  tau0=0.0, tau1=0.0)
    params.update(kw)
    return MaterialModel(**params)


def smooth_phi(grid, rng, amp=0.8, modes=3):
    """Random smooth field in [-1, 1] (a few low Fourier-cosine modes)."""
    x, y = grid.coords()
    f = np.zeros(grid.n_nodes)
    for kx in range(modes):
        for ky in range(modes):
            f += rng.normal() * np.cos(kx * np.pi * x / grid.lx) \
                 * np.cos(ky * np.pi * y / grid.ly)
    return amp * np.tanh(f)


def reference_neumann_laplacian(grid, f, coeff):
    """Independent stencil of the zero-flux div(c grad f), flat in and out.

    Node-by-node flux balance over the trapezoid control volumes, written
    without the grid's face operators: face coefficients are the mean of
    the two adjacent nodes, outer boundary fluxes are zero, and the
    boundary control volumes are halved.
    """
    hx, hy = grid.hx, grid.hy
    f2 = np.asarray(f, dtype=float).reshape(grid.shape)
    c2 = np.broadcast_to(np.asarray(coeff, dtype=float), grid.n_nodes).reshape(grid.shape)
    cfx = 0.5 * (c2[:, 1:] + c2[:, :-1])
    cfy = 0.5 * (c2[1:, :] + c2[:-1, :])
    fx = cfx * (f2[:, 1:] - f2[:, :-1]) / hx   # flux density across x-faces
    fy = cfy * (f2[1:, :] - f2[:-1, :]) / hy
    out = np.zeros_like(f2)
    out[:, :-1] += fx
    out[:, 1:] -= fx
    out /= hx
    out[:, 0] *= 2.0
    out[:, -1] *= 2.0
    outy = np.zeros_like(f2)
    outy[:-1, :] += fy
    outy[1:, :] -= fy
    outy /= hy
    outy[0, :] *= 2.0
    outy[-1, :] *= 2.0
    return (out + outy).ravel()


def reference_lame(problem):
    """Nodal (lam, mu) of a displacement problem's stiffness from the
    material laws at problem.phi: C(phi) times problem.scale, with
    lam + alpha^2 M for the augmented variant, or C_nu(phi) + shift *
    C(phi) for the visco variant."""
    m, phi = problem.material, problem.phi
    lam, mu = m.lame(phi)
    lam, mu = problem.scale * lam, problem.scale * mu
    if problem.variant == AUGMENTED:
        lam = lam + m.biot_alpha(phi) ** 2 * m.biot_modulus(phi)
    elif problem.variant == VISCO:
        lam_nu, mu_nu = m.lame_visco(phi)
        lam, mu = lam_nu + problem.shift * lam, mu_nu + problem.shift * mu
    return lam, mu


def reference_clamped(grid):
    """Flat mask of the nodes on the grid's Dirichlet edges, derived from
    its edge tags by node index, independently of the grid's cache."""
    ix, iy = np.arange(grid.n_nodes) % grid.nx, np.arange(grid.n_nodes) // grid.nx
    on_edge = {"left": ix == 0, "right": ix == grid.nx - 1,
               "bottom": iy == 0, "top": iy == grid.ny - 1}
    return np.any([on_edge[e] for e, tag in grid.edge_tags.items() if tag == DIRICHLET],
                  axis=0)


def reference_stiffness_apply(problem, ux, uy):
    """Independent matrix-free product of a displacement problem's stiffness.

    Strain -> pointwise stress -> adjoint strain with the grid's
    derivative operators, the coefficients from reference_lame.
    Dirichlet entries of the input are ignored and those of the output
    zeroed.
    """
    g = problem.grid
    lam, mu = reference_lame(problem)
    free = ~reference_clamped(g)
    ux = np.where(free, ux, 0.0)
    uy = np.where(free, uy, 0.0)
    exx = g.dx_op @ ux
    eyy = g.dy_op @ uy
    exy = 0.5 * (g.dy_op @ ux + g.dx_op @ uy)
    tr = exx + eyy
    sxx = 2.0 * mu * exx + lam * tr
    syy = 2.0 * mu * eyy + lam * tr
    sxy = 2.0 * mu * exy
    w = g.quad_weights()
    outx = g.dx_op.T @ (w * sxx) + g.dy_op.T @ (w * sxy)
    outy = g.dx_op.T @ (w * sxy) + g.dy_op.T @ (w * syy)
    outx[~free] = 0.0
    outy[~free] = 0.0
    return outx, outy


def dense_reference_stiffness(problem):
    """The (2n x 2n) matrix of reference_stiffness_apply, by columns;
    rows and columns of Dirichlet dofs are zero."""
    n = problem.grid.n_nodes
    mat = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        kx, ky = reference_stiffness_apply(problem, e[:n], e[n:])
        mat[:n, j] = kx
        mat[n:, j] = ky
    return mat


def reference_gram_stiffness(problem):
    """The stiffness on the free dofs as the weighted Gram product
    E_f' diag(weight) E_f of the strain rows, formed directly, with the
    coefficients from reference_lame and the free dofs from
    reference_clamped."""
    g = problem.grid
    lam, mu = reference_lame(problem)
    w = g.quad_weights()
    free = ~reference_clamped(g)
    strain_f = g.strain_op[:, np.flatnonzero(np.concatenate([free, free]))]
    weight = sp.diags(np.concatenate([2.0 * mu * w, 2.0 * mu * w, mu * w, lam * w]))
    return (strain_f.T @ weight @ strain_f).tocsc()
