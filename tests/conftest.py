import numpy as np
import scipy.sparse as sp
from hypothesis import settings, strategies as st

from chbsim.elliptic import AUGMENTED, STIFFNESS_SCALE, VISCO
from chbsim.grid import Grid, DIRICHLET, EDGES, NEUMANN
from chbsim.materials import MaterialModel
from chbsim.stepper import run_simulation

# Every tier-1 run draws the same hypothesis examples: the seed is a hash
# of each test, and no example database replays earlier failures.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

FULL_DIRICHLET = {"left": DIRICHLET, "right": DIRICHLET,
                  "bottom": DIRICHLET, "top": DIRICHLET}
MIXED = {"left": DIRICHLET, "right": NEUMANN,
         "bottom": DIRICHLET, "top": NEUMANN}

# any edge tags with at least one clamped edge
EDGE_TAGS = st.fixed_dictionaries(
    {e: st.sampled_from([DIRICHLET, NEUMANN]) for e in EDGES}).filter(
    lambda tags: DIRICHLET in tags.values())


@st.composite
def grids(draw, tags=st.just(FULL_DIRICHLET)):
    """Grids with nx, ny in [4, 12], domain lengths in [0.2, 5] and edge
    tags drawn from the strategy tags."""
    nx = draw(st.integers(4, 12))
    ny = draw(st.integers(4, 12))
    lx = draw(st.floats(0.2, 5.0))
    ly = draw(st.floats(0.2, 5.0))
    return Grid(nx, ny, lx, ly, dict(draw(tags)))


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


def run_trajectory(grid, material, cfg, state, sources, observer=None):
    """(states, reports) of a run_simulation call, collected through its
    observer, the trajectory with the initial state first; observer,
    when given, is called after each window as well."""
    states, reports = [state], []

    def collect(new, report):
        states.append(new)
        reports.append(report)
        if observer is not None:
            observer(new, report)

    run_simulation(grid, material, cfg, state, sources, observer=collect)
    return states, reports


# --- the material laws, written out one call per coefficient ----------------
# Independent of chbsim.materials: a test that needs a law's value reads
# it here, and a test of the code's own values reads m.coefficients(phi).


def _blend(phi):
    return 0.5 * (1.0 + np.tanh(phi))


def _blend_d(phi):
    with np.errstate(over="ignore"):
        return 0.5 / np.cosh(phi) ** 2


def mobility(m, phi):
    return m.m0 + m.m1 * phi**2


def permeability(m, phi):
    return m.k0 + m.k1 * phi**2


def biot_modulus(m, phi, deriv=0):
    return m.M0 + m.M1 * _blend(phi) if deriv == 0 else m.M1 * _blend_d(phi)


def biot_alpha(m, phi, deriv=0):
    return m.a0 + m.a1 * _blend(phi) if deriv == 0 else m.a1 * _blend_d(phi)


def tau(m, phi, deriv=0):
    return m.tau0 + m.tau1 * _blend(phi) if deriv == 0 else m.tau1 * _blend_d(phi)


def lame(m, phi, deriv=0):
    if deriv == 0:
        s = _blend(phi)
        return m.lam_a + (m.lam_b - m.lam_a) * s, m.mu_a + (m.mu_b - m.mu_a) * s
    sd = _blend_d(phi)
    return (m.lam_b - m.lam_a) * sd, (m.mu_b - m.mu_a) * sd


def lame_visco(m, phi, deriv=0):
    if deriv == 0:
        s = _blend(phi)
        return (m.lam_nu_a + (m.lam_nu_b - m.lam_nu_a) * s,
                m.mu_nu_a + (m.mu_nu_b - m.mu_nu_a) * s)
    sd = _blend_d(phi)
    return (m.lam_nu_b - m.lam_nu_a) * sd, (m.mu_nu_b - m.mu_nu_a) * sd


def psi(m, phi):
    return m.psi_scale * (1.0 - phi**2) ** 2


def psi_d(m, phi):
    return -4.0 * m.psi_scale * phi * (1.0 - phi**2)


def coefficient_law(m, field):
    """(value, phi-derivative) of the blend law `field` as m.coefficients
    reads it: functions of phi giving the field and its _d field."""
    return (lambda phi: getattr(m.coefficients(phi), field),
            lambda phi: getattr(m.coefficients(phi), field + "_d"))


def elastic_density_W(m, phi, exx, eyy, exy):
    lam, mu = lame(m, phi)
    t = tau(m, phi)
    dxx, dyy = exx - t, eyy - t
    tr = dxx + dyy
    norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
    return 2.0 * mu * norm2 + lam * tr**2


def elastic_density_derivatives(m, phi, exx, eyy, exy):
    lam, mu = lame(m, phi)
    lam_d, mu_d = lame(m, phi, deriv=1)
    t = tau(m, phi)
    t_d = tau(m, phi, deriv=1)
    dxx, dyy = exx - t, eyy - t
    tr = dxx + dyy
    norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
    w_exx = 2.0 * (2.0 * mu * dxx + lam * tr)
    w_eyy = 2.0 * (2.0 * mu * dyy + lam * tr)
    w_exy = 2.0 * (2.0 * mu * exy)
    w_phi = 2.0 * mu_d * norm2 + lam_d * tr**2 - 2.0 * t_d * (2.0 * mu + 2.0 * lam) * tr
    return w_exx, w_eyy, w_exy, w_phi


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
    written-out laws at problem.phi: C(phi) times STIFFNESS_SCALE, with
    lam + alpha^2 M for the augmented variant, or C_nu(phi) + shift *
    that for the visco variant."""
    m, phi = problem.material, problem.phi
    lam, mu = lame(m, phi)
    lam, mu = STIFFNESS_SCALE * lam, STIFFNESS_SCALE * mu
    if problem.variant == AUGMENTED:
        lam = lam + biot_alpha(m, phi) ** 2 * biot_modulus(m, phi)
    elif problem.variant == VISCO:
        lam_nu, mu_nu = lame_visco(m, phi)
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
