"""Structured 2D grid, nodal fields, and the discrete differential operators.

The domain is the rectangle [0, lx] x [0, ly], discretized with nx * ny
collocated nodes (nodes sit on the boundary, spacing hx = lx/(nx-1)).
Scalar data is stored as flat arrays of length nx*ny in row-major order,
index k = iy*nx + ix.

Discrete L2 structure.  All inner products, adjoints and symmetry
statements in this package are taken with respect to the trapezoidal
quadrature weights w_k = hx*hy * tx_i * ty_j (tx, ty = 1/2 on boundary
rows/columns, 1 inside).  That weighted inner product is the discrete
realization of the L2(Omega) pairing; operators built here are exactly
self-adjoint with respect to it.

First derivatives use centered differences in the interior and one-sided
differences on the boundary rows, chosen so that the pair (weights, D)
satisfies a summation-by-parts identity exactly:

    sum_k w_k (Dx f)_k g_k + sum_k w_k f_k (Dx g)_k = boundary terms.

The exact discrete Gauss identity is what makes constant-pressure states
produce exactly zero interior forces, and what keeps phase and fluid
mass conserved to solver tolerance.

The zero-flux (Neumann) Laplacian is a finite-volume flux balance over
trapezoidal control volumes, written once through the cached face
operators: G (differences across the faces between adjacent nodes), the
face average c_bar of a nodal coefficient, and the face volumes v.  Its
application -G'(v c_bar G f)/w, its matrix B = G' diag(v c_bar) G and
its energy sum v c_bar (G f)^2 are the same form.  It is conservative
(constants map to zero, weighted means are preserved under evolution)
and second-order accurate including the boundary rows for fields that
satisfy the zero-flux condition.

Everything a grid derives from its geometry (shape, lengths and edge
tags), down to the displacement stiffness's Gram map, is built once in
one bounded cache (_grid_ops); the per-axis eigenpairs that the
displacement preconditioner needs join it on first use.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

EDGES = ("left", "right", "bottom", "top")


def _check_edge_tags(edge_tags):
    for e in EDGES:
        if e not in edge_tags:
            raise ValueError(f"missing edge tag for '{e}'")
        if edge_tags[e] not in (DIRICHLET, NEUMANN):
            raise ValueError(f"edge tag for '{e}' must be '{DIRICHLET}' or '{NEUMANN}'")
    if all(edge_tags[e] == NEUMANN for e in EDGES):
        raise ValueError("at least one edge must be dirichlet (rigid-body modes otherwise)")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on [0, lx] x [0, ly].

    edge_tags assigns each edge of the rectangle a boundary type for the
    displacement problem ('dirichlet' = clamped, 'neumann' = traction).
    Corner nodes touching at least one Dirichlet edge are Dirichlet.
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0
    edge_tags: dict = field(default_factory=lambda: {e: DIRICHLET for e in EDGES})

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs nx >= 4 and ny >= 4")
        for name in ("lx", "ly"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"domain length {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        _check_edge_tags(self.edge_tags)

    @property
    def hx(self):
        return self.lx / (self.nx - 1)

    @property
    def hy(self):
        return self.ly / (self.ny - 1)

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def n_nodes(self):
        return self.nx * self.ny

    def coords(self):
        """Nodal coordinates as two flat arrays (x, y)."""
        x = np.linspace(0.0, self.lx, self.nx)
        y = np.linspace(0.0, self.ly, self.ny)
        X, Y = np.meshgrid(x, y)
        return X.ravel(), Y.ravel()

    def quad_weights(self):
        """Trapezoidal quadrature weights (control volumes), flat read-only array."""
        return self._ops()["weights"]

    def integrate(self, values):
        return float(np.dot(self.quad_weights(), np.asarray(values).ravel()))

    def mean(self, values):
        return self.integrate(values) / (self.lx * self.ly)

    def dirichlet_mask(self):
        """Boolean flat read-only mask of nodes clamped for the displacement
        problem.

        A boundary node is Dirichlet when it lies on a Dirichlet edge;
        corners are Dirichlet if either adjacent edge is Dirichlet.
        """
        return self._ops()["dirichlet"]

    def boundary_quad_weights(self, edge):
        """1D trapezoid weights along one edge (flat array, zero off-edge)."""
        w = np.zeros(self.shape)
        if edge in ("left", "right"):
            w[:, 0 if edge == "left" else -1] = self.hy * _trapezoid(self.ny)
        else:
            w[0 if edge == "bottom" else -1, :] = self.hx * _trapezoid(self.nx)
        return w.ravel()

    # --- cached sparse difference operators -------------------------------

    def _ops(self):
        return _grid_ops(self.nx, self.ny, self.lx, self.ly,
                         tuple(self.edge_tags[e] for e in EDGES))

    @property
    def dx_op(self):
        """Sparse d/dx on flat scalars (centered interior, one-sided SBP rows)."""
        return self._ops()["dx"]

    @property
    def dy_op(self):
        return self._ops()["dy"]

    @property
    def dx_op_t(self):
        return self._ops()["dxt"]

    @property
    def dy_op_t(self):
        return self._ops()["dyt"]

    @property
    def strain_op(self):
        """Sparse (4n x 2n) map from stacked (ux, uy) to the stacked rows
        (exx, eyy, gxy, div u), gxy = dy ux + dx uy the engineering shear."""
        return self._ops()["strain"]

    @property
    def free_dofs(self):
        """Indices of the unclamped entries of a stacked (ux, uy), read-only."""
        return self._ops()["free_dofs"]

    @property
    def node_major_order(self):
        """The free dofs of a stacked (ux, uy) in node-major order, as
        positions in free_dofs: u_x and u_y of each free node adjacent,
        read-only.  A node is clamped in both components or in neither, so
        the free u_x and u_y halves list the same nodes."""
        return self._ops()["node_major"]

    @property
    def stiffness_gram(self):
        """(T, indices, indptr) of the displacement stiffness on the free
        dofs (see _stiffness_gram); callers must not modify them."""
        return self._ops()["gram"]

    @property
    def axis_eigenpairs(self):
        """((values, vectors) along x, (values, vectors) along y): the
        generalized eigenpairs of (A, T) on each axis's free displacement
        nodes (see _axis_eigenpairs), computed on first use and cached
        with the grid's operators; callers must not modify them.

        A node is clamped where its column or its row is (the corner
        rule), so the free nodes are the product of the free columns and
        the free rows.
        """
        ops = self._ops()
        if "axis_eig" not in ops:
            clamped = ops["dirichlet"].reshape(self.ny, self.nx)
            ops["axis_eig"] = (_axis_eigenpairs(self.nx, self.hx, ~clamped.all(axis=0)),
                               _axis_eigenpairs(self.ny, self.hy, ~clamped.all(axis=1)))
        return ops["axis_eig"]


def _sbp_first_derivative(n, h):
    """1D first derivative, trapezoid-norm summation-by-parts pair.

    Centered differences inside, first-order one-sided rows at the two
    boundary nodes.  With trapezoid weights this satisfies the discrete
    integration-by-parts identity exactly.
    """
    rows, cols, vals = [], [], []
    rows += [0, 0]
    cols += [0, 1]
    vals += [-1.0 / h, 1.0 / h]
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-0.5 / h, 0.5 / h]
    rows += [n - 1, n - 1]
    cols += [n - 2, n - 1]
    vals += [-1.0 / h, 1.0 / h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _face_pair(n, a, b):
    """(n-1) x n map from nodes to the faces between them: a f_i + b f_{i+1}."""
    i = np.arange(n - 1)
    return sp.csr_matrix((np.repeat([a, b], n - 1), (np.tile(i, 2), np.concatenate([i, i + 1]))),
                         shape=(n - 1, n))


# A run uses one grid; the bound only keeps a process that meets many
# grids (a test session, a sweep) from holding every operator set.
OP_CACHE_SIZE = 8


@functools.lru_cache(maxsize=OP_CACHE_SIZE)
def _grid_ops(nx, ny, lx, ly, tags):
    """What an nx x ny grid on [0, lx] x [0, ly] with edge tags `tags`
    (in EDGES order) derives from its geometry: the difference and face
    operators, the quadrature weights, the Dirichlet mask, the free
    displacement dofs, their node-major order and the stiffness Gram map.
    Cached, so every field and problem on one grid shares them; callers
    must not modify them (the weights, mask, dofs and order are
    read-only).
    """
    hx, hy = lx / (nx - 1), ly / (ny - 1)
    d1x = _sbp_first_derivative(nx, hx)
    d1y = _sbp_first_derivative(ny, hy)
    ix = sp.identity(nx, format="csr")
    iy = sp.identity(ny, format="csr")
    dx = sp.kron(iy, d1x, format="csr")
    dy = sp.kron(d1y, ix, format="csr")
    strain = sp.bmat([[dx, None], [None, dy], [dy, dx], [dx, dy]], format="csc")
    # faces: the x-faces (row-major over (ny, nx-1)), then the y-faces
    # (row-major over (ny-1, nx)); a face's volume is the trapezoid
    # control volume it crosses
    face_grad = sp.vstack([sp.kron(iy, _face_pair(nx, -1.0 / hx, 1.0 / hx)),
                           sp.kron(_face_pair(ny, -1.0 / hy, 1.0 / hy), ix)],
                          format="csr")
    face_avg = sp.vstack([sp.kron(iy, _face_pair(nx, 0.5, 0.5)),
                          sp.kron(_face_pair(ny, 0.5, 0.5), ix)], format="csr")
    face_grad.eliminate_zeros()   # kron stores small blocks densely
    face_avg.eliminate_zeros()
    tx, ty = _trapezoid(nx), _trapezoid(ny)
    face_vol = (hx * hy) * np.concatenate(
        [np.repeat(ty, nx - 1), np.tile(tx, ny - 1)])
    clamped = np.zeros((ny, nx), dtype=bool)
    # the node rows and columns of the edges, in EDGES order
    for tag, edge in zip(tags, (np.s_[:, 0], np.s_[:, -1], np.s_[0, :], np.s_[-1, :])):
        clamped[edge] |= tag == DIRICHLET
    clamped = clamped.ravel()
    weights = (hx * hy) * np.outer(ty, tx).ravel()
    free_dofs = np.flatnonzero(np.concatenate([~clamped, ~clamped]))
    node_major = np.arange(free_dofs.size).reshape(2, -1).T.ravel()
    for array in (weights, clamped, free_dofs, node_major):
        array.setflags(write=False)
    return {"dx": dx, "dy": dy, "dxt": dx.T.tocsr(), "dyt": dy.T.tocsr(),
            "strain": strain, "face_grad": face_grad, "face_grad_t": face_grad.T.tocsr(),
            "face_avg": face_avg, "face_vol": face_vol, "weights": weights,
            "dirichlet": clamped, "free_dofs": free_dofs, "node_major": node_major,
            "gram": _stiffness_gram(strain[:, free_dofs].tocsr())}


def _stiffness_gram(strain):
    """(T, indices, indptr) of the stiffness on the free dofs of a grid.

    strain is Grid.strain_op restricted to the free dofs, E_f.
    K_ij = sum_r E_ri E_rj weight_r over the strain rows r of E_f (see
    EllipticProblem.stiffness_matrix), so K's values in the CSC pattern
    (indices, indptr) of every pair of entries sharing a strain row are
    T @ weight, with T_(ij),r = E_ri E_rj.  The pattern keeps entries that
    cancel for a particular weight, as exact or rounding-level zeros: it is
    that of the structural product |E_f|' |E_f|, whose positive sums cannot
    cancel, and each pair finds its place by a binary search within its
    column of it.
    """
    m = strain.shape[1]
    # every ordered pair (left, right) of stored entries within one row
    per_row = np.diff(strain.indptr)
    row = np.repeat(np.arange(strain.shape[0]), per_row)   # row of each stored entry
    size = per_row[row]
    left = np.repeat(np.arange(strain.nnz), size)
    start = np.cumsum(size) - size                          # first pair of each entry
    right = np.repeat(strain.indptr[row] - start, size) + np.arange(left.size)
    magnitude = abs(strain)
    pattern = (magnitude.T @ magnitude).tocsc()
    pattern.sort_indices()
    # read as CSR, the pattern's arrays hold at (j, i) the place of K_ij;
    # sampling a CSR with sorted indices searches each of its rows
    place = sp.csr_matrix((np.arange(pattern.nnz, dtype=float), pattern.indices,
                           pattern.indptr), shape=(m, m))
    i, j = strain.indices[left], strain.indices[right]
    position = np.asarray(place[j, i]).ravel().astype(np.int64)
    gram = sp.csr_matrix((strain.data[left] * strain.data[right], (position, row[left])),
                         shape=(pattern.nnz, strain.shape[0]))
    return gram, pattern.indices.astype(np.int32), pattern.indptr.astype(np.int32)


def _axis_eigenpairs(n, h, free):
    """(values, vectors) of A v = value T v on the free nodes of one axis
    of n nodes, spacing h.

    A = d1' diag(t) d1 is the 1D SBP operator and T = diag(t) the
    trapezoid mass, both restricted to the free nodes; the vectors are
    T-orthonormal, V' T V = I, so V' A V = diag(values).  The 2D blocks
    hx hy (a T_y (x) A_x + b A_y (x) T_x) of a constant-coefficient
    stiffness are then diagonal in V_y (x) V_x (fast diagonalization).  An
    axis with no clamped node keeps the constants as its one zero value.
    """
    t = _trapezoid(n)
    d = _sbp_first_derivative(n, h)[:, free].toarray()
    values, vectors = scipy.linalg.eigh(d.T @ (t[:, None] * d), np.diag(t[free]))
    values = np.maximum(values, 0.0)
    for array in (values, vectors):
        array.setflags(write=False)
    return values, vectors


def _trapezoid(n):
    """1D trapezoid factors: 1/2 on the two end nodes, 1 inside."""
    t = np.ones(n)
    t[0] = t[-1] = 0.5
    return t


# --- fields ---------------------------------------------------------------


@dataclass
class VectorField2:
    """Nodal 2-vector field, components ux, uy flat."""

    grid: Grid
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        self.ux = np.asarray(self.ux, dtype=float).ravel()
        self.uy = np.asarray(self.uy, dtype=float).ravel()
        if self.ux.size != self.grid.n_nodes or self.uy.size != self.grid.n_nodes:
            raise ValueError("component length does not match grid")

    @classmethod
    def zero(cls, grid):
        n = grid.n_nodes
        return cls(grid, np.zeros(n), np.zeros(n))

    def copy(self):
        return VectorField2(self.grid, self.ux.copy(), self.uy.copy())


@dataclass
class SymTensorField:
    """Symmetric 2x2 tensor field, components (xx, yy, xy) flat."""

    grid: Grid
    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        for name in ("xx", "yy", "xy"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            if v.size != self.grid.n_nodes:
                raise ValueError("component length does not match grid")
            setattr(self, name, v)

    def trace(self):
        return self.xx + self.yy


# --- operators ------------------------------------------------------------


def symmetric_gradient(u):
    """Symmetrized gradient of a displacement field, nodewise.

    Centered differences in the interior, one-sided on boundary rows.
    Exact for affine fields: E((x, y)) = I, E((-y, x)) = 0.
    """
    g = u.grid
    dxux = g.dx_op @ u.ux
    dyuy = g.dy_op @ u.uy
    dyux = g.dy_op @ u.ux
    dxuy = g.dx_op @ u.uy
    return SymTensorField(g, dxux, dyuy, 0.5 * (dyux + dxuy))


def divergence(u):
    """Divergence of a vector field = trace of the symmetric gradient."""
    g = u.grid
    return g.dx_op @ u.ux + g.dy_op @ u.uy


def weak_divergence(grid, pxx, pyy, pxy=None):
    """The weak form of -div P, sum_k P_k : E(w_test)_k, from the
    quadrature-weighted components (pxx, pyy, pxy) = w P of a symmetric
    tensor field: (Dx' pxx + Dy' pxy, Dy' pyy + Dx' pxy), as a pair of
    nodal arrays.  pxy None means a diagonal P and skips the shear terms.
    """
    sx, sy = grid.dx_op_t @ pxx, grid.dy_op_t @ pyy
    if pxy is not None:
        sx, sy = sx + grid.dy_op_t @ pxy, sy + grid.dx_op_t @ pxy
    return sx, sy


def _face_weights(grid, coeff):
    """Face volume times the face-averaged flux coefficient, v * c_bar.

    coeff is a positive scalar or a positive nodal field; the face value
    is the arithmetic mean of the two adjacent nodes.
    """
    ops = grid._ops()
    if np.ndim(coeff) == 0:
        if coeff <= 0.0:
            raise ValueError("flux coefficient must be positive everywhere")
        return float(coeff) * ops["face_vol"]
    coeff = np.asarray(coeff, dtype=float).ravel()
    if np.any(coeff <= 0.0):
        raise ValueError("flux coefficient must be positive everywhere")
    return ops["face_vol"] * (ops["face_avg"] @ coeff)


def neumann_laplacian(grid, f, coeff):
    """Zero-flux div(c grad f) = -G' (v c_bar G f) / w, flat in and out.

    Finite-volume flux balance over trapezoidal control volumes; fluxes
    through the outer boundary faces are zero.  Conservative: the
    quadrature-weighted mean of the output vanishes identically, and
    constants are mapped to zero.
    """
    ops = grid._ops()
    flux = _face_weights(grid, coeff) * (ops["face_grad"] @ f)
    return -(ops["face_grad_t"] @ flux) / grid.quad_weights()


def flux_stiffness_matrix(grid, coeff=1.0):
    """Sparse B = G' diag(v c_bar) G, so neumann_laplacian(f, c) = -B f / w.

    B is the flux-balance form of the zero-flux operator: symmetric,
    positive semidefinite, kernel = constants, f' B f equals
    laplacian_stiffness_form.  The time stepper assembles its window
    systems from it.
    """
    ops = grid._ops()
    return (ops["face_grad_t"] @ sp.diags(_face_weights(grid, coeff)) @ ops["face_grad"]).tocsr()


def laplacian_stiffness_form(grid, f, coeff=1.0):
    """Dirichlet energy sum_faces v c_bar (G f)^2 of the zero-flux Laplacian.

    Equals <f, -neumann_laplacian(f, c)>_W exactly; used for the
    interface energy.
    """
    gf = grid._ops()["face_grad"] @ f
    return float(np.dot(_face_weights(grid, coeff), gf * gf))
