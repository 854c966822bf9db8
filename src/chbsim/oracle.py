"""Dense reference oracle: independent verification of operator claims.

Builds dense matrices column-by-column from matrix-free operator
applications (capped at desk scale), then uses direct dense linear
algebra for products, symmetry defects and spectra.  Nothing here feeds
back into the simulation path; it exists to check it.

Symmetry and spectra are measured in the quadrature inner product that
defines the discrete L2 space: an operator A is self-adjoint when the
Gram matrix W A is symmetric (W = diagonal quadrature weights), and its
spectrum is that of the generalized symmetric problem (W A) x = lam W x.
For uniform interior weights this coincides with plain matrix symmetry;
the weighted form is the one the continuous statements discretize to.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .biot import apply_A_tilde, apply_B_tilde, apply_fluid_operator

DENSE_CAP = 145  # 12 x 12 scalar unknowns


@dataclass
class DenseOperator:
    """Dense matrix of a matrix-free operator, with its weight vector
    (see spectral_check for its weighted spectrum and symmetry)."""

    matrix: np.ndarray
    weights: np.ndarray


def densify(apply_fn, n, weights=None, cap=DENSE_CAP):
    """Dense matrix of a matrix-free operator on R^n, column by column."""
    if n > cap:
        raise ValueError(f"dense oracle capped at {cap} unknowns, got {n}")
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(np.asarray(apply_fn(e), dtype=float))
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return DenseOperator(np.column_stack(cols), w)


def spectral_check(dense_op, weight=None, residue_tol=1e-8):
    """Spectrum of an operator symmetrized by an SPD weight Gram matrix.

    weight is a dense SPD matrix H (defaults to the diagonal quadrature
    Gram W, which makes H A the operator's Gram matrix); the check
    computes the eigenvalues of the pencil (sym(H A), H) and flags the
    symmetrization residue ||H A - (H A)^T|| / ||H A|| (the max-norm
    relative asymmetry) when it exceeds residue_tol, since a large
    residue means the returned real spectrum is untrustworthy.
    Returns (eigenvalues ascending, residue, flagged).
    """
    a = dense_op.matrix
    h = np.diag(dense_op.weights) if weight is None else np.asarray(weight, dtype=float)
    h_eigs = scipy.linalg.eigvalsh(0.5 * (h + h.T))
    if h_eigs[0] <= 0.0:
        raise ValueError("weight matrix must be symmetric positive definite")
    ha = h @ a
    scale = max(np.abs(ha).max(), 1e-300)
    residue = float(np.abs(ha - ha.T).max() / scale)
    eigs = scipy.linalg.eigh(0.5 * (ha + ha.T), h, eigvals_only=True)
    return eigs, residue, residue > residue_tol


def verify_operator_identities(ctx):
    """Dense check of the content/pressure operator pair on a context.

    Returns a dict with the two composition defects (relative, vs the
    identity), the two Gram symmetry defects, and the extreme
    eigenvalues of both operators in the weighted inner product.
    """
    n = ctx.grid.n_nodes
    w = ctx.grid.quad_weights()
    b_op = densify(lambda q: apply_B_tilde(ctx, q), n, weights=w)
    a_op = densify(lambda t: apply_A_tilde(ctx, t), n, weights=w)
    eye = np.eye(n)
    ab = a_op.matrix @ b_op.matrix
    ba = b_op.matrix @ a_op.matrix
    b_eigs, b_defect, _ = spectral_check(b_op)
    a_eigs, a_defect, _ = spectral_check(a_op)
    return {
        "n": n,
        "ab_defect": float(np.abs(ab - eye).max()),
        "ba_defect": float(np.abs(ba - eye).max()),
        "b_symmetry_defect": b_defect,
        "a_symmetry_defect": a_defect,
        "b_eig_min": float(b_eigs[0]),
        "b_eig_max": float(b_eigs[-1]),
        "a_eig_min": float(a_eigs[0]),
        "a_eig_max": float(a_eigs[-1]),
    }


def fluid_operator_spectrum(ctx, residue_tol=1e-8):
    """H-symmetrized spectrum of the frozen-phase fluid operator.

    The weight is the H-space Gram W * A(phi0); the fluid operator is
    theta -> -div(kappa grad(A theta)).  Returns (eigenvalues, residue,
    flagged, beta) where beta = max(0, -min eigenvalue) is the measured
    lower-bound constant.
    """
    n = ctx.grid.n_nodes
    w = ctx.grid.quad_weights()
    a_op = densify(lambda t: apply_A_tilde(ctx, t), n, weights=w)
    f_op = densify(lambda t: apply_fluid_operator(ctx, t), n, weights=w)
    h = w[:, None] * a_op.matrix
    h = 0.5 * (h + h.T)
    eigs, residue, flagged = spectral_check(f_op, weight=h, residue_tol=residue_tol)
    beta = float(max(0.0, -eigs[0]))
    return eigs, residue, flagged, beta
