import numpy as np
import pytest

from chbsim.biot import BiotContext
from chbsim.grid import neumann_laplacian
from chbsim.oracle import (DENSE_CAP, DenseOperator, densify, spectral_check,
                           verify_operator_identities)
from conftest import MIXED, decoupled_material, make_grid, make_material, smooth_phi


def test_densify_identity():
    op = densify(lambda v: v, 10)
    assert np.array_equal(op.matrix, np.eye(10))


def test_densify_rejects_large_grids():
    with pytest.raises(ValueError):
        densify(lambda v: v, DENSE_CAP + 1)


def test_dense_laplacian_stencil_structure():
    g = make_grid(4, tags=MIXED)
    w = g.quad_weights()
    op = densify(lambda v: neumann_laplacian(g, v, 1.0), g.n_nodes, weights=w)
    # constants in the kernel: zero row sums
    assert np.max(np.abs(op.matrix.sum(axis=1))) <= 1e-12
    # interior node sees the 5-point stencil (h = 1/3)
    k = 1 * 4 + 1
    h2 = (1.0 / 3.0) ** 2
    row = op.matrix[k]
    assert row[k] == pytest.approx(-4.0 / h2, rel=1e-12)
    assert row[k - 1] == pytest.approx(1.0 / h2, rel=1e-12)
    assert row[k + 4] == pytest.approx(1.0 / h2, rel=1e-12)
    # weighted (Gram) reading is symmetric even with boundary closures
    assert op.symmetry_defect() <= 1e-12


def test_spectral_check_plain_matrix():
    op = DenseOperator(np.diag([1.0, 2.0, 3.0]), np.ones(3))
    eigs, residue, flagged = spectral_check(op)
    assert np.allclose(eigs, [1.0, 2.0, 3.0])
    assert residue <= 1e-14 and not flagged


def test_spectral_check_rejects_indefinite_weight():
    op = DenseOperator(np.eye(3), np.ones(3))
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        spectral_check(op, weight=bad)


def test_verify_identities_decoupled_case():
    """alpha = 0, M = 1 makes both conjugate operators the identity."""
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(0)
    ctx = BiotContext(g, decoupled_material(), smooth_phi(g, rng))
    rep = verify_operator_identities(ctx)
    assert rep["ab_defect"] <= 1e-12
    assert rep["ba_defect"] <= 1e-12
    assert rep["a_eig_min"] == pytest.approx(1.0, abs=1e-10)
    assert rep["a_eig_max"] == pytest.approx(1.0, abs=1e-10)


def test_verify_identities_coupled_case():
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(1)
    ctx = BiotContext(g, make_material(), smooth_phi(g, rng))
    rep = verify_operator_identities(ctx)
    assert rep["ab_defect"] <= 1e-7 and rep["ba_defect"] <= 1e-7
    assert rep["b_eig_min"] > 0 and rep["a_eig_min"] > 0
