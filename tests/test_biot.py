import numpy as np

from chbsim.biot import BiotContext, apply_A_tilde, apply_B_tilde, apply_fluid_operator
from chbsim.grid import neumann_laplacian
from chbsim.oracle import verify_operator_identities, fluid_operator_spectrum
from conftest import (MIXED, biot_modulus, decoupled_material, make_grid, make_material,
                      smooth_phi)


def test_decoupled_operators_are_diagonal():
    g = make_grid(8, tags=MIXED)
    m = decoupled_material(M0=2.0)
    rng = np.random.default_rng(0)
    ctx = BiotContext(g, m, smooth_phi(g, rng))
    q = rng.standard_normal(g.n_nodes)
    assert np.allclose(apply_B_tilde(ctx, q), q / 2.0, atol=1e-13)
    assert np.allclose(apply_A_tilde(ctx, q), 2.0 * q, atol=1e-13)


def test_composition_is_identity():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(1)
    ctx = BiotContext(g, m, smooth_phi(g, rng))
    theta = rng.standard_normal(g.n_nodes)
    back = apply_B_tilde(ctx, apply_A_tilde(ctx, theta))
    assert np.max(np.abs(back - theta)) <= 1e-7 * max(1.0, np.max(np.abs(theta)))


def test_dense_identities_and_spd():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(2)
    ctx = BiotContext(g, m, smooth_phi(g, rng))
    rep = verify_operator_identities(ctx)
    assert rep["ab_defect"] <= 1e-7
    assert rep["ba_defect"] <= 1e-7
    assert rep["b_symmetry_defect"] <= 1e-9
    assert rep["a_symmetry_defect"] <= 1e-9
    assert rep["b_eig_min"] > 0.0
    assert rep["a_eig_min"] > 0.0
    # the content operator dominates 1/M everywhere
    m_max = float(np.max(biot_modulus(m, ctx.phi)))
    assert rep["b_eig_min"] >= 1.0 / m_max - 1e-9


def test_fluid_operator_annihilates_constants():
    g = make_grid(8, tags=MIXED)
    m = make_material(M1=0.0)  # constant modulus
    rng = np.random.default_rng(5)
    phi = smooth_phi(g, rng)
    ctx = BiotContext(g, decoupled_material(), phi)
    out = apply_fluid_operator(ctx, np.full(g.n_nodes, 2.5))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_fluid_operator_reduces_to_laplacian_when_decoupled():
    g = make_grid(8, tags=MIXED)
    m = decoupled_material()
    rng = np.random.default_rng(6)
    phi = smooth_phi(g, rng)
    ctx = BiotContext(g, m, phi)
    theta = rng.standard_normal(g.n_nodes)
    got = apply_fluid_operator(ctx, theta)
    want = -neumann_laplacian(g, theta, m.permeability(phi))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_fluid_operator_h_spectrum():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(7)
    ctx = BiotContext(g, m, smooth_phi(g, rng))
    eigs, residue, flagged, beta = fluid_operator_spectrum(ctx)
    assert not flagged
    assert residue <= 1e-8
    assert np.isfinite(beta) and beta >= 0.0
    assert eigs.min() >= -beta - 1e-12
