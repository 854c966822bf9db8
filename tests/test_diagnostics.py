import numpy as np
import pytest

from chbsim.diagnostics import (DiagnosticsRow, convergence_study,
                                diagnostics_row, energy_tolerance,
                                pde_residual, total_energy)
from chbsim.grid import VectorField2
from chbsim.rhs import SimState, SourceSpec
from chbsim.stepper import StepperConfig, initial_state, run_simulation
from conftest import (MIXED, biot_alpha, biot_modulus, elastic_density_W, make_grid,
                      make_material, smooth_phi)


def test_csv_schema():
    assert DiagnosticsRow.HEADER == ("t,E_total,E_interface,E_elastic,E_fluid,"
                                     "mass_phi,mass_theta,picard_iters,rho,"
                                     "residual,dt")
    g = make_grid(8, tags=MIXED)
    m = make_material()
    st = SimState(g, np.zeros(g.n_nodes), np.zeros(g.n_nodes),
                  VectorField2.zero(g), 0.0)
    row = diagnostics_row(g, m, st)
    assert len(row.as_csv().split(",")) == 11


def test_energy_zero_at_pure_phase_rest():
    g = make_grid(8, tags=MIXED)
    m = make_material(tau0=0.0, tau1=0.0)
    st = SimState(g, np.ones(g.n_nodes), np.zeros(g.n_nodes),
                  VectorField2.zero(g), 0.0)
    e_total, e_int, e_el, e_fl = total_energy(g, m, st)
    assert e_int == pytest.approx(0.0, abs=1e-12)
    assert e_el == pytest.approx(0.0, abs=1e-12)
    assert e_fl == pytest.approx(0.0, abs=1e-12)
    assert e_total == pytest.approx(0.0, abs=1e-12)


def test_energy_interface_profile_positive():
    g = make_grid(16, tags=MIXED)
    m = make_material(tau0=0.0, tau1=0.0)
    x, _ = g.coords()
    phi = np.tanh((x - 0.5) / (np.sqrt(2) * m.eps))
    st = SimState(g, phi, np.zeros(g.n_nodes), VectorField2.zero(g), 0.0)
    _, e_int, e_el, e_fl = total_energy(g, m, st)
    assert e_int > 0.0
    assert e_el == pytest.approx(0.0, abs=1e-12)
    assert e_fl == pytest.approx(0.0, abs=1e-12)


def test_energy_matches_independent_quadrature():
    from chbsim.grid import symmetric_gradient
    g = make_grid(64, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(0)
    x, y = g.coords()
    phi = 0.7 * np.cos(np.pi * x) * np.cos(np.pi * y)
    theta = 0.3 * smooth_phi(g, rng)
    u = VectorField2(g, 0.1 * rng.standard_normal(g.n_nodes),
                     0.1 * rng.standard_normal(g.n_nodes))
    st = SimState(g, phi, theta, u, 0.0)
    e_total, e_int, e_el, e_fl = total_energy(g, m, st)
    w = g.quad_weights()
    # independent per-node quadrature of each density
    p2 = phi.reshape(g.shape)
    gx = np.gradient(p2, g.hx, axis=1, edge_order=2).ravel()
    gy = np.gradient(p2, g.hy, axis=0, edge_order=2).ravel()
    ref_int = np.dot(w, 0.5 * m.eps * (gx**2 + gy**2) + m.psi(phi) / m.eps)
    strain = symmetric_gradient(u)
    ref_el = np.dot(w, elastic_density_W(m, phi, strain.xx, strain.yy, strain.xy))
    zeta = theta - biot_alpha(m, phi) * strain.trace()
    ref_fl = np.dot(w, 0.5 * biot_modulus(m, phi) * zeta**2)
    assert e_el == pytest.approx(ref_el, rel=1e-10)
    assert e_fl == pytest.approx(ref_fl, rel=1e-10)
    # gradient stencils differ between the two readings, so the interface
    # part agrees to discretization order only
    assert e_int == pytest.approx(ref_int, rel=0.01)
    assert e_total == pytest.approx(e_int + ref_el + ref_fl, rel=1e-10)


def test_energy_tolerance_floor():
    assert energy_tolerance(1e-9, 0.0, 0.0) == pytest.approx(1e-8)
    assert energy_tolerance(0.0, 1e-2, 5.0) == pytest.approx(10 * 1e-4 * 5.0)


def test_pde_residual_small_at_equilibrium_and_detects_corruption():
    g = make_grid(10, tags=MIXED)
    m = make_material(m1=0.0, k1=0.0, M1=0.0, a1=0.0, tau0=0.0, tau1=0.0,
                      lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0)
    phi = np.ones(g.n_nodes)
    theta = np.full(g.n_nodes, 0.5)
    st = initial_state(g, m, phi, theta, SourceSpec())
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, tol_picard=1e-11)
    new = run_simulation(g, m, cfg, st, SourceSpec())
    res = pde_residual(g, m, st, new, SourceSpec())
    assert max(res.values()) <= 10 * 1e-8
    bad = new.copy()
    bad.phi[55] += 1.0
    res_bad = pde_residual(g, m, st, bad, SourceSpec())
    assert max(res_bad.values()) > 0.1


def test_heat_reduction_convergence_orders():
    out = convergence_study("heat")
    assert abs(out["time_order"] - 1.0) <= 0.15
    assert abs(out["space_order"] - 2.0) <= 0.2


def test_coupled_scheme_is_first_order_in_time():
    """The coupled scheme converges at first order in time in phi, theta
    and u_x, in both quasi-static forms and in the Kelvin-Voigt regime:
    the windows converge to the implicit-Euler fixed point, whatever
    iteration gets them there."""
    out = convergence_study("coupled")
    assert set(out["orders"]) == {"theta", "pressure", "visco"}
    for regime, fields in out["orders"].items():
        assert set(fields) == {"phi", "theta", "u_x"}
        for field, orders in fields.items():
            assert len(orders) == 2 and min(orders) >= 0.9, (regime, field, orders)
    assert out["time_order"] >= 0.9


def test_unknown_study_preset_rejected():
    with pytest.raises(ValueError):
        convergence_study("bogus")
