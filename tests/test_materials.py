import inspect
import warnings
from dataclasses import fields

import numpy as np
import pytest

from chbsim.materials import MaterialModel, _blend_d
from conftest import (biot_alpha, biot_modulus, coefficient_law, lame, lame_visco,
                      make_material, mobility, permeability, tau)


def test_constant_coefficient_families():
    m = make_material(m1=0.0, k1=0.0, M1=0.0, a1=0.0)
    phi = np.linspace(-1.5, 1.5, 7)
    assert np.allclose(m.mobility(phi), m.m0)
    assert np.allclose(m.permeability(phi), m.k0)
    c = m.coefficients(phi)
    assert np.allclose(c.modulus, m.M0)
    assert np.allclose(c.alpha, m.a0)


def test_double_well_values():
    m = make_material(psi_scale=1.0)
    # psi'(phi) = -4 psi_scale phi (1 - phi^2)
    assert m.psi_d(0.5) == pytest.approx(-1.5)
    assert m.psi_d(1.0) == pytest.approx(0.0)
    assert m.psi_d(-1.0) == pytest.approx(0.0)
    assert m.psi(1.0) == pytest.approx(0.0)
    assert (m.psi(np.linspace(-2, 2, 41)) >= 0.0).all()


def test_validation_names_violated_assumption():
    with pytest.raises(ValueError, match="mobility must be positive"):
        make_material(m0=-1.0)
    with pytest.raises(ValueError, match="permeability must be positive"):
        make_material(k0=0.0)
    with pytest.raises(ValueError, match="Biot modulus must be positive"):
        make_material(M0=1.0, M1=-2.0)
    with pytest.raises(ValueError, match="shear modulus must be positive"):
        make_material(mu_a=0.0)
    with pytest.raises(ValueError, match="interface width"):
        make_material(eps=-0.1)
    with pytest.raises(ValueError, match="regime"):
        make_material(rho=2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", [f.name for f in fields(MaterialModel)])
def test_non_finite_parameter_is_rejected_naming_its_field(field, value):
    """Every parameter is checked for finiteness at construction, so a
    NaN or inf never reaches a solve."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_material(**{field: value})


def test_elastic_density_simple_values():
    m = make_material(lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0,
                      tau0=0.0, tau1=0.0)
    # E = I: W = C(E):E with C E = 2(2 mu E + lam tr(E) I) convention gives
    # W = 2(2 mu |E|^2 + lam tr(E)^2) = 2(2*2 + 4) = ... use the model form:
    # W = 2 mu_eff |E-T|^2 + lam_eff tr^2 with the stored scaling
    w = m.coefficients(0.0).elastic_density_W(1.0, 1.0, 0.0)
    assert w == pytest.approx(8.0)
    # strain equal to the eigenstrain: zero energy
    m2 = make_material(tau0=0.3, tau1=0.0)
    assert m2.coefficients(0.2).elastic_density_W(0.3, 0.3, 0.0) == pytest.approx(0.0)


def test_elastic_density_nonnegative():
    m = make_material()
    rng = np.random.default_rng(0)
    phi = rng.uniform(-2, 2, 1000)
    e = rng.uniform(-5, 5, (3, 1000))
    assert (m.coefficients(phi).elastic_density_W(e[0], e[1], e[2]) >= 0.0).all()


def test_strain_derivative_values():
    m = make_material(lam_a=1.0, lam_b=1.0, mu_a=1.0, mu_b=1.0,
                      tau0=0.0, tau1=0.0)
    w_exx, w_eyy, w_exy, w_phi = m.coefficients(0.0).elastic_density_derivatives(1.0, 1.0, 0.0)
    assert w_exx == pytest.approx(8.0)
    assert w_eyy == pytest.approx(8.0)
    assert w_exy == pytest.approx(0.0)
    assert w_phi == pytest.approx(0.0)  # phase-independent stiffness/eigenstrain


def _central(f, x, d=1e-5):
    return (f(x + d) - f(x - d)) / (2.0 * d)


def test_scalar_coefficient_derivatives_finite_difference():
    m = make_material()
    pts = np.linspace(-1.8, 1.8, 13)
    pairs = [
        (lambda p: m.mobility(p), lambda p: m.mobility(p, 1)),
        (lambda p: m.permeability(p), lambda p: m.permeability(p, 1)),
        coefficient_law(m, "modulus"),
        coefficient_law(m, "alpha"),
        coefficient_law(m, "tau"),
        (lambda p: m.psi(p), lambda p: m.psi_d(p)),
        (lambda p: m.psi_d(p), lambda p: m.psi_dd(p)),
        coefficient_law(m, "lam"),
        coefficient_law(m, "mu"),
        coefficient_law(m, "lam_nu"),
        coefficient_law(m, "mu_nu"),
    ]
    for fn, dfn in pairs:
        got = dfn(pts)
        ref = _central(fn, pts)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(got - ref) / scale) <= 1e-6
    with pytest.raises(ValueError):
        m.mobility(pts, deriv=3)


def test_energy_density_derivatives_finite_difference():
    m = make_material()
    rng = np.random.default_rng(2)
    d = 1e-5
    for _ in range(50):
        phi = rng.uniform(-1.5, 1.5)
        exx, eyy, exy = rng.uniform(-3, 3, 3)
        c = m.coefficients(phi)
        w_exx, w_eyy, w_exy, w_phi = c.elastic_density_derivatives(exx, eyy, exy)
        fd_phi = (m.coefficients(phi + d).elastic_density_W(exx, eyy, exy)
                  - m.coefficients(phi - d).elastic_density_W(exx, eyy, exy)) / (2 * d)
        fd_xx = (c.elastic_density_W(exx + d, eyy, exy)
                 - c.elastic_density_W(exx - d, eyy, exy)) / (2 * d)
        fd_yy = (c.elastic_density_W(exx, eyy + d, exy)
                 - c.elastic_density_W(exx, eyy - d, exy)) / (2 * d)
        # off-diagonal strain appears twice in |E|^2: dW/d(exy) = 2 * w_exy
        fd_xy = (c.elastic_density_W(exx, eyy, exy + d)
                 - c.elastic_density_W(exx, eyy, exy - d)) / (2 * d)
        scale = max(1.0, abs(fd_phi), abs(fd_xx), abs(fd_xy))
        assert abs(w_phi - fd_phi) <= 1e-6 * scale
        assert abs(w_exx - fd_xx) <= 1e-6 * scale
        assert abs(w_eyy - fd_yy) <= 1e-6 * scale
        assert abs(2.0 * w_exy - fd_xy) <= 1e-6 * scale


def test_growth_bound_sampled():
    m = make_material()
    c2 = m.growth_constant()
    rng = np.random.default_rng(3)
    phi = rng.uniform(-2, 2, 10000)
    exx = rng.uniform(-5, 5, 10000)
    eyy = rng.uniform(-5, 5, 10000)
    exy = rng.uniform(-5, 5, 10000)
    _, _, _, w_phi = m.coefficients(phi).elastic_density_derivatives(exx, eyy, exy)
    e2 = exx**2 + eyy**2 + 2 * exy**2
    assert (np.abs(w_phi) <= c2 * (e2 + phi**2 + 1.0)).all()


def test_lame_bounds_bracket_values():
    m = make_material(lam_a=1.0, lam_b=2.0, mu_a=0.5, mu_b=3.0)
    lam_mn, lam_mx, mu_mn, mu_mx = m.lame_bounds()
    phi = np.linspace(-4, 4, 101)
    c = m.coefficients(phi)
    lam, mu = c.lam, c.mu
    assert (lam >= lam_mn - 1e-12).all() and (lam <= lam_mx + 1e-12).all()
    assert (mu >= mu_mn - 1e-12).all() and (mu <= mu_mx + 1e-12).all()


def test_blend_derivative_is_zero_without_warning_where_cosh_overflows():
    """cosh overflows beyond |phi| ~ 710, as a diverging attempt's phase
    can: the blend derivative is exactly 0 there, with no overflow
    warning, and every phase-derivative law stays finite: the two
    methods with a deriv argument and the seven blend laws' _d fields."""
    m = make_material()
    phi = np.array([-800.0, 800.0])
    laws = [name for name, f in inspect.getmembers(m, inspect.ismethod)
            if "deriv" in inspect.signature(f).parameters]
    assert laws == ["mobility", "permeability"] and len(m._blend_laws()) == 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_blend_d(phi), [0.0, 0.0])
        for name in laws:
            assert np.all(np.isfinite(getattr(m, name)(phi, deriv=1))), name
        c = m.coefficients(phi)
        for name in m._blend_laws():
            assert np.all(np.isfinite(getattr(c, name + "_d"))), name


@pytest.mark.parametrize("swap", [False, True])
def test_coefficient_pass_equals_every_law_bit_for_bit(swap):
    """MaterialModel.coefficients makes one blend pass and one blend
    derivative pass; each field equals its law written out in conftest
    (and each _d field the law's deriv = 1 value) in every bit, at
    phi = +-800, where cosh overflows, with no warning, at exact zeros and
    at ordinary values.  swap exchanges the two phase endpoints, so every
    swing changes sign."""
    m = make_material(lam_nu_a=0.7, M1=-0.3, tau0=0.02)
    if swap:
        m = make_material(lam_a=2.0, lam_b=1.0, mu_a=2.0, mu_b=1.0, lam_nu_a=1.5,
                          lam_nu_b=1.0, mu_nu_a=1.5, mu_nu_b=1.0, a1=-0.2, tau1=-0.1)
    rng = np.random.default_rng(31)
    phi = np.concatenate([[-800.0, 800.0, 0.0, -0.0, 30.0, -30.0],
                          3.0 * rng.standard_normal(50)])
    pairs = [(lame, ("lam", "mu")), (lame_visco, ("lam_nu", "mu_nu")), (tau, ("tau",)),
             (biot_alpha, ("alpha",)), (biot_modulus, ("modulus",))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = m.coefficients(phi)
        for law, names in pairs:
            for deriv, suffix in ((0, ""), (1, "_d")):
                values = law(m, phi, deriv=deriv)
                values = values if len(names) == 2 else (values,)
                for name, want in zip(names, values):
                    got = getattr(c, name + suffix)
                    assert got.tobytes() == want.tobytes(), (law.__name__, deriv, name)
        for law in (mobility, permeability):
            assert getattr(c, law.__name__).tobytes() == law(m, phi).tobytes(), law.__name__
    assert np.array_equal(c.lam_d[:2], [0.0, 0.0]) and np.array_equal(c.modulus_d[:2], [0.0, 0.0])
