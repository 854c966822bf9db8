"""Material laws: coefficient families, double-well, elastic energy density.

All coefficient families are smooth in the phase variable and uniformly
bounded away from degeneracy for every real argument (not only in
[-1, 1]), so the elliptic operators built from them stay uniformly
coercive no matter where an iterate wanders:

  mobility      m(phi)  = m0 + m1 * phi^2                (m0 > 0, m1 >= 0)
  permeability  k(phi)  = k0 + k1 * phi^2                (k0 > 0, k1 >= 0)
  Biot modulus  M(phi)  = M0 + M1 * s(phi)
  Biot coupling alpha(phi) = a0 + a1 * s(phi)
  eigenstrain   T(phi)  = tau(phi) * I,  tau = tau0 + tau1 * s(phi)
  stiffness     C(phi)E = 2 mu(phi) E + lam(phi) tr(E) I, Lame parameters
                interpolated between the two phase endpoints through s

with the smooth bounded blend s(phi) = (1 + tanh(phi)) / 2.

The elastic energy density is

  W(phi, E) = C(phi)(E - T(phi)) : (E - T(phi))
            = 2 mu |E - T|^2 + lam tr(E - T)^2,

its strain derivative is W_E = 2 C(phi)(E - T), and its phase derivative

  W_phi = 2 mu' |E - T|^2 + lam' tr(E - T)^2
          - 2 tau' (2 mu + 2 lam) tr(E - T),

which obeys the quadratic growth bound |W_phi| <= C2 (|E|^2 + phi^2 + 1)
with the computable constant returned by growth_constant().

MaterialModel.coefficients(phi) evaluates every blend law and its
phi-derivative in one pass, with one tanh and one cosh sweep over phi
(mobility and permeability on their first read), and returns them as a
Coefficients, whose methods evaluate W, its derivatives and the pressure
from them.  It is the only reader of the blend laws: a caller that needs
any of them at a phase field reads one pass.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np


def _blend(phi):
    return 0.5 * (1.0 + np.tanh(phi))


def _blend_d(phi):
    # cosh overflows to inf beyond |phi| ~ 710, where the derivative is 0
    with np.errstate(over="ignore"):
        return 0.5 / np.cosh(phi) ** 2


class Coefficients:
    """The coefficient fields of one phase field phi, as attributes
    (MaterialModel.coefficients): each blend law's field (lam, mu, lam_nu,
    mu_nu, tau, alpha, modulus; see MaterialModel._blend_laws) and,
    suffixed _d, its phi-derivative, from one _blend and one _blend_d
    sweep; and mobility and permeability, built on first read, so that a
    reader of the Biot laws alone (a snapshot's pressure) does not square
    a diverging phi.  Its methods evaluate the elastic energy density laws
    and the pressure."""

    def __init__(self, material, phi):
        self.material = material
        self.phi = np.asarray(phi, dtype=float)
        s, s_d = _blend(self.phi), _blend_d(self.phi)
        for name, (base, swing) in material._blend_laws().items():
            setattr(self, name, base + swing * s)
            setattr(self, name + "_d", swing * s_d)

    @functools.cached_property
    def mobility(self):
        return self.material.mobility(self.phi)

    @functools.cached_property
    def permeability(self):
        return self.material.permeability(self.phi)

    def content_split(self, theta, div_u):
        """(zeta, p): the fluid content net of the volumetric strain,
        zeta = theta - alpha(phi) div u, and the pressure p = M(phi) zeta."""
        zeta = theta - self.alpha * div_u
        return zeta, self.modulus * zeta

    def elastic_density_W(self, exx, eyy, exy):
        """W(phi, E) = C(phi)(E - T) : (E - T), componentwise over arrays."""
        dxx, dyy = exx - self.tau, eyy - self.tau
        tr = dxx + dyy
        norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
        return 2.0 * self.mu * norm2 + self.lam * tr**2

    def elastic_density_derivatives(self, exx, eyy, exy):
        """Return (W_E components (xx, yy, xy), W_phi).

        W_E = 2 C(phi)(E - T); W_phi collects the phase derivatives of the
        stiffness and the eigenstrain.
        """
        lam, mu = self.lam, self.mu
        dxx, dyy = exx - self.tau, eyy - self.tau
        tr = dxx + dyy
        norm2 = dxx**2 + dyy**2 + 2.0 * exy**2
        w_exx = 2.0 * (2.0 * mu * dxx + lam * tr)
        w_eyy = 2.0 * (2.0 * mu * dyy + lam * tr)
        w_exy = 2.0 * (2.0 * mu * exy)
        w_phi = (2.0 * self.mu_d * norm2 + self.lam_d * tr**2
                 - 2.0 * self.tau_d * (2.0 * mu + 2.0 * lam) * tr)
        return w_exx, w_eyy, w_exy, w_phi


@dataclass(frozen=True)
class MaterialModel:
    """Parameter bundle for one simulation; validates on construction."""

    eps: float = 0.1            # interface width
    rho: int = 0                # 0 = quasi-static elasticity, 1 = visco-elastic
    m0: float = 1.0             # mobility floor
    m1: float = 0.0
    k0: float = 1.0             # permeability floor
    k1: float = 0.0
    M0: float = 1.0             # Biot modulus at s = 0
    M1: float = 0.0             # Biot modulus swing
    a0: float = 0.0             # Biot coupling at s = 0
    a1: float = 0.0
    psi_scale: float = 1.0      # double-well height
    lam_a: float = 1.0          # Lame lambda at the two phase endpoints
    lam_b: float = 1.0
    mu_a: float = 1.0           # Lame mu at the two phase endpoints
    mu_b: float = 1.0
    lam_nu_a: float = 1.0       # visco Lame parameters (used when rho = 1)
    lam_nu_b: float = 1.0
    mu_nu_a: float = 1.0
    mu_nu_b: float = 1.0
    tau0: float = 0.0           # eigenstrain tau(phi) = tau0 + tau1 * s(phi)
    tau1: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.eps <= 0:
            raise ValueError("interface width must be positive (eps > 0)")
        if self.rho not in (0, 1):
            raise ValueError("regime flag must be 0 (elastic) or 1 (visco-elastic)")
        if self.m0 <= 0 or self.m1 < 0:
            raise ValueError("mobility must be positive (m0 > 0, m1 >= 0)")
        if self.k0 <= 0 or self.k1 < 0:
            raise ValueError("permeability must be positive (k0 > 0, k1 >= 0)")
        if self.M0 <= 0 or self.M0 + self.M1 <= 0:
            raise ValueError("Biot modulus must be positive at both phase endpoints")
        if self.psi_scale <= 0:
            raise ValueError("double-well height must be positive (psi_scale > 0)")
        if self.mu_a <= 0 or self.mu_b <= 0:
            raise ValueError("shear modulus must be positive at both phase endpoints")
        if self.lam_a < 0 or self.lam_b < 0:
            raise ValueError("first Lame parameter must be nonnegative at both endpoints")
        if self.rho == 1:
            if self.mu_nu_a <= 0 or self.mu_nu_b <= 0:
                raise ValueError("visco shear modulus must be positive at both endpoints")
            if self.lam_nu_a < 0 or self.lam_nu_b < 0:
                raise ValueError("visco first Lame parameter must be nonnegative")

    # --- scalar coefficient families -------------------------------------

    def mobility(self, phi, deriv=0):
        phi = np.asarray(phi, dtype=float)
        if deriv == 0:
            return self.m0 + self.m1 * phi**2
        if deriv == 1:
            return 2.0 * self.m1 * phi
        raise ValueError("deriv must be 0 or 1")

    def permeability(self, phi, deriv=0):
        phi = np.asarray(phi, dtype=float)
        if deriv == 0:
            return self.k0 + self.k1 * phi**2
        if deriv == 1:
            return 2.0 * self.k1 * phi
        raise ValueError("deriv must be 0 or 1")

    # --- double well ------------------------------------------------------

    def psi(self, phi):
        phi = np.asarray(phi, dtype=float)
        return self.psi_scale * (1.0 - phi**2) ** 2

    def psi_d(self, phi):
        phi = np.asarray(phi, dtype=float)
        return -4.0 * self.psi_scale * phi * (1.0 - phi**2)

    def psi_dd(self, phi):
        phi = np.asarray(phi, dtype=float)
        return 4.0 * self.psi_scale * (3.0 * phi**2 - 1.0)

    # --- Lame interpolations ---------------------------------------------

    def lame_bounds(self):
        """(lam_min, lam_max, mu_min, mu_max) over all real phi."""
        return (min(self.lam_a, self.lam_b), max(self.lam_a, self.lam_b),
                min(self.mu_a, self.mu_b), max(self.mu_a, self.mu_b))

    # --- one pass over a phase field --------------------------------------

    def _blend_laws(self):
        """(base, swing) of each coefficient linear in the blend, by its
        Coefficients name: the coefficient is base + swing * s(phi)."""
        return {"lam": (self.lam_a, self.lam_b - self.lam_a),
                "mu": (self.mu_a, self.mu_b - self.mu_a),
                "lam_nu": (self.lam_nu_a, self.lam_nu_b - self.lam_nu_a),
                "mu_nu": (self.mu_nu_a, self.mu_nu_b - self.mu_nu_a),
                "tau": (self.tau0, self.tau1),
                "alpha": (self.a0, self.a1),
                "modulus": (self.M0, self.M1)}

    def coefficients(self, phi):
        """The Coefficients of phase phi: every phase-dependent coefficient
        and the phi-derivative of each blend law, from one _blend and one
        _blend_d sweep."""
        return Coefficients(self, phi)

    def growth_constant(self):
        """A constant C2 with |W_phi| <= C2 (|E|^2 + phi^2 + 1) for all inputs."""
        lam_mn, lam_mx, mu_mn, mu_mx = self.lame_bounds()
        dlam = 0.5 * abs(self.lam_b - self.lam_a)   # sup |lam'|, since |s'| <= 1/2
        dmu = 0.5 * abs(self.mu_b - self.mu_a)
        dtau = 0.5 * abs(self.tau1)
        tau_mx = abs(self.tau0) + abs(self.tau1)
        # |W_phi| <= A |E-T|^2 + B |E-T| with the constants below
        # (tr(X)^2 <= 2|X|^2 and |tr X| <= sqrt(2) |X| in 2D)
        a_c = 2.0 * dmu + 2.0 * dlam
        b_c = 2.0 * np.sqrt(2.0) * dtau * (2.0 * mu_mx + 2.0 * lam_mx)
        # |E-T|^2 <= 2|E|^2 + 4 tau_max^2 and |x| <= (x^2 + 1)/2
        coef = a_c + 0.5 * b_c
        return float(max(2.0 * coef, 4.0 * tau_mx**2 * coef + 0.5 * b_c) + 1e-12)
