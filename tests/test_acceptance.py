"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single "[criterion NN] ... -> PASS" line on success;
the assert carries the same pinned tolerance.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from chbsim.biot import BiotContext
from chbsim.diagnostics import (diagnostics_row, elasticity_mms,
                                energy_tolerance, total_energy)
from chbsim.elliptic import EllipticProblem, solve_elasticity
from chbsim.materials import MaterialModel
from chbsim.oracle import fluid_operator_spectrum, verify_operator_identities
from chbsim.rhs import SourceSpec
from chbsim.stepper import PRESSURE_FORM, Run, StepperConfig, initial_state, picard_window
from conftest import (FULL_DIRICHLET, MIXED, coefficient_law, decoupled_material,
                      dense_reference_stiffness, make_grid, make_material, run_trajectory,
                      smooth_phi)


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {detail} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {detail}"


# --- shared dense-operator reports (criteria 1-3) -------------------------


@pytest.fixture(scope="module")
def operator_reports():
    g = make_grid(8, tags=MIXED)
    m = make_material()
    rng = np.random.default_rng(2024)
    reports = []
    t0 = time.time()
    for _ in range(10):
        ctx = BiotContext(g, m, smooth_phi(g, rng))
        reports.append(verify_operator_identities(ctx))
    return reports, time.time() - t0


def test_criterion_01_operator_conjugacy(operator_reports):
    reports, elapsed = operator_reports
    worst = max(max(r["ab_defect"], r["ba_defect"]) for r in reports)
    ok = worst <= 1e-7 and elapsed <= 30.0
    _report(1, "operator conjugacy", ok,
            f"10 random phases, max composition defect {worst:.2e} <= 1e-7, "
            f"runtime {elapsed:.1f}s <= 30s")


def test_criterion_02_spd_operators(operator_reports):
    reports, _ = operator_reports
    worst_sym = max(max(r["b_symmetry_defect"], r["a_symmetry_defect"])
                    for r in reports)
    min_eig = min(min(r["b_eig_min"], r["a_eig_min"]) for r in reports)
    ok = worst_sym <= 1e-9 and min_eig > 0.0
    _report(2, "content/pressure operators SPD", ok,
            f"max symmetry defect {worst_sym:.2e} <= 1e-9, "
            f"min eigenvalue {min_eig:.3e} > 0")


def test_criterion_03_norm_equivalence(operator_reports):
    reports, _ = operator_reports
    c = min(r["a_eig_min"] for r in reports)
    cc = max(r["a_eig_max"] for r in reports)
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(11)
    ctx0 = BiotContext(g, decoupled_material(), smooth_phi(g, rng))
    rep0 = verify_operator_identities(ctx0)
    decoupled_dev = max(abs(rep0["a_eig_min"] - 1.0), abs(rep0["a_eig_max"] - 1.0))
    ok = 0.0 < c <= cc and decoupled_dev <= 1e-10
    _report(3, "weighted-norm equivalence constants", ok,
            f"0 < c = {c:.4f} <= C = {cc:.4f}; decoupled case "
            f"|c - 1|, |C - 1| <= {decoupled_dev:.2e} <= 1e-10")


def test_criterion_04_h_dissipativity():
    g = make_grid(8, tags=MIXED)
    rng = np.random.default_rng(4)
    ctx = BiotContext(g, make_material(), smooth_phi(g, rng))
    _, residue, flagged, beta = fluid_operator_spectrum(ctx)
    ctx0 = BiotContext(g, decoupled_material(k1=0.0), smooth_phi(g, rng))
    _, _, _, beta0 = fluid_operator_spectrum(ctx0)
    ok = (not flagged) and residue <= 1e-8 and np.isfinite(beta) \
        and beta0 <= 1e-10
    _report(4, "weighted symmetrization of the fluid generator", ok,
            f"spectrum real to {residue:.2e} <= 1e-8, measured beta "
            f"{beta:.2e} finite; decoupled beta {beta0:.2e} <= 1e-10")


# --- long runs shared by criteria 5 and 6 ---------------------------------


def _spinodal_material(rho):
    return MaterialModel(eps=0.35, rho=rho, m0=1.0, m1=0.5, k0=1.0, k1=0.5,
                         M0=1.0, M1=0.5, a0=0.5, a1=0.2, psi_scale=1.0,
                         lam_a=1.0, lam_b=2.0, mu_a=1.0, mu_b=2.0,
                         lam_nu_a=1.0, lam_nu_b=1.5, mu_nu_a=1.0,
                         mu_nu_b=1.5, tau0=0.0, tau1=0.05)


@pytest.fixture(scope="module")
def spinodal_runs():
    """200-window zero-source spinodal runs on 32x32, both regimes."""
    g = make_grid(32, tags=MIXED)
    out = {}
    for rho in (0, 1):
        m = _spinodal_material(rho)
        rng = np.random.default_rng(100 + rho)
        phi0 = 0.01 * rng.standard_normal(g.n_nodes)
        theta0 = np.zeros(g.n_nodes)
        cfg = StepperConfig(dt=1e-3, t_end=0.2, tol_picard=1e-6, tol_lin=1e-9)
        st = initial_state(g, m, phi0, theta0, SourceSpec())
        t0 = time.time()
        states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
        out[rho] = (g, m, cfg, states, reports, time.time() - t0)
    return out


def test_criterion_05_conservation(spinodal_runs):
    details = []
    ok = True
    for rho in (0, 1):
        g, m, cfg, states, reports, elapsed = spinodal_runs[rho]
        mean_phi0 = g.mean(states[0].phi)
        mean_th0 = g.mean(states[0].theta)
        drift_phi = max(abs(g.mean(s.phi) - mean_phi0) for s in states)
        drift_th = max(abs(g.mean(s.theta) - mean_th0) for s in states)
        ok = ok and len(states) - 1 == 200 and drift_phi <= 1e-9 \
            and drift_th <= 1e-9 and elapsed <= 120.0
        details.append(f"rho={rho}: drift(phi) {drift_phi:.1e}, "
                       f"drift(theta) {drift_th:.1e} <= 1e-9 over 200 "
                       f"windows in {elapsed:.0f}s <= 120s")
    _report(5, "zero-source mass conservation", ok, "; ".join(details))


def test_criterion_06_energy_dissipation(spinodal_runs):
    details = []
    ok = True
    total = 0.0
    for rho in (0, 1):
        g, m, cfg, states, reports, elapsed = spinodal_runs[rho]
        total += elapsed
        energies = [total_energy(g, m, s)[0] for s in states]
        tol_e = energy_tolerance(cfg.tol_picard, cfg.dt,
                                 max(abs(e) for e in energies))
        worst = max(energies[i + 1] - energies[i]
                    for i in range(len(energies) - 1))
        ok = ok and worst <= tol_e
        details.append(f"rho={rho}: max energy increase {worst:.2e} <= "
                       f"tol_E {tol_e:.2e}")
    ok = ok and total <= 300.0
    _report(6, "spinodal energy dissipation", ok,
            "; ".join(details) + f"; total runtime {total:.0f}s <= 300s")


def test_criterion_07_contraction_trend():
    g = make_grid(32, tags=MIXED)
    m = make_material(eps=0.3)
    wins = 0
    rho_small_max = 0.0
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        phi0 = 0.3 * smooth_phi(g, rng)
        theta0 = 0.1 * smooth_phi(g, rng)
        rhos = []
        for dt in (5e-3, 2.5e-3):
            st = initial_state(g, m, phi0, theta0, SourceSpec())
            cfg = StepperConfig(dt=dt, t_end=dt, tol_picard=1e-9,
                                max_picard=300)
            _, rep = picard_window(Run(g, m, cfg, st, SourceSpec()), cfg.dt, st)
            assert rep.shrinks == 0
            rhos.append(rep.rho)
        if rhos[1] < rhos[0]:
            wins += 1
        rho_small_max = max(rho_small_max, rhos[1])
    ok = wins >= 4 and rho_small_max < 1.0
    _report(7, "Picard contraction trend", ok,
            f"rho(dt/2) < rho(dt) in {wins}/5 trials (need >= 4); "
            f"max rho at dt=2.5e-3 is {rho_small_max:.3f} < 1")


def test_criterion_08_formulation_equivalence():
    g = make_grid(16, tags=MIXED)
    m = make_material(eps=0.25)
    rng = np.random.default_rng(88)
    phi0 = 0.3 * smooth_phi(g, rng)
    theta0 = 0.1 * smooth_phi(g, rng)
    finals = {}
    for form in ("theta", PRESSURE_FORM):
        st = initial_state(g, m, phi0, theta0, SourceSpec())
        cfg = StepperConfig(dt=1e-3, t_end=0.02, tol_picard=1e-10,
                            formulation=form)
        states, reports = run_trajectory(g, m, cfg, st, SourceSpec())
        assert len(reports) == 20
        finals[form] = states[-1]
    a, b = finals["theta"], finals[PRESSURE_FORM]
    gap = max(np.max(np.abs(a.phi - b.phi)), np.max(np.abs(a.theta - b.theta)),
              np.max(np.abs(a.u.ux - b.u.ux)), np.max(np.abs(a.u.uy - b.u.uy)))
    ok = gap <= 1e-6
    _report(8, "content vs pressure formulation", ok,
            f"max state gap over 20 windows {gap:.2e} <= 1e-6")


def test_criterion_09_elliptic_solver_contract():
    # (a) manufactured-solution order
    _, orders = elasticity_mms(ns=(16, 32, 64))
    order = float(np.mean(orders))
    # (b) dense-oracle agreement on 8x8
    g = make_grid(8)
    m = make_material()
    rng = np.random.default_rng(9)
    phi = smooth_phi(g, rng)
    prob = EllipticProblem(g, m, phi)
    n = g.n_nodes
    mat = dense_reference_stiffness(prob)
    free = np.tile(~g.dirichlet_mask(), 2)
    rhs = rng.standard_normal(2 * n)
    rhs[~free] = 0.0
    u, _ = solve_elasticity(prob, (rhs[:n], rhs[n:]))
    x = np.zeros(2 * n)
    sub = mat[np.ix_(free, free)]
    x[free] = scipy.linalg.solve(sub, rhs[free], assume_a="sym")
    dense_gap = np.max(np.abs(np.concatenate([u.ux, u.uy]) - x)) \
        / max(1.0, np.max(np.abs(x)))
    # (c) inverse-norm bracket over 20 random phases
    soft = EllipticProblem(g, m, np.full(n, -50.0))
    stiff = EllipticProblem(g, m, np.full(n, 50.0))

    def eig_range(problem):
        s = dense_reference_stiffness(problem)[np.ix_(free, free)]
        evals = scipy.linalg.eigvalsh(0.5 * (s + s.T))
        return evals[0], evals[-1]

    lo_min, _ = eig_range(soft)
    _, hi_max = eig_range(stiff)
    bracket_ok = True
    for _ in range(20):
        phi_r = smooth_phi(g, rng, amp=1.0)
        e_min, e_max = eig_range(EllipticProblem(g, m, phi_r))
        inv_norm = 1.0 / e_min
        bracket_ok = bracket_ok and \
            (1.0 / hi_max) * (1 - 1e-10) <= inv_norm <= (1.0 / lo_min) * (1 + 1e-10)
    ok = order >= 1.8 and dense_gap <= 1e-8 and bracket_ok
    _report(9, "elliptic solver contract", ok,
            f"MMS order {order:.2f} >= 1.8; dense-oracle gap "
            f"{dense_gap:.2e} <= 1e-8; inverse-norm bracket stable over "
            f"20 random phases: {bracket_ok}")


def test_criterion_10_stationary_fixed_points():
    details = []
    ok = True
    for rho in (0, 1):
        # fully clamped boundary so the uniform-content state is an exact
        # equilibrium even with nonzero Biot coupling
        g = make_grid(16, tags=FULL_DIRICHLET)
        m = make_material(rho=rho, m1=0.0, k1=0.0, M1=0.0, a1=0.0,
                          tau0=0.0, tau1=0.0, lam_a=1.0, lam_b=1.0,
                          mu_a=1.0, mu_b=1.0)
        phi = np.ones(g.n_nodes)
        theta = np.full(g.n_nodes, 0.5 if rho == 0 else 0.0)
        st = initial_state(g, m, phi, theta, SourceSpec())
        cfg = StepperConfig(dt=1e-3, t_end=0.1, tol_picard=1e-11)
        rows = [diagnostics_row(g, m, st)]
        _, reports = run_trajectory(
            g, m, cfg, st, SourceSpec(),
            observer=lambda s, r: rows.append(diagnostics_row(g, m, s, r)))
        assert len(reports) == 100
        drift = 0.0
        base = rows[0]
        for row in rows[1:]:
            drift = max(drift,
                        abs(row.e_total - base.e_total),
                        abs(row.e_interface - base.e_interface),
                        abs(row.e_elastic - base.e_elastic),
                        abs(row.e_fluid - base.e_fluid),
                        abs(row.mass_phi - base.mass_phi),
                        abs(row.mass_theta - base.mass_theta))
        ok = ok and drift <= 1e-8
        details.append(f"rho={rho}: max diagnostics drift {drift:.1e}")
    _report(10, "pure-phase equilibria preserved for 100 windows", ok,
            "; ".join(details) + " <= 1e-8")


def test_criterion_11_derivative_correctness():
    m = make_material()
    rng = np.random.default_rng(42)
    d = 1e-5
    worst = 0.0
    pts = rng.uniform(-1.8, 1.8, 40)
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
        ref = (fn(pts + d) - fn(pts - d)) / (2 * d)
        rel = np.max(np.abs(dfn(pts) - ref) / np.maximum(np.abs(ref), 1.0))
        worst = max(worst, rel)
    for _ in range(30):
        phi = rng.uniform(-1.5, 1.5)
        exx, eyy, exy = rng.uniform(-3, 3, 3)
        w_exx, w_eyy, w_exy, w_phi = m.coefficients(phi).elastic_density_derivatives(
            exx, eyy, exy)
        grads = [w_phi, w_exx, w_eyy, 2.0 * w_exy]
        args = np.array([phi, exx, eyy, exy])
        for i in range(4):
            hi, lo = args.copy(), args.copy()
            hi[i] += d
            lo[i] -= d
            fd = (m.coefficients(hi[0]).elastic_density_W(*hi[1:])
                  - m.coefficients(lo[0]).elastic_density_W(*lo[1:])) / (2 * d)
            rel = abs(grads[i] - fd) / max(abs(fd), 1.0)
            worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(11, "analytic derivatives vs central differences", ok,
            f"max relative deviation {worst:.2e} <= 1e-6")
