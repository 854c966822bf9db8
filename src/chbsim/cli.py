"""Command-line driver: parse a config, run the simulation, write outputs.

Outputs per run: ``diagnostics.csv`` (one row per accepted window plus
the initial state), VTK legacy ASCII STRUCTURED_POINTS snapshots every
``output.stride`` windows, and ``config.echo`` with the resolved
configuration.  Runs are single-threaded and byte-deterministic for a
fixed config.
"""

import argparse
import os
import sys

import numpy as np

from .config import parse_config, serialize, ConfigError
from .diagnostics import DiagnosticsRow, diagnostics_row, convergence_study
from .elliptic import SolverFailure
from .grid import divergence
from .rhs import pressure
from .stepper import StepFailure, initial_state, run_simulation


def write_vtk_snapshot(path, grid, material, state):
    """Write one STRUCTURED_POINTS file with phi, theta, p, |u|, u_x, u_y."""
    p = pressure(material, state.phi, state.theta, divergence(state.u))
    u_mag = np.hypot(state.u.ux, state.u.uy)
    fields = [("phi", state.phi), ("theta", state.theta), ("p", p),
              ("u_mag", u_mag), ("u_x", state.u.ux), ("u_y", state.u.uy)]
    chunks = [
        "# vtk DataFile Version 3.0\n",
        f"chbsim snapshot t={state.t:.12e}\n",
        "ASCII\n",
        "DATASET STRUCTURED_POINTS\n",
        f"DIMENSIONS {grid.nx} {grid.ny} 1\n",
        "ORIGIN 0 0 0\n",
        f"SPACING {grid.hx:.12e} {grid.hy:.12e} 1\n",
        f"POINT_DATA {grid.n_nodes}\n",
    ]
    for name, data in fields:
        values = np.asarray(data).ravel().tolist()
        chunks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        # one %-format of the whole field: the same digits as f"{v:.12e}"
        chunks.append(("%.12e\n" * len(values)) % tuple(values))
    try:
        with open(path, "w") as fh:
            fh.write("".join(chunks))
    except OSError as exc:
        raise RuntimeError(f"failed to write snapshot '{path}': {exc}")


def write_outputs_init(out_dir, cfg):
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.echo"), "w") as fh:
            fh.write(serialize(cfg))
    except OSError as exc:
        raise RuntimeError(f"failed to prepare output directory '{out_dir}': {exc}")


def run_from_config(cfg, out_dir):
    """Execute one simulation; returns 0 on completed run, 1 on failure."""
    grid = cfg.grid()
    material = cfg.material()
    stepper_cfg = cfg.stepper()
    phi0, theta0 = cfg.initial_fields(grid)
    sources = cfg.sources()
    stride = cfg["output.stride"]
    write_outputs_init(out_dir, cfg)

    state = initial_state(grid, material, phi0, theta0, sources)

    # rows and snapshots are written as windows are accepted, so a killed
    # run keeps every window it completed
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    window = 0

    def snapshot(idx, st):
        write_vtk_snapshot(os.path.join(out_dir, f"snapshot_{idx:05d}.vtk"),
                           grid, material, st)

    try:
        with open(csv_path, "w") as csv:
            def append(row):
                csv.write(row + "\n")
                csv.flush()

            def observer(st, rep):
                nonlocal window
                window += 1
                append(diagnostics_row(grid, material, st, rep).as_csv())
                if window % stride == 0:
                    snapshot(window, st)

            append(DiagnosticsRow.HEADER)
            append(diagnostics_row(grid, material, state).as_csv())
            snapshot(0, state)
            try:
                state = run_simulation(grid, material, stepper_cfg, state, sources,
                                       observer=observer)
            except (StepFailure, SolverFailure) as exc:
                print(f"run failed at window {window + 1}: {exc}", file=sys.stderr)
                for k, a in enumerate(getattr(exc, "attempts", []), start=1):
                    last = f"{a.residuals[-1]:.3e}" if a.residuals else "none"
                    error = "" if a.error is None else f", error: {a.error}"
                    print(f"  attempt {k}: dt = {a.dt:.6g}, {len(a.residuals)} iterates, "
                          f"last residual {last}{error}", file=sys.stderr)
                return 1
    except OSError as exc:
        raise RuntimeError(f"failed to write '{csv_path}': {exc}")
    if window % stride != 0:
        snapshot(window, state)
    return 0


def run_oracle(cfg):
    """Small-grid operator identity report; returns 0 iff all checks pass."""
    from .biot import BiotContext
    from .grid import Grid
    from .oracle import verify_operator_identities, fluid_operator_spectrum

    material = cfg.material()
    grid_small = Grid(8, 8, cfg["grid.lx"], cfg["grid.ly"],
                      {e: cfg[f"grid.{e}"]
                       for e in ("left", "right", "bottom", "top")})
    rng = np.random.default_rng(cfg["init.seed"])
    phi = np.tanh(rng.standard_normal(grid_small.n_nodes))
    ctx = BiotContext(grid_small, material, phi)
    report = verify_operator_identities(ctx)
    for key in sorted(report):
        print(f"{key:24s} {report[key]:.3e}")
    eigs, residue, flagged, beta = fluid_operator_spectrum(ctx)
    print(f"{'fluid_eig_min':24s} {eigs.min():.3e}")
    print(f"{'fluid_sym_residue':24s} {residue:.3e}")
    print(f"{'fluid_beta':24s} {beta:.3e}")
    ok = (report["ab_defect"] < 1e-7 and report["ba_defect"] < 1e-7
          and report["b_symmetry_defect"] < 1e-9
          and report["a_symmetry_defect"] < 1e-9
          and report["b_eig_min"] > 0 and report["a_eig_min"] > 0
          and not flagged)
    print("oracle:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def run_mms():
    """Convergence-order studies; returns 0 iff observed orders pass."""
    heat = convergence_study("heat")
    elast = convergence_study("elasticity")
    coupled = convergence_study("coupled")
    print(f"heat: time order {heat['time_order']:.2f}, "
          f"space order {heat['space_order']:.2f}")
    print(f"elasticity: space order {elast['space_order']:.2f}")
    for regime, fields in coupled["orders"].items():
        print(f"coupled {regime}: time order " + ", ".join(
            f"{field} {min(orders):.2f}" for field, orders in fields.items()))
    ok = (heat["time_order"] > 0.9 and heat["space_order"] > 1.8
          and elast["space_order"] > 1.8 and coupled["time_order"] >= 0.9)
    print("mms:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chbsim",
        description="Phase-field poro-visco-elasticity simulator (2D grid).")
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None,
                        help="output directory (default: output.dir from config)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--oracle", action="store_true",
                        help="run the operator-identity checks and exit")
    parser.add_argument("--mms", action="store_true",
                        help="run the convergence studies and exit")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config '{args.config}': {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, overrides=args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.mms:
        return run_mms()
    if args.oracle:
        return run_oracle(cfg)

    out_dir = args.out if args.out is not None else cfg["output.dir"]
    try:
        return run_from_config(cfg, out_dir)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
