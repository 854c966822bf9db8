"""Command-line driver: parse a config, run the simulation, write outputs.

Outputs per run: ``diagnostics.csv`` (one row per accepted window plus
the initial state), VTK legacy ASCII STRUCTURED_POINTS snapshots every
``output.stride`` windows, and ``config.echo`` with the resolved
configuration.  Runs are single-threaded and byte-deterministic for a
fixed config.

Snapshot values read exactly as ``"%.12e"`` writes them: array arithmetic
with a bounded error, and ``%`` for a value too near a rounding tie for the
bound to decide (``TIE_MARGIN``).  A snapshot appears whole or not at all.
"""

import argparse
import functools
import os
import sys

import numpy as np

from .config import parse_config, serialize, ConfigError
from .diagnostics import DiagnosticsRow, diagnostics_row, convergence_study
from .elliptic import SolverFailure
from .grid import divergence
from .rhs import pressure
from .stepper import StepFailure, initial_state, run_simulation


# format_e12 takes a value's 13 significant digits as m = rint(y), with
# y = |x| * 10**(12 - e) in [1e12, 1e13).  y is rounded twice, in the power
# of ten and in the product, each by a relative 2**-53 at most, so it is off
# its exact value by less than (2**-52 + 2**-106) * 1e13 < 2.3e-3.  So where
# |y - m| <= 0.5 - TIE_MARGIN, m is the exact value's nearest integer, the
# correctly rounded digits; a value nearer a tie is formatted by Python.
TIE_MARGIN = 3e-3


@functools.cache
def _e12_tables():
    r"""Words of 4 ASCII bytes (NUL for none) that spell the parts of a row,
    "[-]d.d" | "dddd" (twice) | "ddde" | the exponent's "+dd\n" or "-dd\n",
    and the correctly rounded powers of ten 1e-87 ... 1e111."""
    def words(*columns):
        return (np.stack(np.broadcast_arrays(*columns), -1).astype(np.uint8)
                .view(np.uint32)[..., 0])

    k, exp = np.arange(10000), np.arange(-99, 100)
    d = [48 + k // place % 10 for place in (1000, 100, 10, 1)]
    sign = np.where(exp < 0, ord("-"), ord("+"))
    return (words(np.where(k < 100, 0, ord("-")), d[2], ord("."), d[3])[:200], words(*d),
            words(*d[1:], ord("e"))[:1000],
            words(sign, d[2][abs(exp)], d[3][abs(exp)], ord("\n")),
            np.array([float(f"1e{p}") for p in range(-87, 112)]))


def _by_percent(values):
    r"""Rows of ``"%.12e\n" % v`` for each value, padded with NULs to 24 bytes."""
    return np.frombuffer(b"".join((b"%.12e\n" % v).ljust(24, b"\0") for v in values.tolist()),
                         np.uint8).reshape(-1, 24)


def format_e12(blocks):
    r"""``("%.12e\n" * n) % tuple(row)`` for each row of a 2-D array, from array
    arithmetic (see TIE_MARGIN); values near a tie, non-finite values and
    three-digit exponents are formatted by ``%`` itself (``_by_percent``)."""
    lead, quad, tail, expo, pow10 = _e12_tables()
    x = np.asarray(blocks, dtype=np.float64).ravel()
    a = np.where(np.isfinite(x) & (x != 0), np.abs(x), 1.0)
    e = np.clip(np.floor(np.log10(a)), -99, 99).astype(np.int64)
    y = a * pow10[99 - e]
    e = np.clip(e + (y >= 1e13) - (y < 1e12), -99, 99)   # log10 may miss by one
    y = a * pow10[99 - e]
    m = np.rint(y)
    doubtful = ~np.isfinite(x) | (np.abs(y - m) > 0.5 - TIE_MARGIN) | (y < 1e12) | (y >= 1e13)
    e += m == 1e13   # 9.9999999999996 rounds to 1.000000000000 of the next decade
    m[m == 1e13] = 1e12
    doubtful |= e > 99
    hi, lo = np.divmod(np.where(doubtful | (x == 0), 0, m).astype(np.int64), 10**7)
    rows = np.stack([lead[100 * np.signbit(x) + hi // 10**4], quad[hi % 10**4],
                     quad[lo // 1000], tail[lo % 1000], expo[np.minimum(e, 99) + 99],
                     np.zeros_like(lo, np.uint32)], axis=1).view(np.uint8)
    rows[doubtful] = _by_percent(x[doubtful])
    return [row.tobytes().translate(None, b"\0").decode("ascii")
            for row in rows.reshape(len(blocks), -1)]


def write_vtk_snapshot(path, grid, material, state):
    """Write one STRUCTURED_POINTS file with phi, theta, p, |u|, u_x, u_y.

    Every value reads exactly as ``"%.12e"`` writes it (``format_e12``).  The text
    goes to a temporary file that is renamed to ``path``: no partial snapshot."""
    p = pressure(material, state.phi, state.theta, divergence(state.u))
    fields = [state.phi, state.theta, p, np.hypot(state.u.ux, state.u.uy),
              state.u.ux, state.u.uy]
    text = (f"# vtk DataFile Version 3.0\nchbsim snapshot t={state.t:.12e}\nASCII\n"
            f"DATASET STRUCTURED_POINTS\nDIMENSIONS {grid.nx} {grid.ny} 1\nORIGIN 0 0 0\n"
            f"SPACING {grid.hx:.12e} {grid.hy:.12e} 1\nPOINT_DATA {grid.n_nodes}\n") + "".join(
        f"SCALARS {name} double 1\nLOOKUP_TABLE default\n{values}" for name, values
        in zip(["phi", "theta", "p", "u_mag", "u_x", "u_y"], format_e12(fields)))
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise RuntimeError(f"failed to write snapshot '{path}': {exc}")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
