"""One benchmark round: a user run of chbsim in this process, then its checks.

    python3 bench/worker.py SPEC_JSON RESULT_JSON

bench/run_bench.py writes the spec and starts this script in a fresh
process.  The run goes through the public entry point ``chbsim.cli.main``.
Two thin probes, wrapped around ``initial_state`` and ``picard_window``
from outside the program, mark the end of set-up, time each window and
keep what the checks need (per-window weighted means, finiteness, the
last two states).  With ``trace`` set, bench/tracer.py wraps every layer
first and the probes sit on top of it.

The checks are made apart from the program wherever possible: their
trapezoid weights and their Gaussian source are built here, not taken
from chbsim.  Only the momentum residual calls ``pde_residual``, which
evaluates the stress matrix-free.  The result file holds the timings,
the window counts, the check failures and the SHA-256 of
diagnostics.csv.
"""

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

MEAN_DRIFT_TOL = 1e-9        # weighted-mean drift of phi and theta
MOMENTUM_TOL = 1e-10          # weak momentum residual of the final state


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def trapezoid_weights(nx, ny, lx, ly):
    hx, hy = lx / (nx - 1), ly / (ny - 1)
    tx = np.ones(nx)
    tx[[0, -1]] = 0.5
    ty = np.ones(ny)
    ty[[0, -1]] = 0.5
    return hx * hy * np.outer(ty, tx).ravel()


class Probe:
    """Marks the end of set-up, times windows and keeps check data."""

    def __init__(self, weights):
        self.w = weights
        self.ready = None
        self.cpu_ready = None
        self.window_s = []
        self.attempted = 0
        self.failed = 0
        self.rows = []          # (t, mean phi, mean theta, all finite)
        self.prev = None
        self.last = None

    def _record(self, state):
        w = self.w
        fields = (state.phi, state.theta, state.u.ux, state.u.uy)
        finite = all(bool(np.isfinite(f).all()) for f in fields)
        self.rows.append((state.t, float(w @ state.phi) / w.sum(),
                          float(w @ state.theta) / w.sum(), finite))
        self.prev, self.last = self.last, state

    def install(self, stepper):
        from tracer import replace_everywhere
        initial_state, picard_window = stepper.initial_state, stepper.picard_window

        def probed_initial_state(*args, **kwargs):
            state = initial_state(*args, **kwargs)
            self.ready = time.monotonic()
            self.cpu_ready = _cpu_s()
            self._record(state)
            return state

        def probed_picard_window(*args, **kwargs):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = picard_window(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            self.window_s.append(time.perf_counter() - t0)
            self._record(result[0])
            return result

        replace_everywhere(initial_state, probed_initial_state)
        replace_everywhere(picard_window, probed_picard_window)


def check_round(chk, probe, code, out_dir, config_text):
    """Failure messages of one round (empty when every check passes)."""
    fails = []
    if code != 0 or probe.failed or probe.attempted < 1:
        fails.append(f"cli exit code {code}, {probe.failed} of "
                     f"{probe.attempted} windows failed")
        return fails
    t_final = probe.last.t
    if abs(t_final - chk["t_end"]) > 1e-12 * max(1.0, chk["t_end"]):
        fails.append(f"final time {t_final!r} != t_end {chk['t_end']!r}")
    if not all(row[3] for row in probe.rows):
        fails.append("non-finite field values")

    t = np.array([row[0] for row in probe.rows])
    mean_phi = np.array([row[1] for row in probe.rows])
    mean_theta = np.array([row[2] for row in probe.rows])
    drift_phi = float(np.max(np.abs(mean_phi - mean_phi[0])))
    if not drift_phi <= MEAN_DRIFT_TOL:
        fails.append(f"mean(phi) drift {drift_phi:.2e} > {MEAN_DRIFT_TOL:g}")
    expected = np.zeros_like(t)
    src = chk["source"]
    if src is not None:
        w = probe.w
        x = np.tile(np.linspace(0.0, chk["lx"], chk["nx"]), chk["ny"])
        y = np.repeat(np.linspace(0.0, chk["ly"], chk["ny"]), chk["nx"])
        s = src["amplitude"] * np.exp(
            -((x - src["x0"]) ** 2 + (y - src["y0"]) ** 2) / (2.0 * src["width"] ** 2))
        mean_s = float(w @ s) / w.sum()
        expected = np.concatenate([[0.0], np.cumsum(np.diff(t))]) * mean_s
    err_theta = float(np.max(np.abs(mean_theta - mean_theta[0] - expected)))
    if not err_theta <= MEAN_DRIFT_TOL:
        fails.append(f"mean(theta) off its source balance by {err_theta:.2e} "
                     f"> {MEAN_DRIFT_TOL:g}")

    with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != probe.attempted + 1:
        fails.append(f"diagnostics.csv has {len(rows)} rows for "
                     f"{probe.attempted} windows")
    if src is None:
        e_total = [float(r[header.index("E_total")]) for r in rows]
        # the per-window allowance of acceptance criterion 06
        tol_e = 10.0 * (chk["tol_picard"] + chk["dt"] ** 2 * max(1.0, max(map(abs, e_total))))
        rise = max(b - a for a, b in zip(e_total, e_total[1:]))
        if not rise <= tol_e:
            fails.append(f"E_total rose by {rise:.2e} in one window > {tol_e:.2e}")

    windows = probe.attempted
    n_snap = 1 + windows // chk["stride"] + (1 if windows % chk["stride"] else 0)
    snaps = [f for f in os.listdir(out_dir) if f.startswith("snapshot_")]
    if len(snaps) != n_snap:
        fails.append(f"{len(snaps)} snapshots written, {n_snap} expected")

    if chk["rho"] == 0:
        from chbsim.config import parse_config
        from chbsim.diagnostics import pde_residual
        cfg = parse_config(config_text)
        res = pde_residual(cfg.grid(), cfg.material(), probe.prev, probe.last,
                           cfg.sources())["mechanics"]
        if not res <= MOMENTUM_TOL:
            fails.append(f"final momentum residual {res:.2e} > {MOMENTUM_TOL:g}")
    return fails


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import chbsim.cli as cli
    import chbsim.stepper as stepper

    chk = spec["checks"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = Probe(trapezoid_weights(chk["nx"], chk["ny"], chk["lx"], chk["ly"]))
    probe.install(stepper)

    out_dir = spec["out_dir"]
    code = cli.main(["--config", spec["config"], "--out", out_dir])
    t_done = time.monotonic()
    cpu_done = _cpu_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe.ready is None:
        raise RuntimeError("the run never built its initial state")
    layers = None
    if tracer is not None:
        # taken before the checks, whose pde_residual call goes through
        # traced callables and is not part of the run
        output_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                           for f in os.listdir(out_dir)
                           if f.endswith((".csv", ".vtk")))
        layers = tracer.metrics(output_bytes)
        tracer.write_spans(spec["spans_path"])

    with open(spec["config"]) as fh:
        config_text = fh.read()
    failures = check_round(chk, probe, code, out_dir, config_text)
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    with open(csv_path, "rb") as fh:
        csv_sha256 = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "traced": bool(tracer),
        "ready": probe.ready,
        "run_s": t_done - probe.ready,
        "cpu_s": cpu_done - probe.cpu_ready,
        "peak_rss_mb": peak_rss_mb,
        "window_s": probe.window_s,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "failures": failures,
        "csv_sha256": csv_sha256,
    }
    if layers is not None:
        result["layers"] = {k: v for k, (v, _) in layers.items()}
        result["layers_units"] = {k: u for k, (_, u) in layers.items()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
