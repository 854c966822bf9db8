"""Benchmark of the chbsim Picard-window time loop.

Run from the root of a source checkout:

    python3 bench/run_bench.py --workload spinodal-qs-32 --seed 1 --seconds 20 --trace 0

The workload and the seed give one config file.  The benchmark runs that
config as a user would (``chbsim.cli.main``) in fresh single-threaded
worker processes, one after another, until ``--seconds`` have passed;
each worker run is one round.  Every round is checked (bench/worker.py),
and all rounds of one run must write byte-identical ``diagnostics.csv``.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <windows>, "failed": <failed windows>,
     "metrics": {name: {"value": ..., "unit": ...}}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no tracing.  With ``--trace 1`` untraced and traced rounds alternate;
the metrics are the per-layer ones of the traced rounds (bench/tracer.py)
and the tracing overhead.  Every metric is the median over rounds.
window_s is the median over rounds of a round's mean window time: the
median over single windows jumps by a whole Picard iterate (about 13 %)
between noise seeds whose windows mostly converge in 4 or in 5 iterates.
"""

import argparse
import ctypes
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Material of acceptance criteria 05/06 (tests/test_acceptance.py).
SPINODAL_MATERIAL = {
    "eps": 0.35, "m0": 1.0, "m1": 0.5, "k0": 1.0, "k1": 0.5,
    "modulus0": 1.0, "modulus1": 0.5, "a0": 0.5, "a1": 0.2, "psi_scale": 1.0,
    "lam_a": 1.0, "lam_b": 2.0, "mu_a": 1.0, "mu_b": 2.0,
    "lam_nu_a": 1.0, "lam_nu_b": 1.5, "mu_nu_a": 1.0, "mu_nu_b": 1.5,
    "tau0": 0.0, "tau1": 0.05,
}

# Mixed boundary tags of the acceptance suite, the stepper settings of
# criteria 05/06.
COMMON = {
    "grid.left": "dirichlet", "grid.right": "neumann",
    "grid.bottom": "dirichlet", "grid.top": "neumann",
    "stepper.dt": 1e-3, "stepper.tol_picard": 1e-6, "stepper.tol_lin": 1e-9,
}

SPARSE_OUTPUT = 1000   # output.stride: only the initial and final snapshots

# Each workload stresses other layers; see bench/README.md for the table
# of which layer metric should move which end-to-end metric where.
WORKLOADS = {
    # The acceptance spinodal run users know: per-iterate reconstruction
    # factors and the content saddle share its time; the only workload
    # whose output layer (a snapshot every window) does real work.
    "spinodal-qs-32": dict(rho=0, n=32, preset="spinodal-noise",
                           t_end=0.02, stride=1, source=False),
    # Kelvin-Voigt regime: rhs_visco refactors the u-dot problem every
    # iterate, and the visco content substep is the only CG solve.
    "spinodal-visco-32": dict(rho=1, n=32, preset="spinodal-noise",
                              t_end=0.02, stride=SPARSE_OUTPUT, source=False),
    # Grid growth: the content saddle factor dominates and memory grows;
    # the only source-driven run without retries.
    "source-qs-64": dict(rho=0, n=64, preset="interface",
                         t_end=0.004, stride=SPARSE_OUTPUT, source=True),
    # Picard fails to contract at dt = 1e-3 behind a sharp interface, so
    # windows shrink once: the only workload on the stepper's retry path.
    "retry-qs-32": dict(rho=0, n=32, preset="interface", eps=0.2,
                        t_end=0.004, stride=SPARSE_OUTPUT, source=True),
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "window_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB",
}

MIN_ROUNDS = 3          # rounds per run, whatever --seconds says
RUN_LIMIT_S = 170.0     # a run must end within 180 s


def make_config(name, seed, **changes):
    """Config text and check parameters of one workload and seed;
    `changes` replace entries of the workload (the grid sweep uses them)."""
    wl = dict(WORKLOADS[name], **changes)
    rng = random.Random(f"{name}:{seed}")
    values = dict(COMMON)
    values.update(SPINODAL_MATERIAL)
    values.update({
        "rho": wl["rho"], "grid.nx": wl["n"], "grid.ny": wl["n"],
        "stepper.t_end": wl["t_end"], "init.preset": wl["preset"],
        "output.stride": wl["stride"],
    })
    if "eps" in wl:
        values["eps"] = wl["eps"]
    if wl["preset"] == "spinodal-noise":
        values.update({"init.phi0": 0.0, "init.amplitude": 0.01,
                       "init.seed": seed % 2**32})
    source = None
    if wl["source"]:
        source = {"amplitude": round(rng.uniform(0.9, 1.1), 6),
                  "x0": round(rng.uniform(0.45, 0.55), 6),
                  "y0": round(rng.uniform(0.45, 0.55), 6),
                  "width": 0.1}
        values["source.preset"] = "fluid_gaussian"
        values.update({f"source.{k}": v for k, v in source.items()})
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    checks = {
        "rho": wl["rho"], "nx": wl["n"], "ny": wl["n"], "lx": 1.0, "ly": 1.0,
        "dt": values["stepper.dt"], "t_end": wl["t_end"],
        "tol_picard": values["stepper.tol_picard"], "stride": wl["stride"],
        "source": source,
    }
    return text, checks


def prepare_run(run_dir, name, seed, **changes):
    """Write the config of one workload and seed into run_dir; returns
    the spec a worker round reads."""
    text, checks = make_config(name, seed, **changes)
    config_path = os.path.join(run_dir, "run.cfg")
    with open(config_path, "w") as fh:
        fh.write(text)
    return {"src": os.path.join(os.getcwd(), "src"), "config": config_path,
            "checks": checks}


ADDR_NO_RANDOMIZE = 0x0040000   # personality(2) flag


def _fixed_layout():
    """In the worker, before exec: turn off address-space randomization
    for this process only.  With it on, the heap and mmap layout differ
    from process to process, and so do the allocator's choices: the peak
    RSS of one config then varies by up to 16 % between rounds."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def run_round(spec, run_dir, index, trace, timeout):
    """One worker process, killed after `timeout` seconds; returns its
    result, with setup_s timed from the spawn of the process."""
    round_dir = os.path.join(run_dir, f"round-{index:03d}")
    os.makedirs(round_dir)
    spec = dict(spec, out_dir=os.path.join(round_dir, "out"), trace=trace,
                spans_path=os.path.join(run_dir, "spans.json"))
    spec_path = os.path.join(round_dir, "spec.json")
    result_path = os.path.join(round_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout, preexec_fn=_fixed_layout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - t_spawn
    shutil.rmtree(round_dir)
    return result


def run_rounds(spec, seconds, trace, run_dir):
    """Rounds until `seconds` have passed (at least MIN_ROUNDS; in trace
    mode untraced and traced rounds alternate, starting untraced)."""
    results = []
    start = time.monotonic()
    min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(results) >= min_rounds and (
                elapsed >= seconds or elapsed + 1.5 * longest > RUN_LIMIT_S):
            break
        traced = bool(trace) and len(results) % 2 == 1
        t0 = time.monotonic()
        results.append(run_round(spec, run_dir, len(results), traced,
                                 timeout=RUN_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
    return results


def summarize(results, trace):
    """The JSON result line of one run."""
    failures = [msg for r in results for msg in r["failures"]]
    hashes = {r["csv_sha256"] for r in results}
    if len(hashes) != 1:
        failures.append(f"diagnostics.csv differs between rounds of one seed: {sorted(hashes)}")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    plain = [r for r in results if not r["traced"]]
    if trace:
        traced = [r for r in results if r["traced"]]
        metrics = {}
        for name, unit in traced[0]["layers_units"].items():
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        run_plain = statistics.median(r["run_s"] for r in plain)
        run_traced = statistics.median(r["run_s"] for r in traced)
        metrics["trace.overhead_frac"] = {"value": run_traced / run_plain - 1.0,
                                          "unit": "ratio"}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "window_s": statistics.median(statistics.fmean(r["window_s"]) for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "chbsim", "cli.py")):
        print(f"no chbsim sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT_DIR)
    spec = prepare_run(run_dir, args.workload, args.seed)
    try:
        results = run_rounds(spec, args.seconds, args.trace, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    summary = summarize(results, args.trace)
    with open(os.path.join(run_dir, "rounds.json"), "w") as fh:
        json.dump(results, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
