"""Steadiness of the benchmark: every workload, several seeds, quartiles.

Run from the root of a source checkout:

    python3 bench/steady.py [--same-seed]

Runs the benchmark command of BENCHMARK.json ten times per workload,
untraced and with the run length of BENCHMARK.json, with seeds 1 to 10
in the outer loop.  With --same-seed every run uses seed 1, so the
spread is run-to-run noise alone, without the seeds' share.  For each
workload and metric it prints the median, the first and third quartiles
of ``statistics.quantiles(values, n=4)`` and their distance as a share
of the median, next to the metric's bound.  The raw results go to
bench/out/steady-<time>.json.  The bounds in BENCHMARK.json are set from
this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from run_bench import OUT_DIR, WORKLOADS  # noqa: E402

RUNS = 10


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        seed = 1 if args.same_seed else 1 + i
        for wl in WORKLOADS:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[wl].append(dict(result, seed=seed, wall_s=time.monotonic() - t0))
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {time.monotonic() - t0:.0f}s", file=sys.stderr, flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    raw = os.path.join(OUT_DIR, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(raw, "w") as fh:
        json.dump(runs, fh, indent=1)
    print(f"{'workload':18s} {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for wl, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{wl:18s} {name:30s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}")
        print(f"{wl:18s} correct={correct} failed shares={sorted(shares)}")
    print(f"raw results: {raw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
