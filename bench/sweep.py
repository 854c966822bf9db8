"""One-off grid sweep: how the cost of a window grows with the grid.

Run from the root of a source checkout:

    python3 bench/sweep.py

For 32 x 32, 64 x 64 and 128 x 128 and both regimes it runs one checked
round of the first two windows of the spinodal workload
(bench/run_bench.py, seed 1) with sparse output and prints set-up time,
run time, mean window time and peak memory.  At 128 x 128 a quasi-static
window takes over 10 s, which is why the sweep is not a benchmark
workload.
"""

import os
import shutil
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from run_bench import OUT_DIR, SPARSE_OUTPUT, prepare_run, run_round  # noqa: E402

SIZES = (32, 64, 128)
WINDOWS = 2
SEED = 1


def main():
    print(f"{'workload':18s} {'grid':>8s} {'windows':>7s} {'setup_s':>8s} {'run_s':>8s} "
          f"{'window_s':>9s} {'peak_rss_mb':>11s} checks")
    for n in SIZES:
        for name in ("spinodal-qs-32", "spinodal-visco-32"):
            os.makedirs(OUT_DIR, exist_ok=True)
            run_dir = tempfile.mkdtemp(prefix=f"sweep-{name}-n{n}-", dir=OUT_DIR)
            spec = prepare_run(run_dir, name, SEED, n=n, stride=SPARSE_OUTPUT,
                               t_end=WINDOWS * 1e-3)
            r = run_round(spec, run_dir, 0, False, timeout=3600)
            shutil.rmtree(run_dir)
            label = name.replace("-32", "")
            print(f"{label:18s} {f'{n}x{n}':>8s} {r['attempted']:7d} {r['setup_s']:8.3f} "
                  f"{r['run_s']:8.3f} {statistics.fmean(r['window_s']):9.3f} "
                  f"{r['peak_rss_mb']:11.1f} {'pass' if not r['failures'] else r['failures']}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
