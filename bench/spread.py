"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload deep --seeds 1-10 [--seconds S] \
        [--trace 0|1] [--out spread-deep.json]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each metric its values, median, quartiles (``statistics.quantiles`` with
``n=4``) and spread, (q3 - q1) / median.  The bounds in BENCHMARK.json
were set from these figures; ``baseline.json`` holds them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    results, runs = [], []
    for seed in args.seeds:
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append({"seed": seed, "run_s": perf_counter() - start,
                     "attempted": result["attempted"],
                     "failed": result["failed"]})
        results.append(result)
        print(f"seed {seed}: {runs[-1]['run_s']:.1f} s, "
              f"failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = {"unit": first["unit"], **summary(
            [r["metrics"][name]["value"] for r in results])}
    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "runs": runs, "metrics": metrics}
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} median {m['median']:.6g} {m['unit']:6s} "
              f"spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
