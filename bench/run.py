"""tracecause benchmark: seeded ``analyze`` jobs, checked and timed.

    python3 bench/run.py --workload deep|wide|corpus --seed N \
        --seconds S --trace 0|1

Run it from a source checkout; it imports the package from ``src/`` and
the independent oracle from ``tests/oracle.py``.  Each workload is a
closed loop with one client in this single process: jobs run back to
back through ``tracecause.cli.main(argv)`` with stdout and stderr
captured in memory, each reading a system file and a trace file written
before its timing starts.  Each pass over the job list draws fresh
inputs from the workload's family, so no two jobs of a run share their
inputs, and the loop runs until the jobs have taken ``--seconds`` at the
reference speed.

Timings are reported at the reference speed of calibrate.py: each job's
wall time is scaled by the speed of a fixed calibration loop run right
before and after it, so that the machine's drift cancels out.  With
``--trace 0`` the end-to-end metrics are measured; every report is then
checked by the verdict gate, outside the timed region.  With
``--trace 1`` each job of the first half of the first pass runs once
untraced and once traced (see tracing.py), repeated while time remains, and
per-layer totals over one traced pass are reported together with the
tracing overhead; the spans go to
``bench/out/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed job is one that
raised, exited with an unexpected code or reported a wrong verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from calibrate import REFERENCE_S, calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 30
SETUP_SNIPPET = (
    "import sys\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "from time import perf_counter\n"
    "from statistics import median\n"
    "from calibrate import calibrate\n"
    "speed = [calibrate() for _ in range(4)][1:]\n"
    "start = perf_counter()\n"
    "import tracecause.cli\n"
    "tracecause.cli.build_parser()\n"
    "took = perf_counter() - start\n"
    "speed += [calibrate() for _ in range(3)]\n"
    "print(took, median(speed))\n")

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
         "job_tail_ms": "ms", "peak_rss_mb": "MB"}


def setup_samples(n: int) -> list[float]:
    """Seconds, in ``n`` fresh interpreters, to import the package and
    build the CLI parser, at the reference speed of calibrate.py;
    interpreter start-up is excluded."""
    cmd = [sys.executable, "-E", "-s", "-c",
           SETUP_SNIPPET.format(src=SRC, bench=BENCH)]
    samples = []
    for _ in range(n):
        took, speed = map(float, subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True).stdout.split())
        samples.append(took * REFERENCE_S / speed)
    return samples


def at_reference_speed(walls: list[float], speeds: list[float]) -> list[float]:
    """Job times at the reference speed.  ``speeds`` holds one calibration
    time before the first job and one after each job; each job is scaled
    by the median of the two calibrations before it and the two after
    it, which follows the machine's swings between fast and slow spells
    without taking in the noise of single samples."""
    return [dt * REFERENCE_S / statistics.median(speeds[max(i - 1, 0):i + 3])
            for i, dt in enumerate(walls)]


def write_inputs(workload, where: str) -> list[tuple[str, str]]:
    """Write each distinct system and trace once; (system, trace) paths
    per instance."""
    os.makedirs(where)
    files: dict[tuple[str, str], str] = {}

    def path_for(kind: str, text: str, suffix: str) -> str:
        key = (kind, text)
        if key not in files:
            files[key] = os.path.join(where, f"{kind}{len(files)}{suffix}")
            with open(files[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        return files[key]

    return [(path_for("system", inst.system, ".json"),
             path_for("trace", inst.trace, ".txt"))
            for inst in workload.instances]


def run_job(main, argv):
    """One analyze call; returns (exit code or None, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):
        code = None
    return code, out.getvalue(), perf_counter() - start


class Bench:
    """The jobs of one workload and seed, in parts of distinct inputs.

    Part ``p`` is one pass over the workload's job list, drawn afresh
    from the family on (seed, p); its files are written and its gate set
    up the first time it is asked for, outside every timed region."""

    def __init__(self, name: str, seed: int, size: str, where: str):
        from tracecause.cli import main

        self.name, self.seed, self.size, self.where = name, seed, size, where
        os.makedirs(where)
        self.main = main
        self.parts: dict[int, tuple[list, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def part(self, p: int):
        """(argv per job, gate) of part ``p``."""
        if p not in self.parts:
            import gate

            w = workloads.make(self.name, self.seed, self.size, p)
            paths = write_inputs(w, os.path.join(self.where, f"part{p}"))
            argv = [["analyze", *paths[job.instance], "--json", *job.flags]
                    for job in w.jobs]
            self.parts[p] = (argv, gate.Gate(w))
        return self.parts[p]

    def check(self, p: int, index: int, code, stdout: str) -> None:
        """Gate the output of job ``index`` of part ``p``."""
        self.attempted += 1
        problems = self.part(p)[1].check(index, code, stdout)
        if problems:
            self.failed += 1
            self.problems.append(f"part {p} job {index}: "
                                 + "; ".join(problems))

    def warm_up(self) -> None:
        """Let lazy imports and caches settle, on inputs that no measured
        job sees."""
        for argv in self.part(-1)[0][:2]:
            run_job(self.main, argv)

    def timed_loop(self, seconds: float):
        """Jobs back to back, part after part, each followed by the
        calibration loop, until the jobs have taken ``seconds`` at the
        reference speed, or one and a half times that in wall time.  So the number of
        jobs, and which jobs they are, do not depend on the machine's
        speed.  Outputs go to a file, so that memory does not grow with
        the number of jobs.  Returns each job's time at the reference
        speed, its wall time, and the path of the outputs (see
        `read_outputs`)."""
        walls, speeds = [], [calibrate()]
        path = os.path.join(self.where, "outputs.jsonl")
        spent = 0.0
        deadline = perf_counter() + 1.5 * seconds
        with open(path, "w", encoding="utf-8") as out:
            for p in itertools.count():
                for i, argv in enumerate(self.part(p)[0]):
                    code, stdout, dt = run_job(self.main, argv)
                    speeds.append(calibrate())
                    walls.append(dt)
                    out.write(json.dumps([p, i, code, stdout]) + "\n")
                    spent += dt * REFERENCE_S / speeds[-1]
                    if spent >= seconds or perf_counter() >= deadline:
                        return (at_reference_speed(walls, speeds), walls,
                                path)

    def paired_pass(self, tracer) -> tuple[float, float, float]:
        """The first half of part 0, each job run once untraced and once
        under ``tracer``, back to back, the untraced run first on even
        jobs and last on odd ones, so that both see the same machine
        speed.  Returns the summed untraced and traced job times at the
        reference speed, and the traced wall time."""
        argv_list = self.part(0)[0]
        walls, speeds, traced = [], [calibrate()], []
        for i, argv in enumerate(argv_list[:(len(argv_list) + 1) // 2]):
            for trace in ((False, True), (True, False))[i % 2]:
                if trace:
                    with tracer.instrument():
                        code, stdout, dt = run_job(functools.partial(
                            tracer.run_job, i, self.main), argv)
                    tracer.sums["output_bytes"] += len(stdout.encode())
                else:
                    code, stdout, dt = run_job(self.main, argv)
                speeds.append(calibrate())
                walls.append(dt)
                traced.append(trace)
                self.check(0, i, code, stdout)
        scaled = at_reference_speed(walls, speeds)
        return (sum(t for t, on in zip(scaled, traced) if not on),
                sum(t for t, on in zip(scaled, traced) if on),
                sum(t for t, on in zip(walls, traced) if on))


def read_outputs(path: str):
    """(part, index, exit code, stdout) of each job `timed_loop` ran."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield tuple(json.loads(line))


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile that keeps at least ten samples beyond it:
    the eleventh-largest sample, the percentile it stands for and the
    number of samples beyond it (fewer than ten only in tiny runs)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return (ordered[k], 100.0 * k / max(len(ordered) - 1, 1),
            len(ordered) - 1 - k)


def end_to_end(bench, seconds: float) -> dict:
    # The first interpreter may compile bytecode and is not counted; half
    # the samples are taken after the loop, so that one slow spell of the
    # machine does not decide the median.
    setup = setup_samples(1 + SETUP_SAMPLES // 2)[1:]
    bench.warm_up()
    scaled, walls, outputs = bench.timed_loop(seconds)
    # Read before the gate runs the oracle, which has its own peak.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p, i, code, stdout in read_outputs(outputs):
        bench.check(p, i, code, stdout)
    setup = statistics.median(setup + setup_samples(SETUP_SAMPLES // 2))
    tail_s, pct, beyond = tail(scaled)
    print(f"jobs: {len(scaled)} in {sum(walls):.3f} s of job wall time "
          f"({len(scaled) / sum(walls):.4g} jobs/s, p50 "
          f"{statistics.median(walls) * 1000:.4g} ms unscaled); "
          f"job_tail_ms is p{pct:.1f} ({beyond} jobs beyond it)")
    return {"setup_s": setup, "jobs_per_s": len(scaled) / sum(scaled),
            "job_p50_ms": statistics.median(scaled) * 1000,
            "job_tail_ms": tail_s * 1000, "peak_rss_mb": rss_mb}


def corrected_ratio_ok(ratio: float, untraced_s: float) -> bool:
    """Whether (traced time net of the estimated tracer overhead) /
    (untraced time of the same jobs) is close enough to 1 for the
    per-layer self times to be trusted.  Below a second of untraced job
    time the ratio is mostly noise and is not judged."""
    return untraced_s < 1.0 or 0.67 <= ratio <= 1.5


def per_layer(bench, seconds: float, trace_path: str) -> dict:
    from tracing import Tracer

    bench.warm_up()
    passes = []
    start = perf_counter()
    # Another untraced and traced pair only if it fits in the time left.
    while not passes or (perf_counter() - start) * (1 + 1 / len(passes)) \
            <= seconds:
        tracer = Tracer()
        untraced, traced, traced_wall = bench.paired_pass(tracer)
        if tracer.max_self_error > 1e-6:
            raise RuntimeError(f"layer self times miss the job wall time by "
                               f"{tracer.max_self_error:.3g} s")
        metrics = tracer.metrics(traced / traced_wall)
        metrics["cli.output_bytes"] = tracer.sums["output_bytes"]
        metrics["trace.overhead_ratio"] = traced / untraced
        metrics["trace.corrected_ratio"] = (
            metrics["trace.job_wall_s"] - metrics["trace.overhead_s"]) \
            / untraced
        passes.append(metrics)
        if len(passes) == 1:
            tracer.write_chrome_trace(trace_path)
    counts = [{k: v for k, v in p.items() if isinstance(v, int)}
              for p in passes]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("work counts differ between identical passes")
    result = {k: (statistics.median(p[k] for p in passes)
                  if isinstance(v, float) else v)
              for k, v in passes[0].items()}
    if not corrected_ratio_ok(result["trace.corrected_ratio"], untraced):
        raise RuntimeError(
            f"traced time net of the tracer overhead is "
            f"{result['trace.corrected_ratio']:.3f} of the untraced time")
    print(f"traced passes: {len(passes)} of {(len(bench.part(0)[0]) + 1) // 2}"
          f" jobs; spans in {os.path.relpath(trace_path, ROOT)}")
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_minimal"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("deep", "wide", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test size")
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "tracecause", "cli.py"),
                 os.path.join(TESTS, "oracle.py")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run "
                  f"from a tracecause source checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS]
    os.makedirs(OUT, exist_ok=True)
    where = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, args.size, where)
        if args.trace:
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(bench, args.seconds, trace_path)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = end_to_end(bench, args.seconds)
            units = UNITS
    finally:
        shutil.rmtree(where, ignore_errors=True)

    for p in bench.problems[:20]:
        print(f"FAILED {p}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
