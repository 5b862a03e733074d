#!/usr/bin/env python3
"""Benchmark for diamondgf: closed-loop jobs against the library in src/.

    python3 bench/run.py --workload products --seed 1 --seconds 35 --trace 0

One client runs one job at a time, with no threads, until ``--seconds``
of job time have been measured. Times are scaled to a reference machine
speed (see ``CALIBRATION_REF_S``). Every job's output is checked against
``reference.json``.
The last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a separate traced run
(``--trace 1``). ``--record`` rewrites the reference from the current code;
``--perturb`` makes one entry point return an off-by-one coefficient, so
the run must report failures. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import jobs
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
WORK_ROOT = HERE / ".work"

DEFAULT_SEED = 1  # the held-out seed is recorded in design.json
SETUP_LAUNCHES = 11
# A run stops after this many times --seconds of wall time even if the host
# is too slow to reach --seconds of reference-speed job time.
WALL_LIMIT = 1.1
WARMUP_S = 3.0
# Rounds in the traced run: a fixed job list, so its counters repeat.
TRACE_ROUNDS = {"products": 1, "closed_forms": 3, "verify": 3}
# The entry point --perturb corrupts on each workload.
PERTURBED = {"products": "apr_product", "closed_forms": "sigma_closed", "verify": "sigma_closed"}

END_TO_END_UNITS = {
    "throughput_jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


# Wall times are scaled to a reference machine speed. The host's speed
# drifts by up to a factor of two within a minute, which no amount of
# repetition averages out, so a fixed calibration loop runs before and after
# every timed section, and each time is multiplied by CALIBRATION_REF_S over
# the mean of the two calibration times. The loop is the benchmark's own code
# (dict updates keyed by ints, no allocation the garbage collector tracks),
# so no change to the library can move it.
CALIBRATION_REF_S = 0.0078


def _calibration_loop() -> int:
    terms = {i * 64 + j: i * 7 + j + 1 for i in range(18) for j in range(18 - i)}
    out: dict[int, int] = {}
    for k1, c1 in terms.items():
        for k2, c2 in terms.items():
            if k1 // 64 + k2 // 64 + k1 % 64 + k2 % 64 <= 26:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return len(out)


class Speedometer:
    """Scales wall times to the reference speed; see CALIBRATION_REF_S."""

    def __init__(self) -> None:
        self._last = self._sample()

    @staticmethod
    def _sample() -> float:
        start = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - start

    def scale(self, elapsed: float) -> float:
        """Call right after the timed section that took ``elapsed``."""
        before, self._last = self._last, self._sample()
        return elapsed * CALIBRATION_REF_S * 2 / (before + self._last)


def import_library() -> SimpleNamespace:
    """Import diamondgf from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import diamondgf
    from diamondgf import cli, diamonds, oracle, permstat, poset, series

    if SRC.resolve() not in Path(diamondgf.__file__).resolve().parents:
        raise ImportError(f"diamondgf imported from {diamondgf.__file__}, not {SRC}")
    return SimpleNamespace(package=diamondgf, cli=cli, diamonds=diamonds, oracle=oracle,
                           permstat=permstat, poset=poset, series=series)


def measure_setup(launches: int) -> float:
    """Median time, scaled to the reference speed, for a fresh interpreter to
    import the package and its command line module. A first, untimed launch
    writes bytecode."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import diamondgf, diamondgf.cli"
    command = [sys.executable, "-I", "-c", code]
    subprocess.run(command, check=True, stdin=subprocess.DEVNULL)
    speed = Speedometer()
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdin=subprocess.DEVNULL)
        times.append(speed.scale(time.perf_counter() - start))
    return statistics.median(times)


def run_job(runner: jobs.Runner, job: jobs.Job, reference: dict) -> tuple[float, str | None]:
    """Time one job; return its wall time and why it failed, if it did."""
    start = time.perf_counter()
    try:
        output = runner.call(job)
        elapsed = time.perf_counter() - start
        return elapsed, jobs.check(job, output, reference)
    except Exception as exc:  # a failing job is counted, and the loop goes on
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"


class Tally:
    def __init__(self) -> None:
        self.times: list[float] = []  # scaled to the reference speed
        self.wall: list[float] = []
        self.jobs: list[jobs.Job] = []
        self.failures: list[tuple[str, str]] = []
        self._speed = Speedometer()

    def run(self, runner: jobs.Runner, job: jobs.Job, reference: dict) -> None:
        elapsed, problem = run_job(runner, job, reference)
        self.times.append(self._speed.scale(elapsed))
        self.wall.append(elapsed)
        self.jobs.append(job)
        if problem is not None:
            self.failures.append((job.key, problem))
            if len(self.failures) <= 5:
                print(f"FAILED {job.key}: {problem}", file=sys.stderr)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it: the 11th
    largest time, and the share of jobs at or below it in percent."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(workload: str, seed: int, seconds: float, runner, reference) -> Tally:
    """Closed loop, one client: rounds of jobs until ``seconds`` of job time
    at the reference speed have been measured, so that the number of jobs
    does not depend on how fast the host happens to be."""
    source = jobs.RoundSource(workload, seed)
    # An untimed warm-up round first, cut short after WARMUP_S: the first
    # large job in a fresh process pays for growing the heap, up to twice
    # its later time.
    warm_until = time.perf_counter() + WARMUP_S
    for job in source.next_round():
        if time.perf_counter() >= warm_until:
            break
        run_job(runner, job, reference)
    tally = Tally()
    deadline = time.perf_counter() + WALL_LIMIT * seconds
    while sum(tally.times) < seconds and time.perf_counter() < deadline:
        for job in source.next_round():
            if sum(tally.times) >= seconds:
                break
            tally.run(runner, job, reference)
    return tally


def end_to_end(workload: str, seed: int, seconds: float, runner, reference) -> tuple[bool, Tally, dict]:
    setup_s = measure_setup(SETUP_LAUNCHES)
    tally = timed_run(workload, seed, seconds, runner, reference)
    attempted = len(tally.times)
    failed = len(tally.failures)
    tail_s, tail_pct = tail(tally.times)
    values = {
        "throughput_jobs_per_s": attempted / sum(tally.times),
        "job_p50_s": statistics.median(tally.times),
        "job_tail_s": tail_s,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload} seed {seed}: {attempted} jobs, "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"job_tail_s is p{tail_pct:.1f}, the 11th largest of {attempted} job times; "
          f"repeat share (d or fold multiset seen before) {jobs.repeat_share(tally.jobs):.3f}")
    print(f"unscaled wall time: {attempted / sum(tally.wall):.6g} jobs/s, "
          f"p50 {statistics.median(tally.wall):.6g} s, tail {tail(tally.wall)[0]:.6g} s")
    for name, value in values.items():
        print(f"  {name:24s} {value:.6g} {END_TO_END_UNITS[name]}")
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return not tally.failures, tally, metrics


def run_list(job_list, runner, reference, tracer=None) -> Tally:
    tally = Tally()
    for job_id, job in enumerate(job_list):
        if tracer is not None:
            tracer.job_id = job_id
        tally.run(runner, job, reference)
    return tally


def traced(workload: str, seed: int, runner, reference, lib) -> tuple[bool, Tally, dict]:
    """Run a fixed job list untraced, then traced twice; the two traced runs
    must record identical work counts, and every expected span must fire."""
    source = jobs.RoundSource(workload, seed)
    job_list = [job for _ in range(TRACE_ROUNDS[workload]) for job in source.next_round()]
    run_list(job_list, runner, reference)  # warm-up, as in the timed run
    tally = run_list(job_list, runner, reference)
    correct = not tally.failures
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(lib.package)
        try:
            pass_tally = run_list(job_list, runner, reference, tracer)
        finally:
            tracer.uninstall()
        correct = correct and not pass_tally.failures
        passes.append((tracer, sum(pass_tally.times)))
    (first, first_time), (second, _) = passes
    if first.work_counts() != second.work_counts():
        correct = False
        print("work counts differ between two traced runs of the same jobs", file=sys.stderr)
    missing = first.missing(workload)
    if missing:
        correct = False
        print(f"expected spans did not fire: {', '.join(missing)}", file=sys.stderr)
    values = first.metrics()
    values["trace.overhead_ratio"] = first_time / sum(tally.times)
    print(f"traced workload {workload} seed {seed}: {len(job_list)} jobs, "
          f"{len(first.spans)} spans, repeat share {jobs.repeat_share(job_list):.3f}")
    for module in tracing.MODULES:
        print(f"  layer.{module}.self_share {values[f'layer.{module}.self_share']:.3f}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in tracing.metric_specs()
    }
    return correct, tally, metrics


def perturb(lib, patcher: tracing.Patcher, entry: str) -> None:
    """Make ``entry`` return one coefficient off by one."""

    def make(original):
        def off_by_one(*args, **kwargs):
            out = original(*args, **kwargs)
            if isinstance(out, list):
                return out[:-1] + [out[-1] + 1]
            terms = dict(out.terms)
            top = max(terms, key=lambda m: (m[0] + m[1], m[0]))
            terms[top] += 1
            return type(out)(out.truncation, terms)

        return off_by_one

    patcher.patch(lib.package, "diamonds", entry, make)


def record(lib, work_dir: Path) -> None:
    """Write the reference digests of every catalogue job from this code."""
    runner = jobs.Runner(lib, work_dir)
    reference = {}
    for workload in jobs.WORKLOADS:
        started = time.perf_counter()
        for job in jobs.catalogue(workload):
            data, problem = jobs.canonical(job, runner.call(job))
            if problem:
                raise RuntimeError(f"{job.key}: {problem}")
            reference[job.key] = jobs.digest(data)
        print(f"recorded {workload} in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one entry point's output; the run must fail")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diamondgf" / "__init__.py").is_file():
        print(f"error: no diamondgf sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    lib = import_library()
    work_dir = WORK_ROOT / str(os.getpid())
    jobs.write_poset_files(work_dir)
    patcher = tracing.Patcher()
    try:
        if args.record:
            record(lib, work_dir)
            return 0
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if args.perturb:
            perturb(lib, patcher, PERTURBED[args.workload])
        runner = jobs.Runner(lib, work_dir)
        if args.trace:
            correct, tally, metrics = traced(args.workload, args.seed, runner, reference, lib)
        else:
            correct, tally, metrics = end_to_end(
                args.workload, args.seed, args.seconds, runner, reference)
    finally:
        patcher.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = {
        "correct": correct,
        "attempted": len(tally.times),
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
