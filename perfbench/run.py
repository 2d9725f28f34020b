"""Layered end-to-end benchmark of mullsem.

Run from the repository root:

    python3 perfbench/run.py --workload totality-fixpoints --seed 1 \\
        --seconds 50 --trace 0

Workloads: totality-fixpoints, dualization, phase-search (public Python
API, in this process) and cli-batch (``python -m mullsem --format
machine`` children, one at a time).  BENCHMARK.json lists
totality-fixpoints and cli-batch only: with fewer workloads each run
can be longer, which a shared 2-vCPU machine needs for steady figures
(see design.json, "dropped_workloads").  One process, no worker threads, a
closed loop with one client: each job starts when the previous one has
ended, and a job over JOB_LIMIT_S seconds fails.

``--trace 0`` sets up (import, seeded inputs, warm-up) at least
SETUP_REPEATS times and reports the median as ``setup_s``: once before
the timed rounds and the other times between them, so that the set-ups
meet the same machine speed as the jobs.  It runs the rounds of jobs
planned for ``--seconds`` (as many as take that long on the
reference machine, see workloads.ROUND_S) and reports the end-to-end
metrics of BENCHMARK.json.  The job count of a run thus does not depend
on the speed of the machine, and neither does the tail percentile.
Answers are checked after each job, outside the measured time.  A run
stops starting jobs after RUN_BUDGET_S.

``--trace 1`` runs a fixed number of rounds untraced, then twice with
every public layer wrapped (see tracing.py), checks that the two traced
runs count the same work, replays the captured kernel calls against the
pure kernels (and the compiled ones when they import), and reports the
per-layer metrics of BENCHMARK.json.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a report with the kernel backend, the tail
percentile, failures and the job-list digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 21
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10
# rounds in a traced run: a fifth of a --trace 0 run's work, three of
# eight for totality-fixpoints, whose heaviest jobs differ most in their
# layer mix; the untraced and two traced passes stay well within
# RUN_BUDGET_S
TRACE_ROUNDS = {"totality-fixpoints": 3, "dualization": 9, "phase-search": 6,
                "cli-batch": 1}
# the run stops starting jobs this long after it began, so that it exits
# well within three minutes even when every job hits the job limit
RUN_BUDGET_S = 140
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mullsem.cli; "
                "print(time.perf_counter() - t)")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def fresh_import():
    """Import mullsem from ./src as a first import would (new modules)."""
    for name in [n for n in sys.modules
                 if n == "mullsem" or n.startswith("mullsem.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mullsem")
    importlib.import_module("mullsem.cli")
    return pkg


class Runner:
    """Runs jobs one at a time and checks their answers."""

    def __init__(self, wl, pkg, cli_children, deadline):
        self.wl = wl
        self.pkg = pkg
        self.children = cli_children
        self.deadline = deadline
        self.env = wl.cli_env()

    def expired(self):
        return time.perf_counter() >= self.deadline

    def call(self, job, wrap=None):
        """(seconds, answer, error) of one job under the job time limit."""
        limit = max(0.001, min(self.wl.JOB_LIMIT_S,
                               self.deadline - time.perf_counter()))
        if isinstance(job.call, list):
            if self.children:
                fn = lambda: self.wl.run_cli_subprocess(job.call, self.env,
                                                        limit)
            else:
                fn = lambda: self.wl.run_cli_inprocess(self.pkg, job.call)
        else:
            fn = job.call
        if wrap is not None:
            fn = wrap(fn)
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            answer, error = fn(), None
        except (JobTimeout, subprocess.TimeoutExpired):
            answer, error = None, f"over the {limit} s job limit"
        except Exception as exc:  # a failed job is counted, never fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, answer, error

    def attempt(self, job, wrap=None):
        """(seconds, failure) of one checked job; failure is None when the
        answer matches its reference.  Checks run outside the clock."""
        seconds, answer, error = self.call(job, wrap)
        if error is None:
            try:
                job.check(answer)
            except self.wl.Mismatch as exc:
                error = f"wrong answer: {exc}"
            except Exception as exc:
                error = f"unexpected answer: {type(exc).__name__}: {exc}"
        if error is None:
            return seconds, None
        return seconds, {"job": job.key, "error": error, "defect": job.defect}


def job_list_digest(plan):
    text = "\n".join(job.key for job in plan.jobs())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(latencies, planned):
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND of the ``planned`` jobs beyond it (the maximum when there
    are too few), read from the latencies of the jobs that ran."""
    ordered = sorted(latencies)
    pct = next((p for p in TAIL_PERCENTILES
                if planned * (100 - p) / 100 >= TAIL_BEYOND), 100)
    return pct, ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup(wl, name, args, workdir):
    """Seconds of one set-up and the state it leaves."""
    gc.collect()
    start = time.perf_counter()
    pkg = fresh_import()
    plan = wl.plan(name, pkg, args.seed, workdir, args.seconds)
    runner = Runner(wl, pkg, True, args.deadline)
    for job in plan.warmup:
        _, failure = runner.attempt(job)
        if failure:
            raise SystemExit(f"warm-up job failed: {failure}")
    return time.perf_counter() - start, pkg, plan, runner


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux: KiB


def timed_run(wl, name, args, workdir):
    first, pkg, plan, runner = setup(wl, name, args, workdir)
    samples = [first]
    latencies, failures = [], []
    passed = rounds = 0
    busy = 0.0
    gc.collect()
    for rnd in plan.rounds:
        if runner.expired():
            break
        rounds += 1
        for job in rnd:
            seconds, failure = runner.attempt(job)
            busy += seconds
            latencies.append(seconds)
            if failure:
                failures.append(failure)
            else:
                passed += 1
            gc.collect()  # each job starts on a clean heap, outside the clock
        # the other set-ups, spread evenly over the rounds; each imports its
        # own copy of the package and is only timed (the jobs keep the first)
        due = 1 + rounds * (SETUP_REPEATS - 1) // len(plan.rounds)
        samples += [setup(wl, name, args, workdir)[0]
                    for _ in range(due - len(samples))]
    attempted = len(latencies)
    planned = len(plan.jobs())
    pct, tail_s = tail(latencies, planned)
    cli = name == "cli-batch"
    metrics = {
        "setup_s": statistics.median(samples),
        "jobs_per_s": passed / busy,
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "answered_ratio": passed / attempted,
        "peak_rss_mb": peak_rss_mb(children=cli),
    }
    report = {
        "setup_samples_s": samples, "loop_s": busy, "rounds": rounds,
        "rounds_planned": len(plan.rounds),
        "failed_ratio": len(failures) / attempted,
        "jobs_planned": planned,
        "job_tail": {"percentile": pct, "samples": attempted,
                     "beyond": attempted - math.ceil(pct / 100 * attempted)},
        "peak_rss_of": "cli children" if cli else "benchmark process",
    }
    return attempted, failures, metrics, report, plan, pkg, []


# ---------------------------------------------------------------------------
# traced run

def replay_kernels(pkg, captured):
    """Per-kernel time of each twin on the captured calls, outputs compared."""
    twins = {"pure": importlib.import_module("mullsem._kernels.pure")}
    notes = {}
    try:
        twins["core"] = importlib.import_module("mullsem._kernels._core")
    except ImportError as exc:
        notes["core"] = f"absent ({exc})"
    times, mismatches = {}, []
    for twin, module in twins.items():
        limit = getattr(module, "MASK_BITS", None)
        for kernel, calls in captured.items():
            fn = getattr(module, kernel)
            usable = [(a, r) for a, r in calls
                      if limit is None or _fits(kernel, a, limit)]
            start = time.perf_counter()
            outs = [fn(*a) for a, _ in usable]
            times[f"twin.{kernel}.{twin}_s"] = time.perf_counter() - start
            times[f"twin.{kernel}.{twin}_calls"] = len(usable)
            bad = sum(out != r for out, (_, r) in zip(outs, usable))
            if bad:
                mismatches.append(f"{twin}.{kernel}: {bad} outputs differ")
    notes["backend"] = pkg._kernels.backend
    return times, mismatches, notes


def _fits(kernel, args, limit):
    if kernel in ("minimal_transversals", "phase_orthogonal"):
        return args[1] <= limit
    return all(m >> limit == 0 for m in args[0])


def traced_pass(wl, runner, jobs, tracer):
    failures = []
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            _, failure = runner.attempt(
                job, wrap=lambda fn, i=i: lambda: tracer.job_span(i, fn))
            if failure:
                failures.append(failure)
    finally:
        tracer.uninstall()
    return failures


def traced_run(wl, name, args, workdir):
    import tracing as tr
    _, pkg, plan, runner = setup(wl, name, args, workdir)
    jobs = [job for rnd in plan.rounds[:TRACE_ROUNDS[name]] for job in rnd]
    cli = name == "cli-batch"

    def plain_pass():
        start = time.perf_counter()
        for job in jobs:
            runner.call(job)
        return time.perf_counter() - start

    untraced_s = plain_pass()          # children for cli-batch
    layer = {}
    if cli:
        runner.children = False
        inprocess_s = plain_pass()
        layer["cli.startup_s"] = untraced_s - inprocess_s
        probes = [subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                 capture_output=True, text=True, env=runner.env,
                                 check=True, timeout=wl.JOB_LIMIT_S)
                  for _ in range(3)]
        layer["cli.import_s"] = statistics.median(float(p.stdout)
                                                  for p in probes)
        untraced_s = inprocess_s
    first = tr.Tracer(pkg)
    start = time.perf_counter()
    failures = traced_pass(wl, runner, jobs, first)
    traced_s = time.perf_counter() - start
    second = tr.Tracer(pkg)
    failures += traced_pass(wl, runner, jobs, second)
    layer.update(first.layer_metrics())
    job_s = first.job_seconds()
    kernel_s = sum(layer.get(f"kernels.{k}.s", 0.0) for k in tr.KERNELS)
    layer.update({"job.s": job_s, "job.calls": len(jobs),
                  "kernels.s": kernel_s, "kernels.share": kernel_s / job_s,
                  "trace.overhead": traced_s / untraced_s})
    counts_first = tr.counts_only(first.layer_metrics())
    counts_second = tr.counts_only(second.layer_metrics())
    differing = sorted(k for k in set(counts_first) | set(counts_second)
                       if counts_first.get(k) != counts_second.get(k))
    twin_times, twin_mismatches, twin_notes = replay_kernels(pkg,
                                                             first.captured)
    layer.update(twin_times)
    other_seed = wl.plan(name, pkg, args.seed + 1, workdir, args.seconds)
    same_list = job_list_digest(other_seed) == job_list_digest(plan)
    spans = HERE / "out" / f"spans-{name}-{args.seed}.tsv.gz"
    first.write_spans(spans)
    problems = [f"count {k} differs between two traced runs" for k in differing]
    problems += twin_mismatches
    if same_list:
        problems.append("seeds n and n+1 give the same job list")
    report = {
        "traced_jobs": len(jobs), "untraced_s": untraced_s,
        "traced_s": traced_s, "spans": len(first.span_start),
        "spans_file": str(spans.relative_to(ROOT)),
        "determinism": "identical counts" if not differing else differing,
        "kernel_twins": twin_notes, "problems": problems,
    }
    return len(jobs) * 2, failures, layer, report, plan, pkg, problems


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "mullsem" / "__init__.py").is_file():
        print("error: no src/mullsem here; run from the repository root",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: no BENCHMARK.json here", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGALRM, _on_alarm)
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out")
    run = traced_run if args.trace else timed_run
    try:
        attempted, failures, values, report, plan, pkg, problems = run(
            wl, args.workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    unexpected = [f for f in failures if not f["defect"]]
    correct = not unexpected and not problems
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "kernels_backend": pkg._kernels.backend,
              "load": {"loop": "closed", "clients": 1,
                       "job_limit_s": wl.JOB_LIMIT_S},
              "job_list_digest": job_list_digest(plan),
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:20], **report}
    if not args.trace:
        report["end_to_end"] = {**metrics, "failed_ratio": {
            "value": report["failed_ratio"], "unit": "ratio"}}
    else:
        report["extra"] = {k: v for k, v in sorted(values.items())
                           if k not in metrics}
    print(json.dumps({"report": report}))
    for m in declared:
        print(f"  {m['name']:<44}{metrics[m['name']]['value']:>14.6g} "
              f"{m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
