"""Record the golden answers and cost classes the workloads draw from.

Run from the repository root on the code whose answers are the
reference:

    python3 perfbench/make_golden.py [--only NAME]

It runs every input of the workload grammars, keeps those that end in an
answer within the time limit, stores a digest of each answer and the
input's time, and groups inputs into the cost classes of CLASS_RANGES.
Fixpoint inputs already recorded keep their answer and time.
The classes only balance rounds; no check reads the times.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import mullsem  # noqa: E402
import mullsem.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402
from oracles import digest  # noqa: E402

LIMIT_S = 5  # above the heaviest class
WARMUP = 3
# cost classes, in seconds of one job on the reference code: a round of
# the benchmark takes one input of each class (three of a class listed
# three times), so rounds cost the same at any seed.  The median of a
# run falls inside a middle class, its tail inside one of the two
# heaviest.  The heaviest totality class holds the headline case and the
# seven nested-binder jobs nearest to it in time; every run runs all eight.
CLASS_RANGES = {
    "totality-fixpoints": ((3.35, 4.0),) + ((0.59, 0.85),) * 3
                          + ((0.0107, 0.0154),) * 3 + ((0.0012, 0.002),) * 3,
    "dualization": ((0.001, 0.0014), (0.0154, 0.022), (0.038, 0.055),
                    (0.44, 0.58)),
}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def attempt(call, limit=LIMIT_S):
    """(True, answer, seconds) or (False, reason, None) for one call."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        answer = call()
    except _Timeout:
        return False, "timeout", None
    except Exception as exc:  # every failure just excludes the input
        return False, type(exc).__name__, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return True, answer, time.perf_counter() - start


def measure(call, repeat=5):
    """(answer, median seconds) over a few calls, or (reason, None)."""
    ok, answer, seconds = attempt(call)
    if not ok:
        return answer, None
    times = [seconds]
    while sum(times) < 1.0 and len(times) < repeat:
        ok, again, seconds = attempt(call)
        if not ok:
            return again, None
        if digest(again) != digest(answer):
            raise SystemExit(f"answer changed between runs of {call}")
        times.append(seconds)
    return answer, round(statistics.median(times), 5)


def write(name, data):
    path = HERE / "golden" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def log(key, result):
    print(f"{key}: {result}", file=sys.stderr, flush=True)


def measure_all(jobs, known=None):
    """Digests, seconds and skip reasons of (key, call) pairs; keys already
    recorded in ``known`` (a golden file's contents) keep their record."""
    known = known or {"digests": {}, "seconds": {}, "skipped": {}}
    digests, seconds, skipped = {}, {}, {}
    for key, call in jobs:
        if key in known["seconds"]:
            digests[key] = known["digests"][key]
            seconds[key] = known["seconds"][key]
            continue
        if key in known["skipped"]:
            skipped[key] = known["skipped"][key]
            continue
        answer, t = measure(call)
        log(key, t if t is not None else answer)
        if t is None:
            skipped[key] = answer
        else:
            digests[key], seconds[key] = digest(answer), t
    return digests, seconds, skipped


def classify(name, data):
    timed = {k: t for k, t in data["seconds"].items()
             if k not in data["warmup"]}
    if name == "dualization":  # its formula jobs form a class of their own
        timed = {k: t for k, t in timed.items() if k.startswith("dual|")}
    data["classes"] = [sorted(k for k, t in timed.items() if lo <= t < hi)
                       for lo, hi in CLASS_RANGES[name]]
    data["class_seconds"] = CLASS_RANGES[name]


def recorded(name):
    path = HERE / "golden" / f"{name}.json"
    return wl.load_golden(name) if path.exists() else None


def golden_totality():
    keys = wl.fixpoint_candidates()
    digests, seconds, skipped = measure_all(
        ((k, wl.fixpoint_job(mullsem, {}, k).call) for k in keys),
        recorded("totality-fixpoints"))
    cheap = sorted((k for k, t in seconds.items() if t < 0.001),
                   key=seconds.get)
    data = {"digests": digests, "seconds": seconds, "skipped": skipped,
            "warmup": cheap[-WARMUP:]}
    classify("totality-fixpoints", data)
    heavy = data["classes"][0]
    if wl.HEADLINE not in heavy or \
            len(heavy) != wl.MAX_ROUNDS["totality-fixpoints"]:
        raise SystemExit(f"heaviest class {heavy} needs the headline and "
                         f"{wl.MAX_ROUNDS['totality-fixpoints']} jobs")
    write("totality-fixpoints", data)


def golden_dualization():
    formulas = wl.dual_formula_candidates()
    digests, seconds, skipped = measure_all(
        (k, wl.fixpoint_job(mullsem, {}, k).call) for k in formulas)

    def checked(job):
        def call():
            answer = job.call()
            job.check(answer)
            return [list(family.minima) for family in answer[1:]]
        return call

    _, dual_seconds, dual_skipped = measure_all(
        (k, checked(wl.dual_job(mullsem, k))) for k in wl.dual_candidates())
    seconds.update(dual_seconds)
    skipped.update(dual_skipped)
    kept = sorted(k for k in formulas if k in digests)
    cheap = sorted(dual_seconds, key=dual_seconds.get)[:1]
    data = {"digests": digests, "seconds": seconds, "skipped": skipped,
            "formulas": kept[WARMUP:], "warmup": kept[:WARMUP] + cheap}
    classify("dualization", data)
    write("dualization", data)


def phase_classes(data):
    """Exhaustive searches within 15% of their median time (they set the
    tail) and sweeps within 50% of theirs (they set the median)."""
    none = digest(None)
    searches = {k: t for k, t in data["seconds"].items()
                if k.startswith("search|5|")}
    exhaustive = {k[9:]: t for k, t in searches.items()
                  if data["digests"][k] == none}
    sweeps = {k[8:]: t for k, t in data["seconds"].items()
              if k.startswith("sweep|3|") and k[8:] not in data["warmup"]}

    def near_median(costs, spread):
        median = statistics.median(costs.values())
        return sorted(t for t, s in costs.items()
                      if abs(math.log(s / median)) < math.log(spread))
    data["exhaustive"] = near_median(exhaustive, 1.15)
    data["sweeps"] = near_median(sweeps, 1.5)
    data["early"] = sorted(k[9:] for k, t in searches.items()
                           if data["digests"][k] != none and t < 0.01
                           and k[9:] not in data["warmup"])


def golden_phase():
    texts = wl.phase_formulas()
    jobs = [wl.search_job(mullsem, {}, t) for t in texts]
    jobs += [wl.sweep_job(mullsem, {}, t) for t in texts]
    digests, seconds, skipped = measure_all((j.key, j.call) for j in jobs)
    none = digest(None)
    warmup = sorted(t for t in texts if digests.get(f"search|5|{t}", none)
                    != none and seconds[f"search|5|{t}"] < 0.01)[:WARMUP]
    for text in warmup:
        job = wl.search_job(mullsem, {}, text, 3)
        digests[job.key] = digest(job.call())
    data = {"warmup": warmup, "digests": digests, "seconds": seconds,
            "skipped": skipped}
    phase_classes(data)
    write("phase-search", data)


def golden_cli():
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for i, (elements, _, _) in enumerate(wl.CLI_SPACES):
            for pole in range(1, 1 << len(elements)):
                Path(tmp, f"space-{i}-{pole}").write_text(
                    wl.space_text(i, pole), encoding="utf-8")
        for argv in wl.cli_golden_commands():
            argv = [str(Path(tmp, a)) if a.startswith("space-") else a
                    for a in argv]
            answer = wl.run_cli_inprocess(mullsem, argv)
            key = wl.cli_key(argv)
            log(key, answer[0])
            if answer[0] != 0:
                raise SystemExit(f"golden command failed: {key}: {answer[2]}")
            digests[key] = digest(wl.cli_parse(answer))
    write("cli-batch", {"digests": digests})


BUILDERS = {"totality-fixpoints": golden_totality,
            "dualization": golden_dualization,
            "phase-search": golden_phase,
            "cli-batch": golden_cli}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(BUILDERS))
    args = parser.parse_args()
    for name, build in BUILDERS.items():
        if args.only in (None, name):
            build()


if __name__ == "__main__":
    main()
