"""Membership-query benchmark for fmpsat.

    python3 perfbench/run.py --workload relevancy-sdd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. fmpsat is imported from ``src/`` of
that checkout and nowhere else. Workloads: ``desk-scale``,
``relevancy-sdd``, ``encode-dimacs`` (see README.md). The run repeats
whole rounds of the workload's operations until ``--seconds`` have
passed, checks every answer against the oracles in ``oracle.py``, and
prints one JSON line last: the end-to-end metrics with ``--trace 0``,
the per-layer split from spans around fmpsat's functions with
``--trace 1``. ``--smoke`` runs the workload at toy size in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 5
IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import numpy, fmpsat, fmpsat.cli"


def import_fmpsat():
    """fmpsat from the checkout's ``src``; anything else is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fmpsat
        import fmpsat.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fmpsat from {src}: {exc}") from None
    if Path(fmpsat.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: fmpsat was imported from {fmpsat.__file__}, not {src}")
    return fmpsat


def start_up_time() -> float:
    """Wall time for a fresh interpreter to start and import fmpsat."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def median_of_medians(keys, durations) -> float:
    """Median over a round's distinct operations of each one's median time.

    A plain median of all times lands on the edge between two groups of
    repeated operations whenever a round repeats some of them, and then
    follows the fastest repeat of one query rather than a typical one."""
    by_key: dict[str, list[float]] = {}
    for key, dt in zip(keys, durations):
        by_key.setdefault(key, []).append(dt)
    return statistics.median(statistics.median(v) for v in by_key.values())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    F = import_fmpsat()
    sys.path.insert(0, str(HERE))
    import calibrate
    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    oracle.self_check()
    workdir = HERE / f".work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
    wl = workloads.WORKLOADS[args.workload](F, args.seed, workdir, sizes)
    wl.prepare()

    # set-up: a fresh interpreter importing fmpsat, then the program's own
    # set-up of this workload (parsing, adapters, warm-up); medians of repeats
    speed = calibrate.Sampler()
    start_up, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start_up.append(start_up_time())
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    speed.sample()
    raw_setup_s = statistics.median(start_up) + statistics.median(setup_times)
    setup_s = raw_setup_s * speed.scale(speed.at[0], speed.at[-1])

    # the traced run reports raw times, so no timer interrupts its spans
    tracer = tracing.Tracer() if args.trace else None
    speed = calibrate.Sampler()
    records, keys, raw, windows, failed = [], [], [], [], 0
    after_op = getattr(wl, "after_op", None)
    rounds = 0
    while rounds == 0 or sum(raw) < args.seconds:
        ops = wl.make_ops()
        if tracer:
            tracer.install()
        with speed if not tracer else contextlib.nullcontext():
            for key, op in ops:
                t0, paused = time.perf_counter(), speed.paused
                try:
                    rec = op()
                except Exception:  # an operation without an answer; the run goes on
                    rec = None
                    print(f"failed: {key}", file=sys.stderr)
                    traceback.print_exc(limit=1)
                t1 = time.perf_counter()
                keys.append(key)
                raw.append(t1 - t0 - (speed.paused - paused))
                windows.append((t0, t1))
                if rec is None:
                    failed += 1
                else:
                    records.append(rec)
                    if after_op:
                        after_op(rec)
        if tracer:
            tracer.uninstall()
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = sum(raw)
    attempted = len(raw)
    answered = attempted - failed

    wl.check(records)
    for problem in wl.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, {attempted} attempted, {failed} failed; raw: "
          f"operations {timed:.3f} s, median {statistics.median(raw):.4f} s, "
          f"set-up {raw_setup_s:.3f} s", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
                   for name, value in tracing.layer_metrics(tracer.spans, timed, attempted).items()}
    else:
        # wall times at the reference machine speed (see calibrate.py)
        speed.sample()
        durations = [dt * speed.scale(t0, t1) for dt, (t0, t1) in zip(raw, windows)]
        q = statistics.quantiles(durations, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "query_p50_s": {"value": median_of_medians(keys, durations), "unit": "s"},
            "query_p90_s": {"value": q[-1], "unit": "s"},
            "queries_per_s": {"value": answered / sum(durations), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "cnf_clauses_mean": {"value": statistics.fmean(r.clauses for r in records)
                                 if records else 0.0, "unit": "clauses"},
        }
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not wl.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
