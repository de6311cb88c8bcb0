"""One benchmark pass in a fresh process.

Run by run.py, never by hand.  The worker imports casim from the
checkout's ``src/``, builds the workload's inputs from the seed, and
then, depending on ``--mode``:

* ``setup``: reports the set-up time only;
* ``pass``: issues every call in a closed loop (each call after the
  previous one returns), timing each, then checks every output and
  compares its digest with the one recorded in the digest file;
* ``record``: runs every variant of every op and prints their digests.

Set-up time runs from the parent's spawn timestamp (``--spawned``, on
the system-wide monotonic clock) to the moment the inputs are built, so
it includes interpreter start, the import of casim and input building.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def import_casim():
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "casim", "__init__.py")):
        raise SystemExit(f"worker: no casim package under {source}")
    sys.path.insert(0, source)
    import casim
    import casim.cli  # noqa: F401  (the cli module is not imported by the package)
    if not os.path.abspath(casim.__file__).startswith(source + os.sep):
        raise SystemExit(f"worker: imported casim from {casim.__file__}, not {source}")
    return casim


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "record"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="rotates each op's input variant (see workloads.py)")
    parser.add_argument("--digests", default=os.path.join(BENCH_DIR, "digests.json"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the raw spans of a traced pass")
    parser.add_argument("--cpu", type=int, default=-1, help="the CPU to run on (-1: any)")
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    casim = import_casim()
    sys.path.insert(0, BENCH_DIR)
    import tracing
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        tracer_ref = [None]
        if args.mode == "record":
            return record(casim, workloads, args)
        ops = workloads.build(casim, args.workload, args.seed, args.workdir, tracer_ref,
                              smoke=bool(args.smoke), pass_index=args.pass_index)
        setup_s = time.monotonic() - args.spawned
        if args.mode == "setup":
            emit({"setup_s": setup_s})
            return 0
        with open(args.digests, encoding="ascii") as handle:
            recorded = json.load(handle)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(casim)
            tracer_ref[0] = tracer
        outcomes = []
        latencies = []
        clock = time.perf_counter
        started = clock()
        for op in ops:
            before = clock()
            try:
                outcomes.append((op.call(), None))
            except Exception:  # a failed call is counted, not fatal
                outcomes.append((None, traceback.format_exc(limit=3)))
            latencies.append(clock() - before)
        sweep_s = clock() - started
        layers = None
        if tracer is not None:
            tracer.uninstall()
            tracer_ref[0] = None
            layers = tracer.metrics()
            if args.spans:
                tracer.write(args.spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        digests = {}
        for op, (result, error) in zip(ops, outcomes):
            problems = [error] if error else check(op, result, recorded, digests,
                                                        workloads.digest)
            if problems:
                failures.append({"op": op.key, "problems": problems})
        emit({
            "setup_s": setup_s,
            "sweep_s": sweep_s,
            "latencies_s": latencies,
            "peak_rss_mb": peak_rss_mb,
            "ops": len(ops),
            "failures": failures,
            "digest": workloads.digest(sorted(digests.items())),
            "layers": layers,
        })
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def check(op, result, recorded: dict, digests: dict, digest) -> list[str]:
    """Problems with one op's output: its by-construction check, then
    the digest recorded for its key."""
    try:
        problems = op.check(result)
        value = digest(op.encode(result))
    except Exception:
        return [traceback.format_exc(limit=3)]
    digests[op.key] = value
    expected = recorded.get(op.key)
    if expected is None:
        problems.append("no digest recorded for this op")
    elif expected != value:
        problems.append(f"digest {value[:16]} != recorded {expected[:16]}")
    return problems


def record(casim, workloads, args) -> int:
    """Digests of every op variant of the workload, and the ops whose
    by-construction check failed (run.py then refuses to record)."""
    out = {}
    bad = []
    for op in workloads.all_variants(casim, args.workload, args.workdir):
        result = op.call()
        problems = op.check(result)
        if problems:
            bad.append({"op": op.key, "problems": problems})
        out[op.key] = workloads.digest(op.encode(result))
    emit({"digests": out, "failures": bad})
    return 0


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
