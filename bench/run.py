"""casim benchmark: closure, decide and cli workloads.

    python3 bench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test     # every workload at minimal size
    python3 bench/run.py --record        # re-record bench/digests.json

Run from the root of a checkout; the benchmark imports casim from
``src/`` and writes only under ``.bench_tmp/`` and ``.bench_trace/``.

One caller drives casim's public API in a closed loop: each call is
issued after the previous one returns.  Every pass runs in a fresh
worker process, one process at a time, so nothing cached by casim in
one pass helps the next.  A run first spawns ``SETUP_PROBES``
set-up-only workers, then passes while the next one is expected to end
within ``--seconds`` of the start.

With ``--trace 0`` the run reports the end-to-end metrics: median pass
time (``sweep_s``), per-call latency quantiles pooled over the passes,
median set-up time, and the workers' median peak RSS.  With
``--trace 1`` it runs one untraced pass and then traced passes, and
reports the per-layer metrics of tracing.py (medians over the traced
passes) plus the tracing overhead.  Every output is checked by
construction and against the digest recorded for its op; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
TMP = os.path.join(ROOT, ".bench_tmp")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

sys.path.insert(0, BENCH_DIR)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2
# each CPU of a virtual machine can drift in speed on its own, for
# seconds at a time; pass i runs on CPUS[i % len(CPUS)], so a run samples
# every CPU this process may use rather than whichever the scheduler picks
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
DEADLINE_S = 165.0  # a run must end well inside 180 s
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"sweep_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics that must be nonzero on the workload meant to
# exercise them; a zero here means a wrapper was bypassed
EXERCISED = {
    "closure": (
        "ca_core.enumerate_congruences.s", "ca_core.enumerate_congruences.calls",
        "ca_core.congruences_found", "ca_core.enumerate_subalgebras.s",
        "ca_core.enumerate_subalgebras.calls", "ca_core.subalgebras_found",
        "ca_core.validate.s", "ca_core.restrict.s", "ca_core.restrict.calls",
        "ca_core.quotient.s", "ca_core.quotient.calls", "ca_core.permutivity.s",
        "simulation.closure_members.s", "simulation.closure_members.calls",
        "simulation.members_per_quotient", "simulation.verify_characterization.s",
        "simulation.verify_affine_closure.s", "ca_core.self_s", "simulation.self_s",
    ),
    "decide": (
        "ca_core.validate.s", "ca_core.iterative_power.s", "ca_core.iterative_power.calls",
        "ca_core.product.s", "ca_core.product.calls", "ca_core.table_entries_built",
        "ca_core.are_isomorphic.s", "ca_core.are_isomorphic.calls",
        "ca_core.are_isomorphic.hit_ratio", "ca_core.algebra_fingerprint.s",
        "affine_ca.fit_affine.s", "affine_ca.fit_affine.calls", "affine_ca.fit_affine.hit_ratio",
        "affine_ca.to_table.s", "affine_ca.affine_isomorphism.s",
        "affine_ca.affine_isomorphism.hit_ratio", "simulation.closure_members.s",
        "simulation.closure_members.calls", "simulation.inventory_hit_ratio",
        "simulation.simulates.s", "affine_ca.self_s", "ca_core.self_s", "simulation.self_s",
    ),
    "cli": (
        "ca_core.evolve.s", "affine_ca.e0_evolution.s", "affine_ca.component_matrices.s",
        "affine_ca.check_structure.s", "fp_linalg.common_invariant_subspaces.s",
        "fp_linalg.subspaces_found", "fp_linalg.is_simple.s", "fp_linalg.invariant_closure.calls",
        "cli.main.s", "cli.main.calls", "cli.self_s", "cli.bytes_out", "fp_linalg.self_s",
        "affine_ca.self_s",
    ),
}
# per-layer metrics that must read exactly zero: closure inventories are built cold
ZERO = {"closure": ("simulation.inventory_hit_ratio",)}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, *, pass_index: int = 0, trace: int = 0,
          smoke: bool = False, digests: str = DIGESTS,
          timeout: float = WORKER_TIMEOUT_S) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and wall time."""
    workdir = os.path.join(TMP, f"{os.getpid()}-{workload}-{mode}")
    spans = os.path.join(TRACE_DIR, f"{workload}.spans.jsonl") if trace else None
    if spans:
        os.makedirs(TRACE_DIR, exist_ok=True)
    spawned = time.monotonic()
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--spawned", repr(spawned), "--trace", str(trace),
            "--smoke", str(int(smoke)), "--pass-index", str(pass_index),
            "--cpu", str(CPUS[pass_index % len(CPUS)] if CPUS else -1),
            "--digests", digests, "--workdir", workdir]
    if spans:
        argv += ["--spans", spans]
    # workers cache casim's bytecode as an installed package would, so
    # set-up time does not depend on the caller's environment; a fixed
    # hash seed keeps set and dict orders the same in every pass
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker exceeded {timeout:.0f} s") from exc
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1]), wall


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        digests: str = DIGESTS) -> dict:
    started = time.monotonic()
    setups = [spawn(workload, seed, "setup", pass_index=i, smoke=smoke,
                    digests=digests)[0]["setup_s"]
              for i in range(SETUP_PROBES)]
    passes: list[dict] = []
    walls: list[float] = []
    untraced = None
    if trace:
        untraced, _ = spawn(workload, seed, "pass", smoke=smoke, digests=digests)
        untraced["pass_index"] = 0
    # the set-up probes count against --seconds: a pass starts only when
    # it is expected to end within it (the first pass always runs)
    while True:
        remaining = DEADLINE_S - (time.monotonic() - started)
        result, wall = spawn(workload, seed, "pass", pass_index=len(passes), trace=int(trace),
                             smoke=smoke, digests=digests,
                             timeout=max(10.0, min(WORKER_TIMEOUT_S, remaining)))
        result["pass_index"] = len(passes)
        passes.append(result)
        walls.append(wall)
        elapsed = time.monotonic() - started
        estimate = statistics.median(walls)
        if elapsed + estimate > seconds or elapsed + 1.5 * estimate > DEADLINE_S:
            break

    everything = passes + ([untraced] if untraced else [])
    setups += [p["setup_s"] for p in everything]
    attempted = sum(p["ops"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    problems = [f"{f['op']}: {'; '.join(f['problems'])}" for f in failures]
    # passes whose index is the same modulo VARIANTS run the same inputs
    # and must agree on the workload digest
    by_variant: dict[int, set] = {}
    for p in everything:
        by_variant.setdefault(p["pass_index"] % workloads.VARIANTS, set()).add(p["digest"])
    for index, seen in sorted(by_variant.items()):
        if len(seen) > 1:
            problems.append(f"passes {index} mod {workloads.VARIANTS} disagree on the "
                            f"workload digest: {sorted(seen)}")
    digests_seen = sorted(set().union(*by_variant.values()))

    latencies = [x for p in passes for x in p["latencies_s"]]
    info = {"passes": len(passes), "calls": len(latencies), "setup_samples": len(setups),
            "digests": len(digests_seen),
            "sweeps": [p["sweep_s"] for p in passes]}
    if not trace:
        metrics = {
            "sweep_s": statistics.median(p["sweep_s"] for p in passes),
            "call_p50_ms": 1000.0 * quantile(latencies, 50),
            "call_p90_ms": 1000.0 * quantile(latencies, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS
    else:
        units = tracing.metric_units()
        metrics = {name: statistics.median(p["layers"][name] for p in passes)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p["sweep_s"] for p in passes)
                                       - untraced["sweep_s"])
        info["untraced_sweep_s"] = untraced["sweep_s"]
        if not smoke:
            for name in EXERCISED.get(workload, ()):
                if not metrics[name]:
                    problems.append(f"trace: {name} is 0 on {workload}; a wrapper was bypassed")
            for name in ZERO.get(workload, ()):
                if metrics[name]:
                    problems.append(f"trace: {name} is {metrics[name]} on {workload}, expected 0")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info,
        "problems": problems,
    }


def report(result: dict, workload: str) -> None:
    """Human-readable summary, then the JSON result as the last line."""
    info = result["info"]
    print(f"workload {workload}: {info['passes']} passes, {info['calls']} timed calls, "
          f"{info['setup_samples']} set-up samples, {info['digests']} workload digests")
    print("  per-pass sweep_s: " + " ".join(f"{x:.3f}" for x in info["sweeps"]))
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  ops_failed = {result['failed']} of ops = {result['attempted']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def record() -> int:
    """Re-record the digest of every op variant at this commit."""
    merged: dict[str, str] = {}
    status = 0
    for workload in workloads.WORKLOADS:
        result, wall = spawn(workload, 0, "record", timeout=900.0)
        merged.update(result["digests"])
        for failure in result["failures"]:
            print(f"{failure['op']}: {failure['problems']}", file=sys.stderr)
            status = 1
        print(f"{workload}: {len(result['digests'])} op variants recorded in {wall:.1f} s")
    if status == 0:
        with open(DIGESTS, "w", encoding="ascii") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def self_test() -> int:
    """Every workload at minimal size, in both modes: every metric named
    in BENCHMARK.json is printed with its unit, and a wrong recorded
    digest makes the gate fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        spec = json.load(handle)
    errors = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload, 1, 1.0, trace, smoke=True)
            if not result["correct"]:
                errors.append(f"{workload} trace={int(trace)}: {result['problems']}")
            for metric in spec[section]:
                entry = result["metrics"].get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    errors.append(f"{workload}: {metric['name']} [{metric['unit']}] "
                                  f"printed as {entry}")
        good, _ = spawn(workload, 1, "pass", smoke=True)
        for failure in good["failures"]:
            errors.append(f"{workload}: {failure}")
        with open(DIGESTS, encoding="ascii") as handle:
            tampered = {key: "0" * 64 for key in json.load(handle)}
        os.makedirs(TMP, exist_ok=True)
        path = os.path.join(TMP, f"tampered-{workload}.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(tampered, handle)
        try:
            bad, _ = spawn(workload, 1, "pass", smoke=True, digests=path)
        finally:
            os.remove(path)
        if len(bad["failures"]) != bad["ops"]:
            errors.append(f"{workload}: {bad['ops'] - len(bad['failures'])} ops passed "
                          "against wrong recorded digests")
        print(f"self-test {workload}: {'ok' if not errors else 'FAILED'}")
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the running
    # worker and waits for it to end
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "casim", "__init__.py")):
        print(f"run.py: no casim sources under {ROOT}/src; run from a casim checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            return record()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(result, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
