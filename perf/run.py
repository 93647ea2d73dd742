"""Run the benchmark described by ``BENCHMARK.json``.

One run is one workload in a fresh process::

    python3 perf/run.py --workload steady_deep --seed 0 --seconds 10 --trace 0

It prints every metric by name with its unit, the exact counts, a
``sim_digest`` over them, and — as the last line of standard output —
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (the default) measures the end-to-end metrics;
``--trace 1`` repeats a simulator workload at a fifth of the size with
the boundary wrappers of ``perf/trace.py`` installed and reports the
per-layer metrics instead. ``--all`` runs every workload, one
subprocess after the other, and prints one table; ``--aa N`` runs N
such sets back to back and holds them against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perf" / "results"
# Run as a script, sys.path[0] is perf/ — which would let perf/trace.py
# shadow the standard library's ``trace``. Import through the package.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

#: Share of the untraced size the traced run repeats.
TRACE_SHARE = 0.2
#: Set-up is repeated at least this often (and until it has taken
#: MIN_SETUP_SECONDS in total, for set-ups of a few milliseconds); the
#: run reports the median.
MIN_SETUPS, MAX_SETUPS, MIN_SETUP_SECONDS = 3, 40, 0.3


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, calib_ns: float) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine.calib_loop_ns": calib_ns,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------
def timed_setup(workload, seed: int, budget: float) -> Tuple[Any, List[float]]:
    """Set up repeatedly; keep the last state and every duration."""
    times: List[float] = []
    state = None
    while len(times) < MIN_SETUPS or (
        sum(times) < MIN_SETUP_SECONDS and len(times) < MAX_SETUPS
    ):
        state = None  # drop the previous build before making the next
        start = perf_counter()
        state = workload.setup(seed, budget)
        times.append(perf_counter() - start)
    return state, times


def quartiles_of(samples: List[float]) -> Tuple[float, float]:
    """First and third quartile, as the acceptance procedure takes them."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = quantiles(samples, n=4)
    return q1, q3


def measure(workload, args) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The untraced run: end-to-end metrics plus a detail record."""
    from perf.probes import calib_loop_ns
    from perf.workloads import Region

    budget = args.seconds * args.scale
    state, setups = timed_setup(workload, args.seed, budget)
    region = Region()
    outcome = workload.run(state, args.seed, budget, region)
    metrics = {
        "tokens_per_s": median(outcome.samples),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, q3 = quartiles_of(outcome.samples)
    detail = {
        "workload": workload.name,
        "trace": 0,
        "environment": environment(args, calib_loop_ns()),
        "timed_seconds": region.seconds,
        "tokens_per_s_quartiles": [q1, q3],
        "tokens_per_s_samples": outcome.samples,
        "setup_s_samples": setups,
        "failed_ops_share": outcome.failed / outcome.attempted,
        "counts": outcome.counts,
        "layer": outcome.layer,
        "sim_digest": outcome.digest(),
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    return metrics, detail


def trace(workload, args, layer_names: List[str]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The traced run: per-layer metrics plus a detail record."""
    from perf.probes import calib_loop_ns, run_probes
    from perf.trace import Tracer, calibrate
    from perf.workloads import Region

    # Only a pass that is traced is slowed down, so only that is cut.
    budget = args.seconds * args.scale * (TRACE_SHARE if workload.traced else 1.0)
    calib_ns = calib_loop_ns()
    metrics = dict.fromkeys(layer_names, 0.0)
    metrics["machine.calib_loop_ns"] = calib_ns
    metrics.update(run_probes())

    region = Region()
    outcome = workload.run(workload.setup(args.seed, budget), args.seed, budget, region)
    metrics.update(outcome.layer)
    detail: Dict[str, Any] = {}
    if hasattr(workload, "extras"):
        metrics.update(workload.extras(args.seed, budget, outcome))
    problems = list(outcome.problems)
    if workload.traced:
        inside_ns, outside_ns = calibrate()
        tracer = Tracer()
        tracer.install()
        try:
            state = workload.setup(args.seed, budget)
            traced = workload.run(
                state, args.seed, budget, Region(tracer.begin, tracer.end)
            )
        finally:
            tracer.uninstall()
        if traced.digest() != outcome.digest():
            problems.append("the traced pass did not repeat the untraced counts")
        problems.extend(traced.problems)
        # The wrappers cost more in a real run than around a no-op in
        # a loop (argument tuples, cache misses, extra collections), so
        # the loop only fixes how the cost splits; its size is what the
        # traced pass took longer than the untraced pass, per span.
        spans = tracer.span_count()
        wrapper_ns = max(0.0, (tracer.wall_ns - region.seconds * 1e9) / spans)
        stretch = wrapper_ns / (inside_ns + outside_ns)
        inside_ns, outside_ns = inside_ns * stretch, outside_ns * stretch
        ledger = tracer.ledger(inside_ns, outside_ns)
        boundaries, net_ns = ledger["boundaries"], ledger["net_ns"]
        for layer, entry in ledger["layers"].items():
            metrics[layer + ".self_share"] = entry["self_share"]

        def per_call_ms(name: str) -> float:
            return boundaries[name]["inclusive_ms_per_call"]

        ledger_ops = (
            boundaries["TokenLedger.post"]["calls"]
            + boundaries["TokenLedger.settle"]["calls"]
        )
        hops = outcome.counts["hops"]
        metrics.update(
            {
                "runtime.system.retire_self_share": max(
                    0.0,
                    boundaries["AdaptiveCountingSystem.retire_token"]["self_ns"] / net_ns,
                ),
                "core.atomics.ledger_ops_per_hop": ledger_ops / hops if hops else 0.0,
                "runtime.membership.join_ms": per_call_ms("MembershipManager.join"),
                "runtime.membership.leave_ms": per_call_ms("MembershipManager.leave"),
                "runtime.membership.crash_ms": per_call_ms("MembershipManager.crash"),
                "runtime.reconfig.split_ms": per_call_ms("Reconfigurator.split"),
                "runtime.reconfig.merge_ms": per_call_ms("Reconfigurator.merge"),
                "runtime.stabilization.recover_ms": per_call_ms("Stabilizer.stabilize"),
                "trace.overhead_ratio": ledger["wall_ns"] / 1e9 / region.seconds,
                "trace.wrapper_ns": wrapper_ns,
                "trace.coverage": ledger["coverage"],
            }
        )
        detail.update(
            ledger=ledger,
            wrapper_ns={"inside": inside_ns, "outside": outside_ns},
            spans=tracer.spans(),
        )
    detail.update(
        workload=workload.name,
        trace=1,
        environment=environment(args, calib_ns),
        timed_seconds=region.seconds,
        counts=outcome.counts,
        sim_digest=outcome.digest(),
        problems=problems,
        attempted=outcome.attempted,
        failed=outcome.attempted if problems else outcome.failed,
    )
    return metrics, detail


def print_run(workload, args, metrics, units, detail) -> None:
    print(
        "workload %s  seed %d  seconds %g  scale %g  trace %d"
        % (workload.name, args.seed, args.seconds, args.scale, args.trace)
    )
    for name, value in metrics.items():
        print("  %-42s %-8s %.6g" % (name, units[name], value))
    if not args.trace:
        print(
            "  tokens_per_s quartiles %.6g .. %.6g over %d units, set-up median of %d"
            % (
                *detail["tokens_per_s_quartiles"],
                len(detail["tokens_per_s_samples"]),
                len(detail["setup_s_samples"]),
            )
        )
        print(
            "  failed_ops_share %g (%d of %d)"
            % (detail["failed_ops_share"], detail["failed"], detail["attempted"])
        )
        for name, value in detail["layer"].items():
            print("  layer %-36s %.6g" % (name, value))
    elif "ledger" in detail:
        ledger = detail["ledger"]
        print("  ledger: %d spans, %.3f s traced, %.3f s net of wrapper cost"
              % (ledger["calls"], ledger["wall_ns"] / 1e9, ledger["net_ns"] / 1e9))
        for name, entry in sorted(
            ledger["boundaries"].items(), key=lambda item: -item[1]["self_ns"]
        ):
            if entry["calls"]:
                print(
                    "    %-40s %-22s %9d calls  self %8.1f ms"
                    % (name, entry["layer"], entry["calls"], entry["self_ns"] / 1e6)
                )
    print("  counts " + json.dumps(detail["counts"], sort_keys=True))
    print("  sim_digest " + detail["sim_digest"])
    for problem in detail["problems"]:
        print("  CHECK FAILED: " + problem)


def run_one(args, spec) -> int:
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if args.trace:
        metrics, detail = trace(workload, args, list(units))
    else:
        metrics, detail = measure(workload, args)
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        print("metrics and BENCHMARK.json disagree on: %s" % ", ".join(odd), file=sys.stderr)
        return 3
    print_run(workload, args, metrics, units, detail)
    detail["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    path = RESULTS / ("%s-%s-%d.json" % (kind, workload.name, args.seed))
    with open(path, "w") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": not detail["problems"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_child(args, workload: str, seed: int, traced: int) -> Optional[Dict[str, Any]]:
    """One workload in its own process; its result line, or None if it
    crashed or a check failed (its output is then shown)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(traced),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        print("%s seed %d trace %d: FAILED" % (workload, seed, traced))
        return None
    if traced:
        print("\n".join(lines[:-1]))
    return result


def run_all(args, spec) -> int:
    """Every workload in turn (never two at once on a 2-core box)."""
    names = [workload["name"] for workload in spec["workloads"]]
    ok = True
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        if traced and not args.trace:
            break
        declared = {metric["name"]: metric["unit"] for metric in spec[section]}
        results = {}
        for name in names:
            result = run_child(args, name, args.seed, traced)
            results[name] = result
            if result is None:
                ok = False
            elif {k: v["unit"] for k, v in result["metrics"].items()} != declared:
                print("%s: metric names or units differ from BENCHMARK.json" % name)
                ok = False
        print("\n%-42s %-8s %s" % (section, "unit", " ".join("%17s" % n for n in names)))
        for metric, unit in declared.items():
            cells = [
                "%17.6g" % results[name]["metrics"][metric]["value"]
                if results[name] and metric in results[name]["metrics"]
                else "%17s" % "-"
                for name in names
            ]
            print("%-42s %-8s %s" % (metric, unit, " ".join(cells)))
    return 0 if ok else 1


def run_aa(args, spec) -> int:
    """``--aa N``: N sets of the same code, held against the bounds.

    A set is every workload on seeds ``seed .. seed+K-1`` (``--seeds
    K``). Between consecutive sets no median may worsen by more than
    the metric's bound, and every exact count must repeat. With four
    or more seeds the spread of each set (quartile distance over
    median, as the acceptance procedure takes it) is printed against
    the bound too; ``setup_s`` is exempt from that one.
    """
    names = [workload["name"] for workload in spec["workloads"]]
    seeds = range(args.seed, args.seed + args.seeds)
    ok = True
    sets: List[Dict[Tuple[str, str], List[float]]] = []
    digests: List[Dict[Tuple[str, int], str]] = []
    for index in range(args.aa):
        values: Dict[Tuple[str, str], List[float]] = {}
        digest: Dict[Tuple[str, int], str] = {}
        for name in names:
            for seed in seeds:
                result = run_child(args, name, seed, 0)
                if result is None:
                    return 1
                for metric, entry in result["metrics"].items():
                    values.setdefault((name, metric), []).append(entry["value"])
                with open(RESULTS / ("run-%s-%d.json" % (name, seed))) as handle:
                    digest[name, seed] = json.load(handle)["sim_digest"]
        sets.append(values)
        digests.append(digest)
        print("set %d done" % index)
    print("%-18s %-14s %6s %s" % ("workload", "metric", "bound", "per set: median (spread)"))
    for metric in spec["end_to_end"]:
        bound, sign = metric["bound"], 1 if metric["better"] == "lower" else -1
        for name in names:
            column = [values[name, metric["name"]] for values in sets]
            medians = [median(samples) for samples in column]
            cells, notes = [], []
            for samples, middle in zip(column, medians):
                cell = "%.5g" % middle
                if len(samples) >= 4:
                    q1, q3 = quartiles_of(samples)
                    spread = (q3 - q1) / middle
                    cell += " (%.1f%%)" % (100 * spread)
                    if metric["name"] == "setup_s":
                        pass
                    elif spread > bound:
                        notes.append("SPREAD OVER THE BOUND")
                        ok = False
                    elif spread > bound / 3:
                        notes.append("spread over a third of the bound")
                cells.append(cell)
            for first, second in zip(medians, medians[1:]):
                if sign * (second - first) / first > bound:
                    notes.append("WORSE BY MORE THAN THE BOUND")
                    ok = False
            print(
                "%-18s %-14s %6g %s  %s"
                % (name, metric["name"], bound, "  ".join(cells), "; ".join(notes))
            )
    for digest in digests[1:]:
        for key in digest:
            if digest[key] != digests[0][key]:
                print("%s seed %d: sim_digest differs between sets" % key)
                ok = False
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed region runs on the reference box")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies --seconds; 0.02 is the size the tests use")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--seeds", type=int, default=1, metavar="K")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro next to perf/: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.aa:
        return run_aa(args, spec)
    if args.all:
        return run_all(args, spec)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of: %s" % ", ".join(names))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
