"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the grow/converge/shrink lifecycle and print what happens.
``tree``
    Print the decomposition tree ``T_w`` (optionally with a cut).
``run``
    Build a system, converge it, push tokens, print metrics and the
    output histogram.
``estimate``
    Show the Section 3.1 size-estimation accuracy for a given N.
``check``
    Static invariant analysis (``repro.staticcheck``): certify network
    structure and the step property for small widths, validate cuts,
    lint the codebase (``--lint``), bounded-model-check the runtime
    over all small-scope schedules (``--model-check``), re-run the
    scenario library under adversarial same-timestamp orders
    (``--sanitize [N]``), or print the long-form explanation of any
    diagnostic code (``--explain``). Every pass asked for runs.
``trace``
    Run one library scenario (``repro.scenarios``) fully traced
    (``repro.obs``) and export it as Chrome ``trace_event`` JSON
    (Perfetto-loadable) plus optional metrics JSONL.
``smoke``
    Run the declarative scenario library (``repro.scenarios``) as a
    parallel matrix of worker processes — per-scenario CPU and wall
    budgets, crashes and verify-failures reported distinctly — and
    check every scenario's trace-hash fingerprint against the
    committed ``SCENARIO_FINGERPRINTS.json``
    (``--update-fingerprints`` regenerates it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.render import render_network, render_step_histogram, render_tree
from repro.chord.estimation import SizeEstimator
from repro.chord.ring import ChordRing
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.errors import StructureError
from repro.runtime.system import AdaptiveCountingSystem


def _checked_int(accept, requirement: str):
    """An argparse ``type=`` for an integer that must satisfy ``accept``:
    a bad value is a usage error (exit 2, the flag named on stderr)."""

    def integer(text: str) -> int:
        value = int(text)
        if not accept(value):
            raise argparse.ArgumentTypeError("must be %s, got %d" % (requirement, value))
        return value

    return integer


_width = _checked_int(lambda w: w >= 2 and w & (w - 1) == 0, "a power of two >= 2")
_node_count = _checked_int(lambda n: n >= 1, ">= 1")
_token_count = _checked_int(lambda n: n >= 0, ">= 0")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=_width, default=64, help="network width (power of two)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def cmd_demo(args) -> int:
    system = AdaptiveCountingSystem(width=args.width, seed=args.seed)
    print("start: 1 node, 1 component (the whole BITONIC[%d])" % args.width)
    for target in (args.nodes // 4 or 2, args.nodes):
        while system.num_nodes < target:
            system.add_node()
        system.converge()
        metrics = system.metrics()
        print(
            "N=%-4d components=%-4d effective width=%-3d depth=%-3d splits=%d merges=%d"
            % (
                system.num_nodes,
                metrics.num_components,
                metrics.effective_width,
                metrics.effective_depth,
                system.stats.splits,
                system.stats.merges,
            )
        )
    values = [system.next_value() for _ in range(10)]
    print("ten counter values:", values)
    while system.num_nodes > 2:
        system.remove_node()
    system.converge()
    print(
        "shrunk to N=%d: components=%d merges=%d"
        % (system.num_nodes, len(system.directory), system.stats.merges)
    )
    system.verify()
    print("invariants verified")
    return 0


def cmd_tree(args) -> int:
    tree = DecompositionTree(args.width)
    cut = None
    if args.level is not None:
        cut = Cut.level(tree, args.level)
    print(render_tree(tree, cut, max_depth=args.depth))
    if cut is not None:
        print()
        print(render_network(CutNetwork(cut)))
    return 0


def cmd_run(args) -> int:
    system = AdaptiveCountingSystem(
        width=args.width, seed=args.seed, initial_nodes=args.nodes
    )
    system.converge()
    for _ in range(args.tokens):
        system.inject_token()
    system.run_until_quiescent()
    metrics = system.metrics()
    print(
        "N=%d components=%d effective width=%d depth=%d"
        % (system.num_nodes, metrics.num_components, metrics.effective_width, metrics.effective_depth)
    )
    print(
        "tokens=%d mean hops=%.2f mean latency=%.2f messages=%d"
        % (
            system.token_stats.retired,
            system.token_stats.mean_hops,
            system.token_stats.mean_latency,
            system.bus.messages_sent,
        )
    )
    print(render_step_histogram(system.output_counts))
    system.verify()
    return 0


def cmd_estimate(args) -> int:
    ring = ChordRing(seed=args.seed)
    for _ in range(args.nodes):
        ring.join()
    estimator = SizeEstimator(ring)
    estimates = [estimator.size_estimate(node.node_id) for node in ring.nodes()]
    inside = sum(1 for e in estimates if args.nodes / 10 <= e <= 10 * args.nodes)
    print("N=%d  estimates: min=%.1f max=%.1f" % (args.nodes, min(estimates), max(estimates)))
    print(
        "within [N/10, 10N]: %d/%d (%.2f%%)"
        % (inside, len(estimates), 100.0 * inside / len(estimates))
    )
    return 0


def _load_mc_module(spec: str):
    """Import the module supplying model-check factories.

    Accepts a dotted module name or a ``.py`` file path; the module may
    define a ``system_factory`` callable that builds the subject under
    test (used by the negative fixtures).
    """
    import importlib
    import importlib.util

    if spec.endswith(".py"):
        module_spec = importlib.util.spec_from_file_location("repro_mc_subject", spec)
        if module_spec is None or module_spec.loader is None:
            raise StructureError("cannot load model-check module %r" % spec)
        module = importlib.util.module_from_spec(module_spec)
        sys.modules["repro_mc_subject"] = module
        module_spec.loader.exec_module(module)
        return module
    return importlib.import_module(spec)


def cmd_check(args) -> int:
    from repro.core.wiring import MergerConvention
    from repro.scenarios.spec import ScenarioSpecError
    from repro.staticcheck.runner import run_check

    if args.explain is not None:
        from repro.staticcheck.explain import explain

        rendered = explain(args.explain)
        if rendered is None:
            print(
                "repro check: error: unknown diagnostic code %r (see "
                "repro.staticcheck.diagnostics.KNOWN_CODES)" % args.explain,
                file=sys.stderr,
            )
            return 2
        print(rendered)
        return 0

    sanitize_seeds = None
    if args.sanitize_seeds is not None:
        sanitize_seeds = args.sanitize_seeds
    elif args.sanitize is not None:
        if args.sanitize < 1:
            print(
                "repro check: error: --sanitize needs at least 1 seed",
                file=sys.stderr,
            )
            return 2
        sanitize_seeds = list(range(1, args.sanitize + 1))

    convention = (
        MergerConvention.PAPER_PROSE
        if args.convention == "paper-prose"
        else MergerConvention.AHS94
    )
    model_config = None
    if args.model_check:
        from repro.staticcheck.protocol.model import ModelCheckConfig

        system_factory = None
        if args.mc_module:
            try:
                subject = _load_mc_module(args.mc_module)
            except Exception as exc:
                print("repro check: error: %s" % exc, file=sys.stderr)
                return 2
            system_factory = getattr(subject, "system_factory", None)
        try:
            model_config = ModelCheckConfig(
                depth=args.mc_depth, system_factory=system_factory
            )
        except ValueError as exc:
            print("repro check: error: %s" % exc, file=sys.stderr)
            return 2
    try:
        run = run_check(
            widths=args.width,
            convention=convention,
            lint=args.lint,
            certify=not args.no_certify,
            model_check=args.model_check,
            model_config=model_config,
            sanitize_seeds=sanitize_seeds,
            sanitize_scenarios=args.sanitize_scenarios,
        )
    except (StructureError, ScenarioSpecError) as exc:
        print("repro check: error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(run.to_json_payload(), indent=2))
    else:
        if run.report.diagnostics:
            print(run.report.format())
        print(run.summary())
    return run.exit_code


def cmd_smoke(args) -> int:
    from repro.errors import ReproError
    from repro.scenarios.smoke import run_smoke

    try:
        report = run_smoke(
            names=args.scenario,
            jobs=args.jobs,
            wall_budget=args.wall_budget,
            cpu_budget=args.cpu_budget,
            fingerprints_path=args.fingerprints,
            update=args.update_fingerprints,
            artifacts_dir=args.artifacts,
            library_dir=args.library,
        )
    except ReproError as exc:
        print("repro smoke: error: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(report.format_lines()))
    if report.updated:
        print("fingerprints written to %s" % args.fingerprints)
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    from repro.obs import Recorder, write_chrome_trace, write_metrics_jsonl
    from repro.obs.recorder import recording
    from repro.scenarios.compile import run_scenario
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import ScenarioSpecError

    try:
        spec = get_scenario(args.scenario)
        recorder = Recorder(trace=True, sample_every=args.sample_every)
    except (ScenarioSpecError, ValueError) as exc:
        print("repro trace: error: %s" % exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    with recording(recorder):
        recorder.begin_section(spec.name)
        run_scenario(spec)
    write_chrome_trace(recorder.trace, args.out, metrics=recorder.metrics)
    latency = recorder.latency_histogram()
    buffer = recorder.trace
    assert buffer is not None
    print(
        "trace: %d events recorded (%d dropped by the ring) -> %s"
        % (buffer.recorded_events, buffer.dropped_events, args.out)
    )
    print(
        "tokens: retired=%d latency p50=%.3f p99=%.3f max=%.3f (sim units)"
        % (
            latency.count,
            latency.p50,
            latency.p99,
            latency.max if latency.max is not None else 0.0,
        )
    )
    if args.metrics_out:
        write_metrics_jsonl(recorder.metrics, args.metrics_out)
        print("metrics: %d instruments -> %s" % (len(recorder.metrics), args.metrics_out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Counting Networks (ICDCS 2005) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="grow/converge/shrink lifecycle demo")
    _add_common(demo)
    demo.add_argument("--nodes", type=_node_count, default=40, help="nodes to grow to")
    demo.set_defaults(func=cmd_demo)

    tree = sub.add_parser("tree", help="print the decomposition tree T_w")
    _add_common(tree)
    tree.add_argument("--level", type=int, default=None, help="also show the level-k cut")
    tree.add_argument("--depth", type=int, default=2, help="tree depth to print")
    tree.set_defaults(func=cmd_tree)

    run = sub.add_parser("run", help="converge a system and push tokens")
    _add_common(run)
    run.add_argument("--nodes", type=_node_count, default=30)
    run.add_argument("--tokens", type=_token_count, default=200)
    run.set_defaults(func=cmd_run)

    estimate = sub.add_parser("estimate", help="size-estimation accuracy (Section 3.1)")
    estimate.add_argument("--nodes", type=_node_count, default=256)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.set_defaults(func=cmd_estimate)

    check = sub.add_parser("check", help="static invariant analysis (repro.staticcheck)")
    check.add_argument(
        "--width",
        type=int,
        nargs="+",
        default=[2, 4, 8],
        help="network widths to certify (powers of two)",
    )
    check.add_argument(
        "--convention",
        choices=["ahs94", "paper-prose"],
        default="ahs94",
        help="merger wiring convention to check (paper-prose is the known-bad typo)",
    )
    check.add_argument(
        "--lint",
        nargs="+",
        metavar="PATH",
        default=None,
        help="run the AST lint pass over the given files/directories",
    )
    check.add_argument(
        "--no-certify",
        action="store_true",
        help="skip the exhaustive 0-1-principle certification",
    )
    check.add_argument(
        "--model-check",
        action="store_true",
        help="run the Pass-5 bounded model checker (small-scope schedules)",
    )
    check.add_argument(
        "--mc-depth",
        type=int,
        default=3,
        help="operations per model-check schedule",
    )
    check.add_argument(
        "--mc-module",
        metavar="MODULE",
        default=None,
        help="module (dotted name or .py path) providing system_factory "
        "for the model checker's subject",
    )
    check.add_argument(
        "--sanitize",
        nargs="?",
        const=1,
        type=int,
        default=None,
        metavar="N",
        help="run the schedule-perturbation sanitizer over the scenario "
        "library with N perturbation seeds (default 1)",
    )
    check.add_argument(
        "--sanitize-seeds",
        nargs="+",
        type=int,
        metavar="SEED",
        default=None,
        help="explicit perturbation seeds (overrides --sanitize's count)",
    )
    check.add_argument(
        "--sanitize-scenarios",
        nargs="+",
        metavar="NAME",
        default=None,
        help="restrict the sanitizer to these library scenarios (default: "
        "the whole library)",
    )
    check.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print description, rationale, and a minimal example for a "
        "diagnostic code (e.g. RSC610), then exit",
    )
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.set_defaults(func=cmd_check)

    smoke = sub.add_parser(
        "smoke",
        help="run the scenario library in parallel and check fingerprints",
    )
    smoke.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        default=None,
        help="run only this library scenario (repeatable; default: all)",
    )
    smoke.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: min(scenarios, cores - 1))",
    )
    smoke.add_argument(
        "--wall-budget",
        type=float,
        default=120.0,
        metavar="SEC",
        help="per-scenario wall-clock budget; exceeding it is a "
        "distinct 'timeout' outcome (default 120)",
    )
    smoke.add_argument(
        "--cpu-budget",
        type=float,
        default=60.0,
        metavar="SEC",
        help="per-scenario CPU budget enforced in the worker via "
        "RLIMIT_CPU where available (default 60)",
    )
    smoke.add_argument(
        "--fingerprints",
        metavar="PATH",
        default="SCENARIO_FINGERPRINTS.json",
        help="committed fingerprint pin file (default "
        "SCENARIO_FINGERPRINTS.json in the working directory)",
    )
    smoke.add_argument(
        "--update-fingerprints",
        action="store_true",
        help="regenerate the pin file from this run (refuses if any "
        "scenario is not verify-green)",
    )
    smoke.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write smoke_report.json plus one JSON artifact per "
        "failing scenario into DIR (for CI upload)",
    )
    smoke.add_argument(
        "--library",
        metavar="DIR",
        default=None,
        help="scenario spec directory (default: the committed library)",
    )
    smoke.set_defaults(func=cmd_smoke)

    trace = sub.add_parser(
        "trace", help="record a traced run (repro.obs) and export it"
    )
    trace.add_argument(
        "--scenario",
        metavar="NAME",
        default="churn_while_splitting",
        help="library scenario to run (default churn_while_splitting)",
    )
    trace.add_argument(
        "--seed", type=int, default=None, help="run the scenario under this seed"
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="N",
        help="trace every N-th token by id (metrics always cover every token)",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="Chrome trace_event output path (default trace.json)",
    )
    trace.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write the metrics registry as JSONL to PATH",
    )
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
