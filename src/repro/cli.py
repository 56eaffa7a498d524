"""Command-line interface.

Six subcommands cover the common workflows::

    python -m repro run      --scheme GC --clients 20 --seed 7 [--check]
    python -m repro compare  --clients 20 --cache-size 30
    python -m repro sweep    fig2 --scale quick --jobs 4 --cache results/cache
    python -m repro trace    summarize results/traces
    python -m repro policies list [--namespace replacement]
    python -m repro check    golden record|verify [--fixtures DIR]

``run`` simulates one configuration and prints the paper's metrics
(``--check`` attaches the runtime invariant oracle and prints its audit
summary; ``--trace-out DIR`` records a span timeline and exports the
JSONL / Chrome-trace / CSV bundle — see docs/OBSERVABILITY.md);
``compare`` runs LC / CC / GC paired on the same seed; ``sweep``
regenerates one of the paper's figures as a text table (see DESIGN.md
for the figure index) through the execution layer — parallel workers
(``--jobs``), the persistent result cache (``--cache``) and per-run
trace bundles (``--trace-out DIR``); ``trace summarize`` folds recorded
timelines into a per-phase latency breakdown; ``policies list`` prints
the policy tables; ``check golden`` records or replays the committed
golden-trace fixtures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Results
from repro.core.simulation import compare_schemes, run_simulation
from repro.experiments import (
    FIGURES,
    ResultCache,
    RunCrashed,
    active_profile,
    format_sweep_table,
    resolve_jobs,
    run_sweep,
)
from repro.policies import registry as policy_registry

__all__ = ["build_parser", "main"]

def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, help="number of mobile hosts")
    parser.add_argument("--data", type=int, help="database size (items)")
    parser.add_argument("--cache-size", type=int, help="client cache (items)")
    parser.add_argument("--access-range", type=int, help="per-group range")
    parser.add_argument("--theta", type=float, help="Zipf skewness")
    parser.add_argument("--group-size", type=int, help="motion group size")
    parser.add_argument("--update-rate", type=float, help="item updates/s")
    parser.add_argument("--p-disc", type=float, help="disconnection prob.")
    parser.add_argument("--requests", type=int, help="measured requests/client")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument(
        "--no-ndp", action="store_true", help="disable beaconing (faster)"
    )


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """Registry-key overrides (see ``repro policies list``)."""
    parser.add_argument(
        "--admission", metavar="KEY", help="admission policy key"
    )
    parser.add_argument(
        "--replacement", metavar="KEY", help="replacement policy key"
    )
    parser.add_argument(
        "--peer-policy", metavar="KEY", help="retrieve peer-scoring key"
    )


_CONFIG_FIELDS = {
    "clients": "n_clients",
    "data": "n_data",
    "cache_size": "cache_size",
    "access_range": "access_range",
    "theta": "theta",
    "group_size": "group_size",
    "update_rate": "data_update_rate",
    "p_disc": "p_disc",
    "requests": "measure_requests",
    "seed": "seed",
    "admission": "admission_policy",
    "replacement": "replacement_policy",
    "peer_policy": "peer_policy",
}


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    overrides = {}
    for arg_name, field in _CONFIG_FIELDS.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "no_ndp", False):
        overrides["ndp_enabled"] = False
    if getattr(args, "scheme", None):
        overrides["scheme"] = CachingScheme[args.scheme]
    return SimulationConfig(**overrides)


def _print_results(results: Results) -> None:
    print(f"  scheme                : {results.scheme}")
    print(f"  requests              : {results.requests}")
    print(
        f"  access latency        : {results.access_latency * 1000:.1f} ms "
        f"(sd {results.latency_stddev * 1000:.1f} ms)"
    )
    print(f"  server request ratio  : {results.server_request_ratio:.1f} %")
    print(f"  local cache hits      : {results.lch_ratio:.1f} %")
    print(f"  global cache hits     : {results.gch_ratio:.1f} %")
    print(f"  ... from TCG members  : {results.global_hits_tcg}")
    if results.global_hits:
        print(f"  power per GCH         : {results.power_per_gch:,.0f} uW.s")
    print(f"  measured window       : {results.measured_time:.0f} s simulated")


def _job_count(text: str) -> int:
    """argparse type for --jobs: a non-negative worker count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per core), got {value}"
        )
    return value


def _attempt_count(text: str) -> int:
    """argparse type for --attempts: at least one execution per run."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type for --sample-period and --timeout: positive, finite
    seconds."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GroCoCa/COCA mobile cooperative caching simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="simulate one configuration")
    run_parser.add_argument(
        "--scheme", choices=[s.name for s in CachingScheme], default="GC"
    )
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="attach the runtime invariant oracle and print its audit summary",
    )
    run_parser.add_argument(
        "--trace-out",
        metavar="DIR",
        help="record a span timeline and export trace.jsonl, "
        "trace.chrome.json and series.csv into DIR",
    )
    run_parser.add_argument(
        "--sample-period",
        type=_seconds,
        default=5.0,
        metavar="SECONDS",
        help="time-series sampler period in simulated seconds (default 5)",
    )
    _add_config_arguments(run_parser)
    _add_policy_arguments(run_parser)

    compare_parser = commands.add_parser(
        "compare", help="run LC / CC / GC on the same seed"
    )
    _add_config_arguments(compare_parser)

    sweep_parser = commands.add_parser(
        "sweep",
        help="regenerate one of the paper's figures (parallel workers, caching)",
    )
    sweep_parser.add_argument("figure", choices=sorted(FIGURES))
    sweep_parser.add_argument(
        "--scale",
        choices=["quick", "bench", "full"],
        help="scale profile (default: REPRO_PROFILE or bench)",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        metavar="N",
        help="worker processes (1 = serial, 0 = one per core); results are "
        "identical to the serial runner",
    )
    sweep_parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent result cache directory; repeated sweeps only "
        "simulate configurations that changed",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=_seconds,
        metavar="SECONDS",
        help="kill a run exceeding this wall-clock budget (needs --jobs >= 2)",
    )
    sweep_parser.add_argument(
        "--attempts",
        type=_attempt_count,
        default=2,
        metavar="N",
        help="executions per run before it is quarantined (default 2)",
    )
    sweep_parser.add_argument(
        "--salvage",
        action="store_true",
        help="keep the partial sweep when runs fail instead of aborting",
    )
    sweep_parser.add_argument(
        "--trace-out",
        metavar="DIR",
        help="record one trace bundle per run under DIR and print the "
        "per-sweep phase-latency breakdown",
    )
    sweep_parser.add_argument(
        "--sample-period",
        type=_seconds,
        default=5.0,
        metavar="SECONDS",
        help="time-series sampler period for traced runs (default 5)",
    )

    trace_parser = commands.add_parser(
        "trace", help="inspect recorded trace bundles"
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    summarize_parser = trace_commands.add_parser(
        "summarize",
        help="per-phase latency breakdown of one or many trace bundles",
    )
    summarize_parser.add_argument(
        "path",
        help="a trace.jsonl file, or a directory searched recursively",
    )

    policies_parser = commands.add_parser(
        "policies", help="inspect the policy tables"
    )
    policies_commands = policies_parser.add_subparsers(
        dest="policies_command", required=True
    )
    policies_list = policies_commands.add_parser(
        "list", help="print every policy key with its summary"
    )
    policies_list.add_argument(
        "--namespace",
        choices=list(policy_registry.NAMESPACES),
        help="only list one namespace",
    )

    check_parser = commands.add_parser(
        "check", help="golden-trace fixtures and invariant tooling"
    )
    check_commands = check_parser.add_subparsers(dest="check_command", required=True)
    golden_parser = check_commands.add_parser(
        "golden", help="record or replay the golden-trace fixtures"
    )
    golden_parser.add_argument(
        "action",
        choices=["record", "verify"],
        help="record = overwrite the fixtures from the current code; "
        "verify = replay them and diff field by field",
    )
    golden_parser.add_argument(
        "--fixtures",
        metavar="DIR",
        help="fixture directory (default: tests/golden)",
    )
    return parser


def _run_sweep_command(args: argparse.Namespace) -> int:
    """Handler of the ``sweep`` subcommand."""
    if args.timeout is not None and resolve_jobs(args.jobs) == 1:
        print(
            "repro sweep: error: --timeout needs worker processes "
            "(--jobs >= 2); a serial run cannot be interrupted",
            file=sys.stderr,
        )
        return 2
    if args.scale:
        os.environ["REPRO_PROFILE"] = args.scale
    try:
        active_profile()  # a bad REPRO_PROFILE or a set REPRO_FULL fails here
        cache = ResultCache(args.cache) if args.cache else None
    except ValueError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2
    figure = FIGURES[args.figure]
    failures = []
    execute_kwargs = {}
    if args.trace_out:
        from repro.obs import traced_runner

        if cache is not None:
            print(
                "repro sweep: warning: cached runs are not re-simulated and "
                "leave no trace bundle",
                file=sys.stderr,
            )
        execute_kwargs["runner"] = traced_runner(
            Path(args.trace_out), sample_period=args.sample_period
        )
    try:
        table = run_sweep(
            figure,
            progress=lambda line: print(f"  {line}", file=sys.stderr),
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            attempts=args.attempts,
            salvage=args.salvage,
            failures_out=failures,
            **execute_kwargs,
        )
    except RunCrashed as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        print("repro sweep: rerun with --salvage to keep the partial sweep",
              file=sys.stderr)
        return 1
    for failure in failures:
        print(
            f"repro sweep: warning: {failure.label} quarantined after "
            f"{failure.attempts} attempt(s): {failure.error}",
            file=sys.stderr,
        )
    print(format_sweep_table(table, figure.title))
    if cache is not None:
        print(
            f"cache {cache.directory}: {cache.hits} hits, "
            f"{cache.misses} misses, {cache.stores} stored",
            file=sys.stderr,
        )
    if args.trace_out:
        from repro.obs import summarize_path

        try:
            print(summarize_path(Path(args.trace_out)))
        except FileNotFoundError:
            print(
                f"repro sweep: warning: no trace bundles under "
                f"{args.trace_out} (all runs cached?)",
                file=sys.stderr,
            )
        except ValueError as error:
            print(f"repro sweep: error: {error}", file=sys.stderr)
            return 2
    return 0


def _run_trace_command(args: argparse.Namespace) -> int:
    """Handler of the ``trace`` subcommand."""
    # Imported lazily: the observability layer is not needed by simulations.
    from repro.obs import summarize_path

    try:
        print(summarize_path(Path(args.path)))
    except (FileNotFoundError, ValueError) as error:
        print(f"repro trace: error: {error}", file=sys.stderr)
        return 2
    return 0


def _run_policies_command(args: argparse.Namespace) -> int:
    """Handler of the ``policies`` subcommand: one ``key summary`` line
    per policy, its citation beneath."""
    namespaces = (
        [args.namespace] if args.namespace else list(policy_registry.NAMESPACES)
    )
    for namespace in namespaces:
        print(f"{namespace}:")
        for key, info in sorted(policy_registry.POLICIES[namespace].items()):
            print(f"  {key:<16} {info.summary}")
            print(f"  {'':<16} [{info.citation}]")
    return 0


def _run_check_command(args: argparse.Namespace) -> int:
    """Handler of the ``check`` subcommand."""
    # Imported lazily: the package loads the invariant oracle, which only
    # --check and this subcommand need.
    from repro.check import golden

    directory = Path(args.fixtures) if args.fixtures else golden.default_fixtures_dir()
    if args.action == "record":
        paths = golden.record(directory)
        for path in paths:
            print(f"recorded {path}")
        return 0
    try:
        diffs = golden.verify(directory)
    except FileNotFoundError as error:
        print(f"repro check: error: {error}", file=sys.stderr)
        return 2
    failed = False
    for name in sorted(diffs):
        mismatches = diffs[name]
        if mismatches:
            failed = True
            print(f"FAIL {name}: {len(mismatches)} field(s) differ")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in ("run", "compare"):
        try:
            config = _config_from_args(args)
        except (TypeError, ValueError) as error:
            print(f"repro {args.command}: error: {error}", file=sys.stderr)
            return 2
    if args.command == "run":
        print(f"Simulating {config.scheme.value} "
              f"with {config.n_clients} clients ...")
        monitor = None
        if args.check:
            from repro.check import InvariantMonitor

            monitor = InvariantMonitor()
        if args.trace_out:
            from repro.obs import run_traced, summarize_path

            results, paths = run_traced(
                config, Path(args.trace_out), args.sample_period, monitor
            )
            _print_results(results)
            for kind in sorted(paths):
                print(f"wrote {paths[kind]}", file=sys.stderr)
            print(summarize_path(paths["jsonl"]))
        else:
            _print_results(run_simulation(config, monitor=monitor))
        if monitor is not None:
            print(monitor.report().summary())
        return 0
    if args.command == "compare":
        print(f"Comparing LC / CC / GC with {config.n_clients} clients ...")
        for name, results in compare_schemes(config).items():
            print(f"\n--- {name} ---")
            _print_results(results)
        return 0
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "trace":
        return _run_trace_command(args)
    if args.command == "policies":
        return _run_policies_command(args)
    if args.command == "check":
        return _run_check_command(args)
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":
    raise SystemExit(main())
