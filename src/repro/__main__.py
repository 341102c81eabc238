"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run APP``
    Simulate one application under one protocol and print its report.
    ``--trace FILE`` writes a Perfetto-loadable Chrome trace (or JSONL
    when FILE ends in ``.jsonl``); ``--metrics FILE`` writes the
    machine-readable JSON run report (metrics registry + time series);
    ``--audit`` attaches the coherence-state sanitizer (exits nonzero
    on any stale read its value check finds).

``figure N``
    Regenerate one of the paper's figures (1, 2, 5-11, 13-16; 12 is an
    alias for 11 -- the paper presents the TreadMarks/AURC comparison
    as figures 11 and 12) and print the table.  Independent runs fan
    out over ``--jobs N`` worker processes and are memoized in the
    on-disk result cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
    ``--no-cache`` disables it), so regenerating a figure -- or a
    second figure sharing the same baselines -- is near-instant.

``scale``
    Scale-out sweep: re-ask the paper's sensitivity questions at
    64-1024 nodes across topologies (mesh, torus, fattree, dragonfly)
    and machine presets (paper1996, rdma, pio).  Rows carry events/s,
    peak RSS, and the coherence-metadata footprint (compact vs what the
    dict representation would cost); ``--out FILE`` writes them as a
    ``repro-bench/1`` archive, ``--audit`` additionally runs the
    largest configuration under the coherence-state sanitizer (exits
    nonzero on violations).

``profile APP``
    Self-profile one simulation: report kernel events processed,
    wall seconds, and events/sec from profiler-free timed runs, then a
    cProfile top-N table from one additional instrumented run (the
    profiler inflates wall time several-fold, so throughput numbers
    always come from the clean runs).  ``--out FILE`` dumps the raw
    pstats data for ``python -m pstats`` / snakeviz.

``analyze APP``
    Run one application with request-lifecycle spans enabled and print
    the causal analysis: critical-path intervals, stall decomposition,
    and top-N blame tables (hottest pages, most-contended locks,
    most-blamed peers), cross-checked against the charged time
    breakdown.  ``--flamegraph FILE`` writes collapsed stacks for
    flamegraph.pl / speedscope; ``--json FILE`` writes the analysis as
    JSON; ``--trace FILE`` also saves the raw trace.

``inspect APP|FILE``
    Per-page coherence introspection: run one application with the
    audit stream attached (or load a saved ``repro-inspect/1`` JSON)
    and print the sanitizer verdict, a top-pages cost ranking, ASCII
    state timelines aligned to barrier intervals (``--timeline``,
    ``--page P``), and ``--json FILE`` to save the document.
    ``--diff A B`` instead diffs two runs' per-page transition counts
    (seed-identical runs report zero delta).  Exits nonzero on
    sanitizer violations.

``chaos``
    Sweep fault seeds over an app x protocol matrix: each faulted run
    must terminate, pass verification, and sustain zero value-check
    violations, including on a final read of the whole shared segment.
    ``--report FILE`` writes the ``repro-chaos/2`` JSON report; exits
    nonzero on any failure.

``watch FILE``
    Render a sweep log (``repro-sweep-log/1`` JSONL, written by
    ``--sweep-log`` on figure/scale/chaos) as live progress lines;
    ``--follow`` tails a log still being written.

``diff A B``
    Differential analysis of two run documents: cycle-category
    attribution (exhaustive -- zero residual by construction), named
    detail rows (retransmit backoff, controller queue-wait, ...), and
    counter/network deltas.  Either side may be ``golden:KEY`` to diff
    against the pinned golden-cycles fixture.

``serve``
    Run the simulation-as-a-service HTTP API: an asyncio front end
    that accepts run/sweep submissions, dedupes them against the
    sharded result store and in-flight jobs, schedules misses on a
    bounded worker pool behind per-tenant token-bucket admission
    control (429 on quota breach, 503 on queue saturation), streams
    job events as NDJSON, and evicts the store to a size/age budget.

``submit APP``
    Submit a run (or, with ``--protocols``/``--sweep``, a sweep) to a
    ``repro serve`` endpoint and print the ``repro-serve/1`` job
    document; ``--wait`` streams events until the job completes.

``status JOB_ID``
    Fetch one job document from a serve endpoint.

``watch-job JOB_ID``
    Stream a job's NDJSON events to stdout until it reaches a
    terminal state.

``metrics FILE``
    Summarize a JSON run report written by ``run --metrics``.

``trace FILE``
    Summarize (or dump) a trace file written by ``run --trace``.

``validate FILE...``
    Check report/benchmark JSON files against their declared schema;
    exits nonzero if any file is invalid.

``list``
    List applications, overlap modes, and protocols.

Examples::

    python -m repro run Em3d --protocol I+D --procs 16
    python -m repro run Water --protocol aurc --prefetch
    python -m repro run Em3d --protocol I+D --quick \\
        --trace /tmp/em3d.json --metrics /tmp/em3d-metrics.json
    python -m repro analyze Em3d --protocol I+P+D --quick --procs 4
    python -m repro run Em3d --protocol I+P+D --quick --procs 4 --audit
    python -m repro inspect Em3d --protocol I+P+D --quick --procs 4 \\
        --top-pages 5 --timeline --json inspect.json
    python -m repro inspect --diff inspect-a.json inspect-b.json
    python -m repro profile Em3d --protocol I+P+D --quick --procs 4
    python -m repro figure 1 --quick
    python -m repro figure 13 --quick --jobs 4
    python -m repro figure 5 --app Ocean
    python -m repro scale --nodes 64 256 --topologies mesh torus
    python -m repro scale --nodes 1024 --protocols aurc --audit
    python -m repro scale --nodes 64 --protocols aurc --out scale.json
    python -m repro run Em3d --protocol I+P+D --quick --procs 4 \\
        --fault-seed 1
    python -m repro chaos --seeds 3 --quick --report chaos.json
    python -m repro figure 1 --quick --sweep-log sweep.jsonl --watch
    python -m repro watch sweep.jsonl --follow
    python -m repro diff base-metrics.json faulted-metrics.json
    python -m repro diff golden:Em3d/TM/I+P+D/4p/quick em3d-metrics.json
    python -m repro serve --port 8642 --workers 4
    python -m repro submit Em3d --protocol I+P+D --quick --procs 4 \\
        --server http://127.0.0.1:8642 --wait
    python -m repro submit Em3d --protocols Base I+D I+P+D --quick \\
        --server http://127.0.0.1:8642
    python -m repro status JOB_ID --server http://127.0.0.1:8642
    python -m repro watch-job JOB_ID --server http://127.0.0.1:8642
    python -m repro metrics /tmp/em3d-metrics.json
    python -m repro trace /tmp/em3d.json --category fault --limit 20
    python -m repro validate scale.json /tmp/em3d-metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager

from repro.dsm.overlap import ALL_MODES
from repro.harness import experiments, figures
from repro.harness.bench import config_for
from repro.harness.parallel import ResultCache, SimRequest, SweepRunner
from repro.harness.runner import run_app
from repro.harness.telemetry import (
    LiveRenderer,
    SweepLogWriter,
    read_sweep_log,
    sweep_log_summary,
)
from repro.stats.exporters import (
    load_trace_file,
    load_trace_meta,
    summarize_events,
    write_trace,
)
from repro.stats.report import RunReport, format_run, validate_report


def _add_sweep_flags(parser, default_jobs) -> None:
    parser.add_argument("--jobs", type=int, default=default_jobs,
                        help="worker processes for independent runs "
                             "(1 = serial in-process; default: "
                             f"{default_jobs})")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache "
                             "($REPRO_CACHE_DIR or ~/.cache/repro)")


def _make_runner(args) -> SweepRunner:
    cache = None if args.no_cache else ResultCache()
    return SweepRunner(jobs=args.jobs, cache=cache,
                       on_event=args.on_event)


def _add_telemetry_flags(parser) -> None:
    parser.add_argument("--sweep-log", metavar="FILE", default=None,
                        help="append telemetry events to FILE as "
                             "repro-sweep-log/1 JSONL (tailable with "
                             "'repro watch FILE --follow')")
    parser.add_argument("--watch", action="store_true",
                        help="stream live [watch] progress lines to "
                             "stderr while the sweep runs")


@contextmanager
def _event_sink(args):
    """The command's ``on_event``: the --sweep-log writer, the --watch
    renderer, both, or None.  The log stays open for the whole command,
    so its ``_meta`` trailer records an abnormal exit."""
    sinks = []
    with ExitStack() as stack:
        if getattr(args, "sweep_log", None):
            context = {"command": args.command, "argv": sys.argv[1:]}
            sinks.append(stack.enter_context(
                SweepLogWriter(args.sweep_log, context=context)))
        if getattr(args, "watch", False):
            sinks.append(LiveRenderer(
                echo=lambda line: print(line, file=sys.stderr)))
        if len(sinks) < 2:
            yield sinks[0] if sinks else None
            return

        def each(event):
            for sink in sinks:
                sink(event)

        yield each


def _add_protocol_flags(parser, default: str) -> None:
    parser.add_argument("--protocol", type=_protocol_name,
                        default=default,
                        help="an overlap mode (Base, I, I+D, P, I+P, "
                             f"I+P+D) or 'aurc' (default: {default})")
    parser.add_argument("--prefetch", action="store_true",
                        help="AURC only: enable page prefetching")


def _protocol_name(name: str) -> str:
    """argparse ``type=`` for protocol names: a name ``config_for``
    rejects stops the command with ``error: ...`` and exit 2 before
    anything is simulated."""
    try:
        config_for(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Hiding Communication Latency and "
                    "Coherence Overhead in Software DSMs' (ASPLOS 1996)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one application")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("app", choices=experiments.APP_ORDER)
    _add_protocol_flags(run_p, default="Base")
    run_p.add_argument("--procs", type=int, default=16)
    run_p.add_argument("--quick", action="store_true",
                       help="reduced problem size")
    run_p.add_argument("--no-verify", action="store_true",
                       help="skip the result-verification epilogue")
    run_p.add_argument("--verbose", action="store_true")
    run_p.add_argument("--trace", metavar="FILE", default=None,
                       help="record a trace and write it to FILE "
                            "(Chrome/Perfetto JSON, or JSONL for "
                            "a .jsonl suffix)")
    run_p.add_argument("--metrics", metavar="FILE", default=None,
                       help="record metrics and write the JSON run "
                            "report to FILE")
    run_p.add_argument("--faults", metavar="FILE", default=None,
                       help="inject faults from a JSON fault plan "
                            "({\"seed\": N, \"spec\": {...}})")
    run_p.add_argument("--fault-seed", type=int, default=None,
                       help="fault seed; with no --faults file, uses "
                            "the default chaos spec")
    run_p.add_argument("--audit", action="store_true",
                       help="attach the coherence-state sanitizer; "
                            "prints the audit summary and exits "
                            "nonzero on any stale read")
    _add_sweep_flags(run_p, default_jobs=1)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.set_defaults(handler=_cmd_figure)
    fig_p.add_argument("number", type=int,
                       choices=[1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                15, 16],
                       help="figure number (1, 2, 5-16 except 3-4; "
                            "12 is an alias for 11, the protocol "
                            "comparison spans both)")
    fig_p.add_argument("--app", default=None,
                       help="application for figures 5-10 "
                            "(default: the figure's own app)")
    fig_p.add_argument("--quick", action="store_true")
    _add_sweep_flags(fig_p, default_jobs=os.cpu_count() or 1)
    _add_telemetry_flags(fig_p)

    from repro.hardware.params import PRESETS
    from repro.hardware.topology import TOPOLOGIES
    from repro.harness.scale import SCALE_SIZES

    scale_p = sub.add_parser(
        "scale",
        help="scale-out sweep across node counts, topologies, and "
             "machine presets")
    scale_p.set_defaults(handler=_cmd_scale)
    scale_p.add_argument("--nodes", type=int, nargs="+", default=None,
                         metavar="N",
                         help="node counts to sweep (default: 64 256; "
                              "1024 is the supported smoke point)")
    scale_p.add_argument("--protocols", nargs="+", default=None,
                         type=_protocol_name, metavar="PROTO",
                         help="protocols to sweep "
                              "(default: I+D I+P+D aurc)")
    scale_p.add_argument("--topologies", nargs="+",
                         choices=list(TOPOLOGIES), default=["mesh"],
                         help="interconnect topologies "
                              "(default: mesh)")
    scale_p.add_argument("--presets", nargs="+",
                         choices=sorted(PRESETS), default=["paper1996"],
                         help="machine parameter presets "
                              "(default: paper1996)")
    scale_p.add_argument("--app", default="Em3d",
                         choices=sorted(SCALE_SIZES),
                         help="application to sweep (default: Em3d)")
    scale_p.add_argument("--audit", action="store_true",
                         help="also run the largest configuration "
                              "under the coherence-state sanitizer "
                              "(bypasses the cache; exits nonzero on "
                              "violations)")
    scale_p.add_argument("--out", metavar="FILE", default=None,
                         help="write the rows as a repro-bench/1 "
                              "archive to FILE")
    _add_sweep_flags(scale_p, default_jobs=os.cpu_count() or 1)
    _add_telemetry_flags(scale_p)

    prof_p = sub.add_parser(
        "profile",
        help="self-profile one simulation (events/sec + cProfile top-N)")
    prof_p.set_defaults(handler=_cmd_profile)
    prof_p.add_argument("app", choices=experiments.APP_ORDER)
    _add_protocol_flags(prof_p, default="I+P+D")
    prof_p.add_argument("--procs", type=int, default=4)
    prof_p.add_argument("--quick", action="store_true",
                        help="reduced problem size")
    prof_p.add_argument("--no-verify", action="store_true",
                        help="skip the result-verification epilogue")
    prof_p.add_argument("--repeat", type=int, default=3,
                        help="profiler-free timed runs for the "
                             "events/sec figure (default: 3)")
    prof_p.add_argument("--top", type=int, default=15,
                        help="rows in the cProfile table (default: 15)")
    prof_p.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"],
                        help="cProfile sort column (default: tottime)")
    prof_p.add_argument("--out", metavar="FILE", default=None,
                        help="dump raw pstats data to FILE")

    an_p = sub.add_parser(
        "analyze",
        help="run one application and print the causal span analysis")
    an_p.set_defaults(handler=_cmd_analyze)
    an_p.add_argument("app", choices=experiments.APP_ORDER)
    _add_protocol_flags(an_p, default="I+P+D")
    an_p.add_argument("--procs", type=int, default=4)
    an_p.add_argument("--quick", action="store_true",
                      help="reduced problem size")
    an_p.add_argument("--top", type=int, default=5,
                      help="rows per blame table (default: 5)")
    an_p.add_argument("--flamegraph", metavar="FILE", default=None,
                      help="write collapsed stacks for flamegraph.pl "
                           "or speedscope to FILE")
    an_p.add_argument("--json", metavar="FILE", default=None,
                      help="write the analysis as JSON to FILE")
    an_p.add_argument("--trace", metavar="FILE", default=None,
                      help="also save the raw trace to FILE")

    ins_p = sub.add_parser(
        "inspect",
        help="per-page coherence introspection: audit stream, "
             "sanitizer verdict, timelines, cross-run diff")
    ins_p.set_defaults(handler=_cmd_inspect)
    ins_p.add_argument("source", nargs="?", default=None,
                       help="application to run with auditing, or a "
                            "saved repro-inspect/1 JSON file")
    _add_protocol_flags(ins_p, default="I+P+D")
    ins_p.add_argument("--procs", type=int, default=4)
    ins_p.add_argument("--quick", action="store_true",
                       help="reduced problem size")
    ins_p.add_argument("--page", type=int, default=None,
                       help="detail view for one page (counts, "
                            "timeline, recent transitions)")
    ins_p.add_argument("--top-pages", type=int, default=10,
                       metavar="N",
                       help="rows in the top-pages cost ranking "
                            "(default: 10)")
    ins_p.add_argument("--timeline", action="store_true",
                       help="print ASCII state timelines for the "
                            "busiest pages (columns are barrier "
                            "intervals)")
    ins_p.add_argument("--json", metavar="FILE", default=None,
                       help="write the repro-inspect/1 document "
                            "to FILE")
    ins_p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                       default=None,
                       help="diff two runs' per-page transition "
                            "counts; each side is an app name (run "
                            "with the flags above) or a saved "
                            "repro-inspect/1 JSON")

    chaos_p = sub.add_parser(
        "chaos",
        help="sweep fault seeds and report survival, value-check "
             "violations, and overhead")
    chaos_p.set_defaults(handler=_cmd_chaos)
    chaos_p.add_argument("--seeds", type=int, default=3,
                         help="fault seeds per configuration "
                              "(default: 3)")
    chaos_p.add_argument("--apps", nargs="+", default=None,
                         choices=experiments.APP_ORDER, metavar="APP",
                         help="applications to sweep "
                              "(default: Em3d Water)")
    chaos_p.add_argument("--protocols", nargs="+", default=None,
                         type=_protocol_name, metavar="PROTO",
                         help="protocols to sweep "
                              "(default: Base I+P+D)")
    chaos_p.add_argument("--procs", type=int, default=4)
    chaos_p.add_argument("--quick", action="store_true",
                         help="reduced problem size")
    chaos_p.add_argument("--faults", metavar="FILE", default=None,
                         help="fault spec JSON to sweep instead of the "
                              "default chaos spec (its seed field is "
                              "ignored; the sweep supplies seeds)")
    chaos_p.add_argument("--report", metavar="FILE", default=None,
                         help="write the repro-chaos/2 JSON report "
                              "to FILE")
    _add_telemetry_flags(chaos_p)

    watch_p = sub.add_parser(
        "watch", help="render a sweep log as live progress lines")
    watch_p.set_defaults(handler=_cmd_watch)
    watch_p.add_argument("file", help="repro-sweep-log/1 JSONL written "
                                      "by --sweep-log")
    watch_p.add_argument("--follow", action="store_true",
                         help="keep tailing until the log's _meta "
                              "trailer arrives (Ctrl-C to stop)")

    diff_p = sub.add_parser(
        "diff", help="differential analysis of two run documents")
    diff_p.set_defaults(handler=_cmd_diff)
    diff_p.add_argument("a", help="run report or golden:KEY baseline")
    diff_p.add_argument("b", help="run report or golden:KEY")
    diff_p.add_argument("--top", type=int, default=10,
                        help="rows per delta table (default: 10)")
    diff_p.add_argument("--json", metavar="FILE", default=None,
                        help="write the repro-diff/1 document to FILE")

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP API")
    serve_p.set_defaults(handler=_cmd_serve)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = ephemeral; default: 8642)")
    serve_p.add_argument("--workers", type=int,
                         default=max(2, (os.cpu_count() or 2) // 2),
                         help="simulation worker processes")
    serve_p.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock timeout (default: "
                              "none)")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result store root ($REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without the on-disk result store "
                              "(in-memory dedupe only)")
    serve_p.add_argument("--quota-rate", type=float, default=20.0,
                         help="default tenant token-bucket refill "
                              "rate, runs/second (default: 20)")
    serve_p.add_argument("--quota-burst", type=float, default=40.0,
                         help="default tenant token-bucket capacity "
                              "(default: 40)")
    serve_p.add_argument("--tenant-quota", action="append", default=[],
                         metavar="TENANT=RATE[:BURST]",
                         help="per-tenant quota override (repeatable)")
    serve_p.add_argument("--max-queue", type=int, default=256,
                         help="global queued-job bound; submissions "
                              "beyond it get 503 (default: 256)")
    serve_p.add_argument("--cache-max-bytes", type=int, default=None,
                         help="evict the store down to this many "
                              "bytes")
    serve_p.add_argument("--cache-max-entries", type=int, default=None,
                         help="evict the store down to this many "
                              "entries")
    serve_p.add_argument("--cache-max-age", type=float, default=None,
                         metavar="SECONDS",
                         help="evict entries idle longer than this")
    serve_p.add_argument("--cache-floor", type=float, default=60.0,
                         metavar="SECONDS",
                         help="never evict entries used more recently "
                              "than this (default: 60)")
    serve_p.add_argument("--evict-every", type=int, default=32,
                         help="run the eviction pass every N store "
                              "writes (default: 32)")
    serve_p.add_argument("--port-file", default=None, metavar="FILE",
                         help="write 'host port' to FILE once bound "
                              "(for CI and scripts)")

    def _add_client_flags(parser) -> None:
        parser.add_argument("--server", metavar="URL",
                            default=os.environ.get("REPRO_SERVE_URL",
                                                   ""),
                            help="serve endpoint (default: "
                                 "$REPRO_SERVE_URL or "
                                 "http://127.0.0.1:8642)")
        parser.add_argument("--tenant", default="anon",
                            help="tenant identity sent as "
                                 "X-Repro-Tenant (default: anon)")
        parser.add_argument("--json", metavar="FILE", default=None,
                            help="write the repro-serve/1 job "
                                 "document to FILE")

    sm_p = sub.add_parser(
        "submit", help="submit a run or sweep to a serve endpoint")
    sm_p.set_defaults(handler=_cmd_submit)
    sm_p.add_argument("app", nargs="?", choices=experiments.APP_ORDER,
                      help="application (omit only with --sweep FILE)")
    sm_p.add_argument("--protocol", default="Base",
                      help="an overlap mode or 'aurc' (default: Base)")
    sm_p.add_argument("--protocols", nargs="+", default=None,
                      metavar="PROTO",
                      help="submit one sweep over these protocols "
                           "instead of a single run")
    sm_p.add_argument("--procs", type=int, default=4)
    sm_p.add_argument("--quick", action="store_true",
                      help="reduced problem size")
    sm_p.add_argument("--prefetch", action="store_true",
                      help="AURC only: enable page prefetching")
    sm_p.add_argument("--verify", action="store_true",
                      help="run the result-verification epilogue")
    sm_p.add_argument("--sweep", metavar="FILE", default=None,
                      help="submit a sweep from a JSON file (a list "
                           "of run specs, or {\"runs\": [...]})")
    sm_p.add_argument("--wait", action="store_true",
                      help="stream events until the job completes and "
                           "exit nonzero if it failed")
    _add_client_flags(sm_p)

    st_p = sub.add_parser(
        "status", help="fetch one job document from a serve endpoint")
    st_p.set_defaults(handler=_cmd_status)
    st_p.add_argument("job_id")
    _add_client_flags(st_p)

    wj_p = sub.add_parser(
        "watch-job",
        help="stream a job's events from a serve endpoint")
    wj_p.set_defaults(handler=_cmd_watch_job)
    wj_p.add_argument("job_id")
    _add_client_flags(wj_p)

    met_p = sub.add_parser("metrics",
                           help="summarize a JSON run report")
    met_p.set_defaults(handler=_cmd_metrics)
    met_p.add_argument("file", help="report written by run --metrics")

    tr_p = sub.add_parser("trace", help="summarize or dump a trace file")
    tr_p.set_defaults(handler=_cmd_trace)
    tr_p.add_argument("file", help="trace written by run --trace")
    tr_p.add_argument("--category", default=None,
                      help="only show events of this category")
    tr_p.add_argument("--limit", type=int, default=0,
                      help="print up to N individual events (default: "
                           "summary only)")

    val_p = sub.add_parser(
        "validate",
        help="check report/benchmark JSON files against their schema")
    val_p.set_defaults(handler=_cmd_validate)
    val_p.add_argument("files", nargs="+",
                       help="JSON files written by run --metrics or "
                            "the benchmark harness")

    sub.add_parser("list", help="list applications and protocols") \
        .set_defaults(handler=_cmd_list)
    return parser


_OVERLAP_FIGURES = {5: "TSP", 6: "Water", 7: "Radix", 8: "Barnes",
                    9: "Em3d", 10: "Ocean"}


def _load_fault_plan(args):
    """Build the FaultPlan requested by --faults / --fault-seed."""
    if args.faults is None and args.fault_seed is None:
        return None
    from repro.faults import FaultPlan, FaultSpec

    if args.faults is not None:
        plan = FaultPlan.load(args.faults)
        if args.fault_seed is not None:
            plan = FaultPlan(seed=args.fault_seed, spec=plan.spec)
        return plan
    return FaultPlan(seed=args.fault_seed, spec=FaultSpec.chaos())


def _print_fault_summary(stats) -> None:
    injected = ", ".join(f"{kind}={count}" for kind, count
                         in stats["injected"].items()) or "none"
    print(f"faults (seed {stats['seed']}): {injected}")
    print(f"  recovery: {stats['retransmits']} retransmits, "
          f"{stats['dups_dropped']} duplicates dropped, "
          f"{stats['acks_sent']} acks")


def _cmd_run(args) -> int:
    config = config_for(args.protocol, prefetch=args.prefetch)
    plan = _load_fault_plan(args)
    if args.trace is None and args.metrics is None and plan is None \
            and not args.audit:
        # No observability or faults requested: route through the sweep
        # layer so repeat invocations are served from the result cache.
        # (Faulted runs never touch the cache -- they must not be
        # served from, or poison, their fault-free twin's entry.
        # Audited runs bypass the cache too: the auditor lives on the
        # in-process simulator, which a cache hit never builds.)
        runner = _make_runner(args)
        result = runner.run(SimRequest.for_app(
            args.app, args.procs, config, quick=args.quick,
            verify=not args.no_verify))
        print(format_run(result, verbose=args.verbose))
        if result.verified:
            print("result verified against the reference solution")
        if result.cached:
            print(f"served from cache (originally simulated in "
                  f"{result.wall_seconds:.2f} s)")
        else:
            print(f"simulated in {result.wall_seconds:.2f} s")
        return 0
    import time

    app = experiments.scaled_app(args.app, args.procs, quick=args.quick)
    # Hold the tracer ourselves so a run that dies mid-simulation still
    # flushes its partial trace with a well-formed _meta trailer.
    tracer = None
    if args.trace is not None:
        from repro.sim.trace import Tracer
        tracer = Tracer(None)
    start = time.perf_counter()
    try:
        result = run_app(app, config, verify=not args.no_verify,
                         trace=tracer if tracer is not None else False,
                         metrics=args.metrics is not None,
                         faults=plan, audit=args.audit)
    except BaseException as exc:
        if tracer is not None and (tracer.events or tracer.dropped):
            write_trace(tracer, args.trace,
                        aborted=f"{type(exc).__name__}: {exc}")
            print(f"run aborted; partial trace: {len(tracer.events)} "
                  f"events ({tracer.dropped} dropped) -> {args.trace}",
                  file=sys.stderr)
        raise
    wall = time.perf_counter() - start
    print(format_run(result, verbose=args.verbose))
    if result.verified:
        print("result verified against the reference solution")
    if result.fault_stats is not None:
        _print_fault_summary(result.fault_stats)
    if args.trace is not None:
        write_trace(result.tracer, args.trace)
        print(f"trace: {len(result.tracer.events)} events "
              f"({result.tracer.dropped} dropped) -> {args.trace}")
    if args.metrics is not None:
        report = RunReport(result,
                           metadata={"wall_seconds": round(wall, 3)})
        with open(args.metrics, "w") as fh:
            json.dump(report.to_json(), fh)
        print(f"metrics report -> {args.metrics}")
    if args.audit:
        print()
        print(result.audit.format_summary())
        if not result.audit.ok:
            print("AUDIT FAILURE: stale reads detected",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import io
    import pstats
    import time

    config = config_for(args.protocol, prefetch=args.prefetch)
    verify = not args.no_verify

    def make_app():
        return experiments.scaled_app(args.app, args.procs,
                                      quick=args.quick)

    # Warm-up (imports, caches, pools) outside every measurement.
    run_app(make_app(), config, verify=verify)
    # Profiler-free timed runs: the honest throughput numbers.
    repeat = max(1, args.repeat)
    best_wall = None
    events = 0
    for _ in range(repeat):
        app = make_app()
        start = time.perf_counter()
        result = run_app(app, config, verify=verify)
        wall = time.perf_counter() - start
        best_wall = wall if best_wall is None else min(best_wall, wall)
        events = result.events_processed
    print(f"{args.app} under {config.label} on {args.procs} processors"
          f"{' (quick)' if args.quick else ''}")
    from repro.harness.bench import events_per_second
    print(f"  events processed : {events}")
    print(f"  wall seconds     : {best_wall:.4f} "
          f"(best of {repeat}, profiler off)")
    print(f"  events/sec       : "
          f"{events_per_second(events, best_wall):,.0f}")
    print(f"  sim cycles/sec   : "
          f"{events_per_second(result.execution_cycles, best_wall):,.0f}")
    # One instrumented run for the attribution table.  cProfile inflates
    # wall time several-fold, so nothing above comes from this run.
    profiler = cProfile.Profile()
    app = make_app()
    profiler.enable()
    run_app(app, config, verify=verify)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    print()
    print(f"cProfile top {args.top} by {args.sort} "
          f"(one instrumented run; times inflated by the profiler):")
    print(stream.getvalue().rstrip())
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"pstats dump -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    config = config_for(args.protocol, prefetch=args.prefetch)
    app = experiments.scaled_app(args.app, args.procs, quick=args.quick)
    from repro.sim.trace import Tracer
    tracer = Tracer(None, limit=2_000_000)
    try:
        result = run_app(app, config, verify=False, trace=tracer,
                         metrics=True, audit=True)
    except BaseException as exc:
        # Flush what we recorded before the run died -- a partial trace
        # with a valid _meta beats a missing file when debugging.
        if args.trace is not None and (tracer.events or tracer.dropped):
            write_trace(tracer, args.trace,
                        aborted=f"{type(exc).__name__}: {exc}")
            print(f"run aborted; partial trace: {len(tracer.events)} "
                  f"events ({tracer.dropped} dropped) -> {args.trace}",
                  file=sys.stderr)
        raise
    from repro.stats.causal import analyze_run
    analysis = analyze_run(result)
    print(format_run(result))
    print()
    print(analysis.format_report(top=args.top,
                                 breakdowns=result.breakdowns))
    if result.tracer.dropped:
        print(f"warning: trace dropped {result.tracer.dropped} events; "
              f"the analysis above is an undercount", file=sys.stderr)
    if args.flamegraph is not None:
        with open(args.flamegraph, "w") as fh:
            fh.write("\n".join(analysis.collapsed_stacks()) + "\n")
        print(f"collapsed stacks -> {args.flamegraph}")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(analysis.to_json(top=args.top), fh)
        print(f"analysis JSON -> {args.json}")
    if args.trace is not None:
        write_trace(result.tracer, args.trace)
        print(f"trace: {len(result.tracer.events)} events "
              f"({result.tracer.dropped} dropped) -> {args.trace}")
    return 0


def _inspect_doc_for(spec, args):
    """``repro inspect`` source -> repro-inspect/1 document.

    An app name runs an audited simulation with the command's protocol
    flags; anything else is read as a saved repro-inspect/1 JSON file.
    """
    from repro.stats.coherence import INSPECT_SCHEMA, build_inspect_doc

    if spec in experiments.APP_ORDER:
        app = experiments.scaled_app(spec, args.procs,
                                     quick=args.quick)
        result = run_app(app, config_for(args.protocol,
                                         prefetch=args.prefetch),
                         audit=True)
        return build_inspect_doc(result, result.audit)
    with open(spec) as fh:
        doc = json.load(fh)
    if doc.get("schema") != INSPECT_SCHEMA:
        raise ValueError(
            f"{spec}: schema {doc.get('schema')!r}, expected "
            f"{INSPECT_SCHEMA} (write one with "
            f"'repro inspect APP --json FILE')")
    return doc


def _cmd_inspect(args) -> int:
    from repro.stats.coherence import (
        diff_inspect_docs,
        format_inspect_diff,
        format_page,
        format_timeline,
        format_top_pages,
    )

    if args.diff is not None:
        try:
            doc_a = _inspect_doc_for(args.diff[0], args)
            doc_b = _inspect_doc_for(args.diff[1], args)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diff = diff_inspect_docs(doc_a, doc_b)
        print(format_inspect_diff(diff))
        if args.json is not None:
            _write_json(args.json, diff)
            print(f"inspect diff -> {args.json}")
        return 0
    if args.source is None:
        print("error: inspect needs an APP (or a saved "
              "repro-inspect/1 JSON), or --diff A B", file=sys.stderr)
        return 2
    try:
        doc = _inspect_doc_for(args.source, args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = doc.get("run", {})
    audit = doc.get("audit", {})
    violations = audit.get("violations", 0)
    print(f"{run.get('app')} under {run.get('protocol')} on "
          f"{run.get('n_procs')} processors: "
          f"{run.get('execution_cycles', 0) / 1e6:.2f} Mcycles")
    print(f"coherence audit: {audit.get('events', 0)} events, "
          f"{violations} violations "
          f"({'OK' if not violations else 'FAILED'})")
    print()
    print(format_top_pages(doc, top=args.top_pages))
    if args.timeline or args.page is None and violations:
        print()
        print(format_timeline(doc, top=min(args.top_pages, 3)))
    if args.page is not None:
        print()
        print(format_page(doc, args.page))
    if args.json is not None:
        _write_json(args.json, doc)
        print(f"inspect document -> {args.json}")
    if violations:
        for detail in audit.get("violations_detail", ())[:10]:
            print(f"  violation: node {detail.get('node')} read word "
                  f"{detail.get('word')} (page {detail.get('page')}) = "
                  f"{detail.get('value')}, expected "
                  f"{detail.get('expected')}", file=sys.stderr)
        print("AUDIT FAILURE: stale reads detected", file=sys.stderr)
        return 1
    return 0


def _cmd_figure(args) -> int:
    quick = args.quick
    runner = _make_runner(args)
    n = args.number
    if n == 12:
        n = 11  # the comparison spans paper figures 11 and 12
    if n == 1:
        print(figures.render_speedups(
            experiments.fig1_speedups(quick=quick, runner=runner)))
    elif n == 2:
        print(figures.render_breakdown(
            experiments.fig2_breakdown(quick=quick, runner=runner)))
    elif n in _OVERLAP_FIGURES:
        app = args.app or _OVERLAP_FIGURES[n]
        print(figures.render_overlap(
            app, experiments.fig_overlap_modes(app, quick=quick,
                                               runner=runner)))
    elif n == 11:
        print(figures.render_protocol_comparison(
            experiments.fig11_12_protocol_comparison(quick=quick,
                                                     runner=runner)))
    elif n == 13:
        print(figures.render_sweep(
            "Figure 13 -- messaging overhead (us)", "us",
            experiments.fig13_messaging_overhead(quick=quick,
                                                 runner=runner)))
    elif n == 14:
        print(figures.render_sweep(
            "Figure 14 -- network bandwidth (MB/s)", "MB/s",
            experiments.fig14_network_bandwidth(quick=quick,
                                                runner=runner)))
    elif n == 15:
        print(figures.render_sweep(
            "Figure 15 -- memory latency (ns)", "ns",
            experiments.fig15_memory_latency(quick=quick,
                                             runner=runner)))
    elif n == 16:
        print(figures.render_sweep(
            "Figure 16 -- memory bandwidth (MB/s)", "MB/s",
            experiments.fig16_memory_bandwidth(quick=quick,
                                               runner=runner)))
    print(f"[{runner.stats.summary()}]")
    return 0


def _cmd_scale(args) -> int:
    from repro.harness.scale import (
        SCALE_NODE_COUNTS,
        SCALE_PROTOCOLS,
        audit_scale_run,
        build_archive,
        scale_matrix,
    )

    runner = _make_runner(args)
    nodes = tuple(args.nodes) if args.nodes else SCALE_NODE_COUNTS
    protocols = (tuple(args.protocols) if args.protocols
                 else SCALE_PROTOCOLS)
    print(f"scale sweep: {args.app} x {list(protocols)} on "
          f"{list(nodes)} nodes, topologies {args.topologies}, "
          f"presets {args.presets}")
    rows = scale_matrix(node_counts=nodes, protocols=protocols,
                        topologies=tuple(args.topologies),
                        presets=tuple(args.presets),
                        app_name=args.app, runner=runner)
    print(f"[{runner.stats.summary()}]")
    if args.out is not None:
        _write_json(args.out, build_archive(rows, runner))
        print(f"archive -> {args.out}")
    if args.audit:
        n = max(nodes)
        topo = args.topologies[0]
        preset = args.presets[0]
        proto = "I+P+D" if "I+P+D" in protocols else protocols[0]
        print(f"audit: {args.app}/{proto} at {n} nodes "
              f"({topo}, {preset}) under the sanitizer...")
        result = audit_scale_run(n, protocol=proto, topology=topo,
                                 preset=preset, app_name=args.app)
        print(result.audit.format_summary())
        if not result.audit.ok:
            print("AUDIT FAILURE: stale reads detected",
                  file=sys.stderr)
            return 1
        if not result.verified:
            print("VERIFY FAILURE: audited run failed result "
                  "verification", file=sys.stderr)
            return 1
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultPlan
    from repro.harness.chaos import (
        DEFAULT_APPS,
        DEFAULT_PROTOCOLS,
        run_chaos,
    )

    spec = None
    if args.faults is not None:
        spec = FaultPlan.load(args.faults).spec
    apps = tuple(args.apps) if args.apps else DEFAULT_APPS
    protocols = (tuple(args.protocols) if args.protocols
                 else DEFAULT_PROTOCOLS)
    print(f"chaos sweep: {args.seeds} seeds x {list(apps)} x "
          f"{list(protocols)}, {args.procs} procs"
          f"{' (quick)' if args.quick else ''}")
    report = run_chaos(seeds=args.seeds, apps=apps, protocols=protocols,
                       procs=args.procs, quick=args.quick, spec=spec,
                       on_event=args.on_event)
    total = report["total"]
    print(f"survival: {report['survived']}/{total}, "
          f"audit clean: {report['clean']}/{total}")
    if args.report is not None:
        _write_json(args.report, report)
        print(f"chaos report -> {args.report}")
    if not report["ok"]:
        print("CHAOS FAILURE: some faulted runs hung, failed "
              "verification, or read stale values",
              file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args) -> int:
    renderer = LiveRenderer()
    if not args.follow:
        try:
            records = read_sweep_log(args.file)
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}",
                  file=sys.stderr)
            return 1
        renderer.replay(records)
        summary = sweep_log_summary(records)
        closed = "closed" if summary.get("closed") else "NOT CLOSED"
        aborted = summary.get("aborted")
        print(f"[watch] log {closed}"
              + (f" (aborted: {aborted})" if aborted else "")
              + f", {summary.get('events', len(records))} records"
              + f", {summary.get('duration_seconds', 0.0):.2f}s")
        return 0

    # Tail mode: render records as they land, stop at the _meta trailer.
    import time

    while not os.path.exists(args.file):
        time.sleep(0.2)
    buffer = ""
    try:
        with open(args.file) as fh:
            while True:
                chunk = fh.read()
                if chunk:
                    buffer += chunk
                    lines = buffer.split("\n")
                    buffer = lines.pop()  # torn tail line, if any
                    for line in lines:
                        if not line.strip():
                            continue
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            continue
                        renderer(record)
                        if record.get("kind") == "_meta":
                            aborted = record.get("aborted")
                            # The trailer's duration is monotonic
                            # (perf_counter span), not an epoch diff.
                            dur = record.get("duration_seconds")
                            print("[watch] log closed"
                                  + (f" (aborted: {aborted})"
                                     if aborted else "")
                                  + (f", {dur:.2f}s"
                                     if dur is not None else ""))
                            return 0
                else:
                    time.sleep(0.2)
    except KeyboardInterrupt:
        print("[watch] interrupted", file=sys.stderr)
        return 130


def _resolve_diff_source(spec: str):
    """CLI side-spec -> normalized run document: ``golden:KEY`` loads
    the pinned fixture row, anything else is a run document file."""
    from repro.stats.diff import golden_doc, load_run_doc

    if spec.startswith("golden:"):
        return golden_doc(spec[len("golden:"):])
    return load_run_doc(spec)


def _cmd_diff(args) -> int:
    from repro.stats.diff import diff_runs, format_diff

    try:
        doc_a = _resolve_diff_source(args.a)
        doc_b = _resolve_diff_source(args.b)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(doc_a, doc_b, top=args.top)
    print(format_diff(diff, top=args.top))
    if args.json is not None:
        _write_json(args.json, diff)
        print(f"diff document -> {args.json}")
    return 0


def _format_labels(labels) -> str:
    if not labels:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) \
        + "}"


def _hist_quantile(hist: dict, q: float) -> float:
    """Bucket-boundary quantile of a serialized histogram."""
    count = hist["count"]
    if not count:
        return 0.0
    target = q * count
    seen = 0
    bounds = hist["buckets"]
    for i, c in enumerate(hist["counts"]):
        seen += c
        if seen >= target and c:
            if i < len(bounds):
                return bounds[i]
            break
    return hist["max"] or 0.0


def _cmd_metrics(args) -> int:
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    run = doc.get("run")
    metrics = doc.get("metrics", doc if "counters" in doc else None)
    if run:
        print(f"{run['app']} under {run['protocol']} "
              f"on {run['n_procs']} processors: "
              f"{run['execution_cycles'] / 1e6:.2f} Mcycles")
    if "trace" in doc:
        tr = doc["trace"]
        print(f"trace: {tr['events']} events ({tr['dropped']} dropped)")
    for warning in doc.get("warnings", []):
        print(f"warning: {warning}")
    if metrics is None:
        print("no metrics section in this file")
        return 1
    totals = {}
    for counter in metrics.get("counters", []):
        totals[counter["name"]] = (totals.get(counter["name"], 0.0)
                                   + counter["value"])
    if totals:
        print("counters (summed over labels):")
        for name in sorted(totals):
            print(f"  {name:28s} {totals[name]:14.0f}")
    histograms = metrics.get("histograms", [])
    if histograms:
        print("histograms:")
        for hist in histograms:
            labels = _format_labels(hist.get("labels"))
            n = hist["count"]
            mean = hist["sum"] / n if n else 0.0
            print(f"  {hist['name']}{labels}: n={n} "
                  f"mean={mean:.1f} "
                  f"p50={_hist_quantile(hist, 0.5):.0f} "
                  f"p95={_hist_quantile(hist, 0.95):.0f} "
                  f"max={hist['max'] or 0:.0f}")
    series = metrics.get("series", [])
    if series:
        groups = {}
        for s in series:
            entry = groups.setdefault(s["name"], [0, 0.0])
            entry[0] += len(s["times"])
            if s["values"]:
                entry[1] = max(entry[1], max(s["values"]))
        print("series:")
        for name in sorted(groups):
            points, peak = groups[name]
            print(f"  {name:28s} {points:6d} points, peak {peak:g}")
    return 0


def _cmd_trace(args) -> int:
    try:
        events = load_trace_file(args.file)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.category is not None:
        events = [e for e in events
                  if e.get("cat", e.get("category")) == args.category]
    counts = summarize_events(events)
    print(f"{len(events)} events in {args.file}")
    meta = load_trace_meta(args.file)
    dropped = meta.get("dropped", 0)
    if dropped:
        print(f"warning: {dropped} events were dropped at record time; "
              f"this trace is incomplete")
    for cat, count in counts.items():
        print(f"  {cat:12s} {count}")
    if args.limit > 0:
        for event in events[:args.limit]:
            print(json.dumps(event, default=str))
    return 0


def _cmd_validate(args) -> int:
    failures = 0
    for path in args.files:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: INVALID (cannot read: {exc})")
            failures += 1
            continue
        problems = validate_report(doc)
        if problems:
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
            failures += 1
        else:
            print(f"{path}: ok ({doc.get('schema')})")
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    from repro.harness.parallel import EvictionPolicy
    from repro.serve import QuotaConfig, ServeConfig, run_server

    tenant_quotas = {}
    for spec in args.tenant_quota:
        tenant, _, quota = spec.partition("=")
        if not tenant or not quota:
            print(f"error: bad --tenant-quota {spec!r} "
                  "(expected TENANT=RATE[:BURST])", file=sys.stderr)
            return 2
        try:
            tenant_quotas[tenant] = QuotaConfig.parse(quota)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    eviction = EvictionPolicy(
        max_bytes=args.cache_max_bytes,
        max_entries=args.cache_max_entries,
        max_age_seconds=args.cache_max_age,
        floor_seconds=args.cache_floor,
    )
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        job_timeout=args.job_timeout, cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        quota=QuotaConfig(rate=args.quota_rate,
                          burst=args.quota_burst),
        tenant_quotas=tenant_quotas,
        max_queue_depth=args.max_queue,
        eviction=eviction, evict_every=args.evict_every,
    )

    def ready(host: str, port: int) -> None:
        print(f"repro serve listening on http://{host}:{port} "
              f"({args.workers} workers)")
        sys.stdout.flush()

    try:
        run_server(config, ready=ready, port_file=args.port_file)
    except KeyboardInterrupt:
        pass
    return 0


def _serve_client(args):
    from repro.serve import DEFAULT_URL, ServeClient

    return ServeClient(url=args.server or DEFAULT_URL,
                       tenant=args.tenant)


def _print_job_line(doc: dict) -> None:
    job = doc.get("job", {})
    line = (f"{job.get('id')} state={job.get('state')} "
            f"dedupe={job.get('dedupe') or 'none'}")
    if job.get("kind") == "sweep":
        line += f" members={len(job.get('members', []))}"
    print(line)


def _write_job_doc(doc: dict, path) -> None:
    if path:
        _write_json(path, doc)
        print(f"wrote {path}")


def _cmd_submit(args) -> int:
    from repro.serve import ServeError

    if args.sweep:
        with open(args.sweep) as fh:
            loaded = json.load(fh)
        specs = loaded.get("runs") if isinstance(loaded, dict) \
            else loaded
        if not isinstance(specs, list) or not specs:
            print(f"error: {args.sweep} holds no run specs",
                  file=sys.stderr)
            return 2
    elif args.app is None:
        print("error: pass an APP or --sweep FILE", file=sys.stderr)
        return 2
    else:
        base = {"app": args.app, "procs": args.procs,
                "quick": args.quick, "verify": args.verify}
        if args.prefetch:
            base["prefetch"] = True
        if args.protocols:
            specs = [dict(base, protocol=proto)
                     for proto in args.protocols]
        else:
            specs = [dict(base, protocol=args.protocol)]

    with _serve_client(args) as client:
        try:
            if len(specs) == 1 and not args.sweep \
                    and not args.protocols:
                doc = client.submit_run(specs[0])
            else:
                doc = client.submit_sweep(specs)
        except ServeError as exc:
            print(f"rejected ({exc.status}): "
                  f"{exc.doc.get('error', 'request failed')}",
                  file=sys.stderr)
            if exc.retry_after is not None:
                print(f"retry after {exc.retry_after:.2f}s",
                      file=sys.stderr)
            return 2
        _print_job_line(doc)
        job_id = doc.get("job", {}).get("id", "")
        if args.wait and job_id:
            doc = client.wait(job_id)
            _print_job_line(doc)
    _write_job_doc(doc, args.json)
    if args.wait:
        return 0 if doc.get("job", {}).get("state") == "done" else 1
    return 0


def _cmd_status(args) -> int:
    from repro.serve import ServeError

    try:
        with _serve_client(args) as client:
            doc = client.job(args.job_id)
    except ServeError as exc:
        print(f"error ({exc.status}): "
              f"{exc.doc.get('error', 'request failed')}",
              file=sys.stderr)
        return 2
    _print_job_line(doc)
    _write_job_doc(doc, args.json)
    job = doc.get("job", {})
    if job.get("kind") == "sweep":
        states = doc.get("result", {}).get("members", {})
        for member in job.get("members", []):
            print(f"  {member} state={states.get(member, '?')}")
    return 0


def _cmd_watch_job(args) -> int:
    from repro.serve import ServeError

    final_state = None
    with _serve_client(args) as client:
        try:
            for event in client.events(args.job_id):
                if event.get("kind") == "_end":
                    final_state = event.get("state")
                    break
                print(json.dumps(event, sort_keys=True))
        except ServeError as exc:
            print(f"error ({exc.status}): "
                  f"{exc.doc.get('error', 'request failed')}",
                  file=sys.stderr)
            return 2
        print(f"{args.job_id} finished: {final_state}")
        if args.json:
            _write_job_doc(client.job(args.job_id), args.json)
    return 0 if final_state == "done" else 1


def _cmd_list(_args) -> int:
    print("applications:", ", ".join(experiments.APP_ORDER))
    print("overlap modes:", ", ".join(m.name for m in ALL_MODES))
    print("protocols: TreadMarks (per overlap mode), aurc, aurc "
          "--prefetch")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _event_sink(args) as on_event:
            args.on_event = on_event
            return args.handler(args)
    except BrokenPipeError:
        # The reader went away (``repro trace FILE | head``).  Point
        # stdout at /dev/null so the interpreter's final flush cannot
        # raise a second time, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
