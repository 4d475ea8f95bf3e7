"""Command-line interface: ``slider-reason`` / ``python -m repro.cli``.

Subcommands mirror the demo's three panels plus the benchmark harness:

* ``reason``     — load files (or a named dataset), infer, dump/report.
* ``explain``    — show the cost-based query plan for a BGP (join order,
  index permutation per step, estimated vs. actual rows).
* ``serve``      — run the concurrent reasoning service over HTTP
  (``--follow URL`` turns the node into a read replica of a leader).
* ``replicate``  — inspect a running node's replication status.
* ``metrics``    — scrape and print a running node's ``/metrics``
  (optionally filtered, optionally validated for exposition-format
  correctness and layer coverage).
* ``bench``      — regenerate Table 1 / Figure 3 at a chosen scale.
* ``demo``       — run a traced inference and write the HTML report.
* ``snapshot``   — compact a durable state directory (snapshot + truncate).
* ``recover``    — restore from a durable state directory and report/dump.
* ``fragments``  — list registered fragments.
* ``datasets``   — list named benchmark ontologies.
* ``depgraph``   — print a fragment's rules dependency graph (Figure 2).

Durability: pass ``--persist DIR`` to ``reason`` to journal every commit
into ``DIR`` and recover any state already there (see the README's
*Durability* section).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from .bench.harness import run_table1
from .bench.tables import render_figure3, render_table1_half
from .datasets.loader import DEFAULT_SCALE, dataset_names, dataset_spec, load_dataset
from .demo.report import render_text, write_html_report
from .reasoner.dependency import DependencyGraph
from .reasoner.engine import Slider
from .reasoner.fragments import available_fragments, get_fragment
from .reasoner.trace import Trace, load_trace, save_trace
from .reasoner.vocabulary import Vocabulary
from .dictionary.encoder import TermDictionary

__all__ = ["main", "build_parser"]


_EPILOG = """\
examples:
  slider-reason reason data.nt --fragment rdfs --stats
  slider-reason explain data.nt --query '?x <http://ex/knows> ?y . ?y <http://ex/age> ?a'
  slider-reason reason --dataset BSBM_100k --scale 0.02 --report -
  slider-reason reason data.nt --persist state/        # durable run (WAL + recovery)
  slider-reason snapshot --persist state/              # compact: snapshot + truncate WAL
  slider-reason recover --persist state/ --output closure.nt
  slider-reason bench --experiment table1 --scale 0.02
  slider-reason serve data.nt --port 8080 --persist state/   # HTTP service (leader)
  slider-reason serve data.nt --shards 4 --persist state/    # partitioned leader (4 commit pipelines)
  slider-reason serve --follow http://leader:8080 --port 8081  # read replica
  slider-reason replicate --connect http://127.0.0.1:8081    # replication status
  slider-reason metrics --connect http://127.0.0.1:8080 --filter slider_http
  curl 'http://127.0.0.1:8080/select?query=%3Fx%20%3Chttp%3A//ex/p%3E%20%3Fy'
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slider-reason",
        description="Slider: an efficient incremental RDF reasoner (SIGMOD 2015 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    reason = subparsers.add_parser("reason", help="run inference over RDF files")
    reason.add_argument("inputs", nargs="*", help=".nt / .ttl files to load")
    reason.add_argument("--dataset", help="a named benchmark ontology instead of files")
    reason.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="size multiplier for --dataset (default %(default)s)")
    _add_reasoner_options(reason)
    reason.add_argument("--output", help="write the materialized graph as N-Triples")
    reason.add_argument("--stats", action="store_true", help="print per-rule counters")
    reason.add_argument("--report", nargs="?", const="-", metavar="PATH",
                        help="write the commit's InferenceReport as JSON "
                             "(to PATH, or stdout when no path is given)")

    explain_parser = subparsers.add_parser(
        "explain",
        help="show the cost-based query plan for a BGP over loaded data",
    )
    explain_parser.add_argument("inputs", nargs="*", help=".nt / .ttl files to load")
    explain_parser.add_argument("--dataset",
                                help="a named benchmark ontology instead of files")
    explain_parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                                help="size multiplier for --dataset "
                                     "(default %(default)s)")
    _add_reasoner_options(explain_parser)
    explain_parser.add_argument("--query", required=True,
                                help="the BGP: '.'-separated triple patterns in "
                                     "N-Triples syntax with ?variables")
    explain_parser.add_argument("--json", action="store_true",
                                help="emit the raw explain payload as JSON")

    serve = subparsers.add_parser(
        "serve",
        help="serve the reasoner over HTTP (reads, coalesced writes, SSE)",
    )
    serve.add_argument("inputs", nargs="*", help=".nt / .ttl files to preload")
    serve.add_argument("--dataset", help="a named benchmark ontology to preload")
    serve.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                       help="size multiplier for --dataset (default %(default)s)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral one (default %(default)s)")
    _add_reasoner_options(serve)
    serve.add_argument("--coalesce-ms", type=float, default=2.0,
                       help="write-coalescing window in milliseconds "
                            "(default %(default)s)")
    serve.add_argument("--retain-views", type=int, default=8,
                       help="recent revisions pinnable via at= (default %(default)s)")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition the triple space across N leader engines "
                            "(one commit pipeline each; 1 = single-node, "
                            "default %(default)s)")
    serve.add_argument("--router", choices=("subject", "predicate"),
                       default="subject",
                       help="partition key for --shards > 1: subject hash or "
                            "predicate group (default %(default)s)")
    serve.add_argument("--follow", metavar="URL", default=None,
                       help="run as a read replica of the leader at URL "
                            "(bootstraps from its snapshot, tails its feed; "
                            "the rule fragment is discovered from the leader)")
    serve.add_argument("--feed-retain", type=int, default=1024,
                       help="committed deltas the change feed keeps in memory "
                            "for resuming followers (default %(default)s)")
    serve.add_argument("--tenancy", action="store_true",
                       help="enable multi-tenant serving: ?tenant= routing, "
                            "/tenants management, per-tenant quotas and "
                            "fair-share write scheduling")
    serve.add_argument("--tenant-queue-limit", type=int, default=256,
                       help="bounded per-tenant write queue depth; a full "
                            "queue answers 429 + Retry-After "
                            "(default %(default)s)")
    serve.add_argument("--slow-query-ms", type=float, default=250.0,
                       help="log /select, /ask and /construct slower than this "
                            "many milliseconds with their timing breakdown and "
                            "query plan; 0 disables (default %(default)s)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    replicate = subparsers.add_parser(
        "replicate",
        help="inspect the replication status of a running node",
    )
    replicate.add_argument("--connect", required=True, metavar="URL",
                           help="base URL of the node to inspect")

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape and print a running node's /metrics exposition",
    )
    metrics.add_argument("--connect", required=True, metavar="URL",
                         help="base URL of the node to scrape")
    metrics.add_argument("--filter", default=None, metavar="SUBSTR",
                         help="only print metric families whose name contains "
                              "SUBSTR (HELP/TYPE lines included)")
    metrics.add_argument("--check", action="store_true",
                         help="validate the exposition format and require one "
                              "metric family per instrumented layer "
                              "(exit 1 on violation)")

    bench = subparsers.add_parser("bench", help="regenerate the paper's experiments")
    bench.add_argument("--experiment", choices=("table1", "fig3"), default="table1")
    bench.add_argument("--fragment", default="both",
                       choices=("rhodf", "rdfs", "both"))
    bench.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    bench.add_argument("--workers", type=int, default=2)
    bench.add_argument("--datasets", nargs="*", default=None,
                       help="restrict to these dataset names")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="compact a durable state directory (write snapshot, truncate changelog)",
    )
    snapshot.add_argument("--persist", required=True, metavar="DIR",
                          help="the durable state directory to compact")
    _add_persist_tuning(snapshot)

    recover = subparsers.add_parser(
        "recover",
        help="restore a durable state directory and report the recovered closure",
    )
    recover.add_argument("--persist", required=True, metavar="DIR",
                         help="the durable state directory to restore from")
    recover.add_argument("--output", help="write the recovered graph as N-Triples")
    recover.add_argument("--stats", action="store_true",
                         help="print store statistics after recovery")
    _add_persist_tuning(recover)

    demo = subparsers.add_parser("demo", help="traced inference + HTML report")
    demo.add_argument("--dataset", default="subClassOf100")
    demo.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    _add_reasoner_options(demo)
    demo.add_argument("--report", help="write the HTML report here")
    demo.add_argument("--save-trace", help="persist the trace as JSON for replay")
    demo.add_argument("--replay", help="replay a saved trace instead of running")

    subparsers.add_parser("fragments", help="list registered fragments")
    subparsers.add_parser("datasets", help="list named benchmark ontologies")

    depgraph = subparsers.add_parser("depgraph", help="print a rules dependency graph")
    depgraph.add_argument("--fragment", default="rhodf")
    depgraph.add_argument("--dot", action="store_true", help="GraphViz output")
    return parser


def _add_reasoner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fragment", default="rhodf",
                        help="rule fragment (default %(default)s)")
    parser.add_argument("--buffer-size", type=int, default=50,
                        help="triples per rule firing (default %(default)s)")
    parser.add_argument("--timeout", type=float, default=0.05,
                        help="buffer inactivity flush, seconds; 0 disables")
    parser.add_argument("--workers", type=int, default=4,
                        help="rule thread-pool size; 0 = inline (default %(default)s)")
    parser.add_argument("--persist", default=None, metavar="DIR",
                        help="durable state directory: journal every commit and "
                             "recover existing state on start-up")
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip the fsync-per-commit (faster, page-cache "
                             "durability only)")


def _add_persist_tuning(parser: argparse.ArgumentParser) -> None:
    """The reasoner knobs the durable-state subcommands need."""
    parser.add_argument("--fragment", default="rhodf",
                        help="rule fragment the state was built with (default %(default)s)")
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip the fsync-per-commit during this operation")


def _make_reasoner(args, trace: Trace | None = None) -> Slider:
    timeout = None if not args.timeout else args.timeout
    return Slider(
        fragment=args.fragment,
        buffer_size=args.buffer_size,
        timeout=timeout,
        workers=args.workers,
        trace=trace,
        persist_dir=args.persist,
        persist_fsync=not args.no_fsync,
    )


def _open_recovered(args) -> Slider:
    """A deterministic engine over a durable state directory."""
    return Slider(
        fragment=args.fragment,
        workers=0,
        timeout=None,
        persist_dir=args.persist,
        persist_fsync=not args.no_fsync,
    )


def _print_recovery(reasoner: Slider) -> None:
    info = reasoner.recovery
    if info is None:
        return
    if hasattr(info, "revision_vector"):  # cluster recovery
        vector = ",".join(str(r) for r in info.revision_vector)
        torn = ", shards ahead of the cluster log reconciled" if info.torn else ""
        print(
            f"recovered global revision {info.recovered_revision} "
            f"across {info.shards} shards (revision vector [{vector}], "
            f"replayed {info.replayed_records} cluster log records{torn})"
        )
        return
    torn = f", dropped {info.torn_bytes_dropped} torn bytes" if info.torn_bytes_dropped else ""
    print(
        f"recovered revision {info.recovered_revision} "
        f"(snapshot rev {info.snapshot_revision}: {info.snapshot_triples} triples, "
        f"replayed {info.replayed_records} changelog records{torn})"
    )


def _cmd_reason(args) -> int:
    if bool(args.inputs) == bool(args.dataset):
        print("error: provide input files or --dataset (not both)", file=sys.stderr)
        return 2
    reasoner = _make_reasoner(args)
    _print_recovery(reasoner)
    start = time.perf_counter()
    if args.dataset:
        reasoner.add(load_dataset(args.dataset, args.scale))
    else:
        for path in args.inputs:
            reasoner.load(path)
    report = reasoner.flush()
    elapsed = time.perf_counter() - start
    print(
        f"{reasoner.input_count} explicit + {reasoner.inferred_count} inferred "
        f"= {len(reasoner)} triples in {elapsed:.3f}s "
        f"({reasoner.input_count / elapsed:,.0f} triples/s)"
    )
    if args.report:
        payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if args.report == "-":
            print(payload)
        else:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote inference report to {args.report}")
    if args.stats:
        for rule, counters in sorted(reasoner.counters().items()):
            print(
                f"  {rule:<12} runs={counters['executions']:<6} "
                f"derived={counters['derived']:<8} kept={counters['kept']:<8} "
                f"fires={counters['size_fires']}+{counters['timeout_fires']}t"
            )
    if args.output:
        written = reasoner.graph.dump_ntriples(args.output)
        print(f"wrote {written} triples to {args.output}")
    reasoner.close()
    return 0


def _cmd_explain(args) -> int:
    if bool(args.inputs) == bool(args.dataset):
        print("error: provide input files or --dataset (not both)", file=sys.stderr)
        return 2
    from .server.wire import PatternSyntaxError, parse_patterns
    from .store.query import explain

    try:
        patterns = parse_patterns(args.query)
    except PatternSyntaxError as error:
        print(f"error: bad query: {error}", file=sys.stderr)
        return 2
    with _make_reasoner(args) as reasoner:
        _print_recovery(reasoner)
        if args.dataset:
            reasoner.add(load_dataset(args.dataset, args.scale))
        else:
            for path in args.inputs:
                reasoner.load(path)
        reasoner.flush()
        payload = explain(reasoner.graph, patterns)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"plan for {payload['pattern_count']} pattern(s) over "
        f"{payload['backend']} ({payload['store_size']:,} triples), "
        f"join order {payload['plan_order']}"
    )
    print(f"  {'step':<5} {'pattern':<48} {'access':<24} "
          f"{'est rows':>10} {'actual':>8}")
    for row in payload["steps"]:
        print(
            f"  {row['step']:<5} {row['pattern']:<48} {row['access']:<24} "
            f"{row['estimated_rows']:>10,.1f} {row['actual_rows']:>8,}"
        )
    print(f"{payload['solutions']} solution(s)")
    return 0


def _cmd_serve(args) -> int:
    import signal

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.follow:
        if args.shards > 1:
            print("error: --shards applies to leaders only (a --follow "
                  "replica replays the leader's single feed)", file=sys.stderr)
            return 2
        if args.tenancy:
            print("error: --tenancy applies to leaders only (replicas are "
                  "read-only and hold no tenant engines)", file=sys.stderr)
            return 2
        return _cmd_serve_follower(args)

    from .replication.feed import ChangeFeed
    from .server import ReasoningService
    from .server.http import serve as start_server

    if args.shards > 1:
        from .sharding import ShardedReasoner

        reasoner = ShardedReasoner(
            fragment=args.fragment,
            shards=args.shards,
            router=args.router,
            buffer_size=args.buffer_size,
            timeout=None if not args.timeout else args.timeout,
            workers=args.workers,
            persist_dir=args.persist,
            persist_fsync=not args.no_fsync,
        )
    else:
        reasoner = _make_reasoner(args)
    _print_recovery(reasoner)
    if args.dataset:
        reasoner.add(load_dataset(args.dataset, args.scale))
    for path in args.inputs:
        reasoner.load(path)
    service = ReasoningService(
        reasoner=reasoner,
        coalesce_tick=args.coalesce_ms / 1000.0,
        retain_views=args.retain_views,
    )
    # Every leader exposes the change feed: replicas can attach at any
    # time (the feed itself costs one in-memory ring of recent deltas).
    ChangeFeed(service, retain=args.feed_retain)
    tenants = None
    if args.tenancy:
        from pathlib import Path

        from .tenancy import TenantManager, TenantQuota, TenantRegistry

        tenant_dir = Path(args.persist) / "tenants" if args.persist else None
        registry = None
        if tenant_dir is None or not (tenant_dir / "tenants.json").exists():
            # First boot: an open registry (unlimited default quota) so
            # tenants self-provision on first write; operators tighten
            # limits via POST /tenants (persisted thereafter).
            registry = TenantRegistry(default_quota=TenantQuota())
        tenants = TenantManager(
            registry=registry,
            persist_dir=tenant_dir,
            coalesce_tick=args.coalesce_ms / 1000.0,
            queue_limit=args.tenant_queue_limit,
            fragment=args.fragment,
            buffer_size=args.buffer_size,
            workers=args.workers,
            timeout=None if not args.timeout else args.timeout,
            persist_fsync=not args.no_fsync,
        )
    server, _thread = start_server(
        service, host=args.host, port=args.port, verbose=args.verbose,
        tenants=tenants, slow_query_seconds=args.slow_query_ms / 1000.0,
    )
    topology = f", {args.shards} shards" if args.shards > 1 else ""
    if tenants is not None:
        topology += f", tenancy ({len(tenants.registry)} tenants)"
    # Parseable by scripts (and tests) even on ephemeral --port 0.
    print(f"listening on {server.url} as leader "
          f"(revision {service.revision}, {len(service.view())} triples"
          f"{topology})",
          flush=True)

    stop = threading.Event()

    def request_stop(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    stop.wait()
    # Graceful drain: stop accepting connections, then commit + journal
    # everything queued — SIGTERM on a durable service must leave a
    # recoverable directory (see tests/server/test_shutdown.py).
    print("shutting down: draining writes ...", flush=True)
    server.shutdown()
    server.server_close()
    if tenants is not None:
        tenants.close()
    service.close()
    print(f"stopped cleanly at revision {reasoner.revision}", flush=True)
    return 0


def _cmd_serve_follower(args) -> int:
    import signal

    from .replication import Follower

    if args.inputs or args.dataset:
        print("error: a --follow replica takes no inputs/--dataset "
              "(its state comes from the leader)", file=sys.stderr)
        return 2
    from http.client import HTTPException

    from .replication.follower import ReplicationError

    try:
        follower = Follower(
            args.follow,
            workers=args.workers,
            timeout=None if not args.timeout else args.timeout,
            buffer_size=args.buffer_size,
            persist_dir=args.persist,
            persist_fsync=not args.no_fsync,
            retain_views=args.retain_views,
        )
        follower.start()  # discovers the fragment from the leader
    except (OSError, HTTPException, ReplicationError) as error:
        print(f"error: cannot follow {args.follow}: {error}", file=sys.stderr)
        return 1
    server, _thread = follower.serve_http(
        host=args.host, port=args.port, verbose=args.verbose,
        slow_query_seconds=args.slow_query_ms / 1000.0,
    )
    print(f"listening on {server.url} as follower of {follower.leader_url} "
          f"(revision {follower.status.applied_revision})", flush=True)
    if follower.wait_ready(timeout=60):
        print(f"caught up at revision {follower.revision} "
              f"(lag {follower.status.lag})", flush=True)
    else:
        print("warning: not caught up yet; /readyz stays 503 until the "
              "replica reaches the leader's revision", flush=True)

    stop = threading.Event()

    def request_stop(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    stop.wait()
    print("shutting down replica ...", flush=True)
    server.shutdown()
    server.server_close()
    follower.close()
    print(f"stopped cleanly at revision {follower.status.applied_revision}",
          flush=True)
    return 0


def _cmd_replicate(args) -> int:
    """Print a node's replication standing; exit 0 ready / 2 catching up."""
    import json as _json
    from http.client import HTTPConnection
    from urllib.parse import urlsplit

    from http.client import HTTPException

    parts = urlsplit(args.connect if "//" in args.connect else f"http://{args.connect}")
    try:
        conn = HTTPConnection(parts.hostname, parts.port or 80, timeout=10)
        conn.request("GET", "/stats")
        response = conn.getresponse()
        stats_code = response.status
        stats = _json.loads(response.read())
        conn.request("GET", "/readyz")
        response = conn.getresponse()
        ready_code = response.status
        response.read()
        conn.close()
    except (OSError, HTTPException, ValueError) as error:
        print(f"error: cannot reach {args.connect}: {error}", file=sys.stderr)
        return 1
    if stats_code != 200:
        # e.g. 503 during a durable replica's re-bootstrap handover.
        print(f"node is not serving stats ({stats_code}): "
              f"{stats.get('error', stats)}", file=sys.stderr)
        return 2
    role = stats.get("role", "leader")
    print(f"role      : {role}")
    print(f"revision  : {stats.get('revision')}")
    print(f"triples   : {stats.get('triples'):,}")
    print(f"ready     : {stats.get('ready')} (/readyz -> {ready_code})")
    sharding = stats.get("sharding")
    if sharding:
        forwards = sharding["forwards"]
        print(f"shards    : {sharding['shards']} ({sharding['router']} routing), "
              f"revision vector [{','.join(str(r) for r in sharding['revision_vector'])}], "
              f"{forwards['assertions']} assertion / {forwards['retractions']} "
              f"retraction forwards in {forwards['rounds']} closure rounds")
        for row in sharding["per_shard"]:
            print(f"  shard {row['shard']:<3} revision {row['revision']:<6} "
                  f"{row['triples']:>9,} triples "
                  f"({row['input']:,} explicit + {row['inferred']:,} inferred)")
    replication = stats.get("replication")
    if replication:
        print(f"leader    : {replication['leader']}")
        print(f"connected : {replication['connected']}")
        print(f"lag       : {replication['lag_revisions']} revisions "
              f"(applied {replication['applied_revision']}, "
              f"leader {replication['leader_revision']})")
        print(f"applied   : {replication['records_applied']} records, "
              f"{replication['bootstraps']} bootstrap(s), "
              f"{replication['reconnects']} reconnect(s)")
        if replication.get("last_error"):
            print(f"last error: {replication['last_error']}")
    feed = stats.get("feed")
    if feed:
        print(f"feed      : {feed['retained_records']} records retained, "
              f"latest revision {feed['latest_revision']}, "
              f"resumable from {feed['oldest_resumable']}"
              f"{' (WAL-backed)' if feed.get('wal_backed') else ''}")
    return 0 if ready_code == 200 else 2


def _cmd_metrics(args) -> int:
    """Scrape ``<url>/metrics``; print it, optionally filtered/validated."""
    import urllib.error
    import urllib.request

    from .obs import LAYER_PREFIXES, validate_exposition

    base = args.connect if "//" in args.connect else f"http://{args.connect}"
    try:
        with urllib.request.urlopen(f"{base.rstrip('/')}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
    except (OSError, ValueError) as error:
        print(f"error: cannot scrape {base}/metrics: {error}", file=sys.stderr)
        return 1
    if args.check:
        try:
            families = validate_exposition(text, require_layers=LAYER_PREFIXES)
        except ValueError as error:
            print(f"error: invalid exposition: {error}", file=sys.stderr)
            return 1
        print(f"# exposition valid: {len(families)} families, "
              f"layers {', '.join(LAYER_PREFIXES)}", file=sys.stderr)
    for line in text.splitlines():
        if args.filter is not None:
            # Match on the metric name: token 3 of HELP/TYPE comments,
            # the text before '{' or ' ' of sample lines.
            if line.startswith("#"):
                parts = line.split(None, 3)
                name = parts[2] if len(parts) > 2 else ""
            else:
                name = line.split("{", 1)[0].split(" ", 1)[0]
            if args.filter not in name:
                continue
        print(line)
    return 0


def _cmd_bench(args) -> int:
    fragments = ("rhodf", "rdfs") if args.fragment == "both" else (args.fragment,)
    halves = {}
    for fragment in fragments:
        rows = run_table1(fragment, datasets=args.datasets, scale=args.scale,
                          workers=args.workers)
        halves[fragment] = rows
        print(render_table1_half(rows, "ρdf" if fragment == "rhodf" else fragment.upper()))
        print()
    if args.experiment == "fig3" and len(halves) == 2:
        print(render_figure3(halves["rhodf"], halves["rdfs"]))
    return 0


def _cmd_snapshot(args) -> int:
    with _open_recovered(args) as reasoner:
        _print_recovery(reasoner)
        path = reasoner.snapshot()
        print(
            f"snapshot of revision {reasoner.revision} "
            f"({len(reasoner)} triples) written to {path} "
            f"({path.stat().st_size:,} bytes); changelog truncated"
        )
    return 0


def _cmd_recover(args) -> int:
    with _open_recovered(args) as reasoner:
        if reasoner.recovery is None:
            print(f"nothing to recover in {args.persist} (cold directory)")
        else:
            _print_recovery(reasoner)
        print(
            f"{reasoner.input_count} explicit + {reasoner.inferred_count} inferred "
            f"= {len(reasoner)} triples at revision {reasoner.revision}"
        )
        if args.stats:
            for key, value in sorted(reasoner.store.stats().items()):
                print(f"  {key:<14} {value:,}")
        if args.output:
            written = reasoner.graph.dump_ntriples(args.output)
            print(f"wrote {written} triples to {args.output}")
    return 0


def _cmd_demo(args) -> int:
    if args.replay:
        trace, config = load_trace(args.replay)
        print(f"replaying {len(trace)} recorded events from {args.replay}")
    else:
        trace = Trace()
        reasoner = _make_reasoner(args, trace=trace)
        reasoner.add(load_dataset(args.dataset, args.scale))
        reasoner.flush()
        reasoner.close()
        config = {
            "dataset": args.dataset,
            "fragment": args.fragment,
            "buffer_size": args.buffer_size,
            "timeout": args.timeout,
            "workers": args.workers,
        }
    print(render_text(trace, config))
    if args.save_trace and not args.replay:
        written = save_trace(trace, args.save_trace, config)
        print(f"\ntrace ({written} events) written to {args.save_trace}")
    if args.report:
        write_html_report(trace, args.report, config)
        print(f"\nHTML report written to {args.report}")
    return 0


def _cmd_fragments(_args) -> int:
    for name in available_fragments():
        fragment = get_fragment(name)
        rules = fragment.rules(Vocabulary(TermDictionary()))
        print(f"{name:<12} {len(rules):>3} rules  {fragment.description}")
    return 0


def _cmd_datasets(_args) -> int:
    for name in dataset_names():
        spec = dataset_spec(name)
        scaled = "" if spec.scalable else "  (fixed size)"
        print(f"{name:<16} paper size {spec.paper_size:>9,} triples{scaled}")
    return 0


def _cmd_depgraph(args) -> int:
    fragment = get_fragment(args.fragment)
    rules = fragment.rules(Vocabulary(TermDictionary()))
    graph = DependencyGraph(rules)
    if args.dot:
        print(graph.to_dot())
        return 0
    print(f"rules dependency graph for {fragment.name} "
          f"({len(rules)} rules, {len(graph.edges())} edges)")
    universal = set(graph.universal_rules())
    for name in graph.rule_names():
        marker = " [universal input]" if name in universal else ""
        successors = ", ".join(graph.successors(name)) or "-"
        print(f"  {name:<12}{marker} -> {successors}")
    return 0


_COMMANDS = {
    "reason": _cmd_reason,
    "explain": _cmd_explain,
    "serve": _cmd_serve,
    "replicate": _cmd_replicate,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "demo": _cmd_demo,
    "snapshot": _cmd_snapshot,
    "recover": _cmd_recover,
    "fragments": _cmd_fragments,
    "datasets": _cmd_datasets,
    "depgraph": _cmd_depgraph,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
