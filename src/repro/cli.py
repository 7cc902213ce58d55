"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro compare --rate 10 --size-kb 200 --runs 10
    python -m repro heatmap --rates 5,10,50 --sizes-kb 5,100,1000 --runs 5
    python -m repro spec --file examples/specs/desktop_plt.json --jobs 4
    python -m repro spec --file examples/specs/desktop_plt.json --cache
    python -m repro store stats
    python -m repro serve --store sweeps/ --port 8737
    python -m repro worker --file grid.json --url http://lab:8737 --workers 8
    python -m repro report --from-store http://lab:8737 --live
    python -m repro fairness --tcp-flows 2 --duration 30
    python -m repro bulk --protocol quic --size-mb 10 --rate 100 --loss 1
    python -m repro video --quality hd2160 --runs 3
    python -m repro statemachine --out fsm.dot
    python -m repro bench --profile 25
    python -m repro versions

Every command builds the same simulated testbed the benchmarks use, so
CLI results match ``pytest benchmarks/`` cell for cell.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .core.executor import ProtocolSpec
from .core.runner import (
    build_plt_heatmap,
    compare_page_load,
    run_bulk_transfer,
    run_fairness,
    run_page_load,
)
from .core.statemachine import infer
from .devices import DEVICE_PROFILES
from .http import page, single_object_page
from .netem import AQM_NAMES, emulated
from .quic import KNOWN_VERSIONS, quic_config
from .video import QUALITIES, measure_video_qoe


def _floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _scenario(args: argparse.Namespace):
    return emulated(
        args.rate,
        extra_delay_ms=getattr(args, "delay_ms", 0.0),
        loss_pct=getattr(args, "loss", 0.0),
        jitter_ms=getattr(args, "jitter_ms", 0.0),
    )


def _workload(args: argparse.Namespace):
    if getattr(args, "objects", None):
        return page(args.objects, args.size_kb * 1024)
    return single_object_page(args.size_kb * 1024)


def _open_store(location, *, must_exist=False):
    """Open the results store a command names.

    :func:`repro.store.open_store` resolves it — explicit path or URL >
    ``$REPRO_STORE`` > default, a bare flag's ``""`` meaning unset — and
    a directory that is some other program's store is a clean error.
    With ``must_exist`` a missing store raises ``StoreNotFoundError``;
    each command words its own hint.
    """
    from .store import open_store

    try:
        return open_store(location, must_exist=must_exist)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cache(args: argparse.Namespace):
    """Build the RunCache behind ``--cache [PATH|URL]``."""
    location = getattr(args, "cache", None)
    if location is None:
        return None
    from .store import RunCache

    return RunCache(_open_store(location))


def _print_session(cache) -> None:
    """The hit/miss footer of a ``--cache`` run."""
    if cache is not None:
        print(cache.describe_session())


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    workload = _workload(args)
    device = DEVICE_PROFILES[args.device]
    cache = _cache(args)
    cell = compare_page_load(scenario, workload, runs=args.runs,
                             device=device, jobs=args.jobs, store=cache)
    print(cell.describe())
    _print_session(cache)
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    scenarios = [emulated(rate, loss_pct=args.loss,
                          extra_delay_ms=args.delay_ms)
                 for rate in _floats(args.rates)]
    pages = [single_object_page(kb * 1024) for kb in _ints(args.sizes_kb)]
    cache = _cache(args)
    try:
        heatmap = build_plt_heatmap(
            "QUIC vs TCP page load time", scenarios, pages, runs=args.runs,
            device=DEVICE_PROFILES[args.device], jobs=args.jobs, store=cache,
        )
    except ValueError as exc:  # e.g. --rates 10,10: two rows, one label
        raise SystemExit(f"error: {exc}")
    print(heatmap.render())
    _print_session(cache)
    return 0


def cmd_fairness(args: argparse.Namespace) -> int:
    result = run_fairness(n_quic=args.quic_flows, n_tcp=args.tcp_flows,
                          duration=args.duration, seed=args.seed)
    print(f"bottleneck: {result.scenario.describe()}, "
          f"{args.duration:.0f}s window")
    for flow in sorted(result.average_mbps):
        print(f"  {flow:<8} {result.average_mbps[flow]:6.2f} Mbps")
    print(f"QUIC share of delivered bytes: {result.quic_share() * 100:.0f}%")
    return 0


def cmd_bulk(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    protocol = ProtocolSpec.of(args.protocol)
    if args.nack_threshold is not None:
        if args.protocol != "quic":
            raise SystemExit("error: --nack-threshold applies to --protocol quic")
        protocol = ProtocolSpec("quic", quic_config(34).with_(
            nack_threshold=args.nack_threshold))
    result = run_bulk_transfer(
        scenario, int(args.size_mb * 1024 * 1024), protocol,
        seed=args.seed,
    )
    print(f"{args.protocol}: {result.elapsed:.3f}s, "
          f"{result.throughput_mbps:.2f} Mbps, "
          f"losses={result.losses}, spurious={result.false_losses}")
    dwell = result.server_trace.dwell_fractions()
    for state, fraction in sorted(dwell.items(), key=lambda kv: -kv[1]):
        print(f"  {state:<26} {fraction * 100:5.1f}% of time")
    return 0


def cmd_video(args: argparse.Namespace) -> int:
    scenario = emulated(args.rate, loss_pct=args.loss)
    for protocol in ("quic", "tcp"):
        agg = measure_video_qoe(args.quality, protocol, runs=args.runs,
                                scenario=scenario)
        print(agg.row())
    return 0


def cmd_statemachine(args: argparse.Namespace) -> int:
    traces = []
    environments = [
        (emulated(10.0), single_object_page(1024 * 1024)),
        (emulated(100.0, loss_pct=1.0), single_object_page(2 * 1024 * 1024)),
        (emulated(5.0), page(10, 50 * 1024)),
    ]
    for scenario, workload in environments:
        out = run_page_load(scenario, workload, "quic", seed=args.seed,
                            trace=True)
        traces.append(out.server_trace)
    model = infer(traces)
    print(model.summary())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(model.to_dot("QUIC congestion control"))
        print(f"\nDOT written to {args.out}")
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    from .core.experiment import ExperimentSpec, run_experiment

    with open(args.file) as handle:
        spec = ExperimentSpec.from_json(handle.read())
    print(f"running spec {spec.name!r}: {len(spec.scenarios)} scenarios x "
          f"{len(spec.workloads)} workloads x {spec.runs} runs"
          + (f" on {args.jobs or 'all'} workers" if args.jobs != 1 else ""))
    cache = _cache(args)
    try:
        result = run_experiment(
            spec, seed_base=args.seed, jobs=args.jobs, store=cache,
            progress=lambda key, plts: print(f"  done {'/'.join(key)}"),
        )
    except ValueError as exc:  # two spec entries under one cell label
        raise SystemExit(f"error: {exc}")
    print()
    heatmap = result.heatmap()
    # A single-protocol spec has no QUIC-vs-TCP cell to draw.
    print(heatmap.render() if heatmap.cells
          else "\n".join(result.summary_rows()))
    _print_session(cache)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(result.to_json())
        print(f"\nfull samples written to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.report import (
        build_report,
        build_store_report,
        missing_experiments,
    )

    if args.from_store is not None:
        from .store import StoreNotFoundError

        try:
            found = _open_store(args.from_store, must_exist=True)
        except StoreNotFoundError as exc:
            print(f"{exc} — run a sweep with --cache first")
            return 0
        with found as store:
            text = build_store_report(store, live=args.live)
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0
    if args.live:
        raise SystemExit("error: --live only applies to --from-store "
                         "(file-based reports are always final)")

    results_dir = Path(args.results)
    text = build_report(results_dir)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    missing = missing_experiments(results_dir)
    if missing:
        print(f"\nnote: {len(missing)} experiments not yet run "
              f"({', '.join(missing[:5])}...)"
              if len(missing) > 5 else
              f"\nnote: not yet run: {', '.join(missing)}")
    return 0


def _resolve_key(store, prefix: str) -> str:
    """Expand a (possibly abbreviated) run key to the full stored key."""
    matches = [key for key in store.keys() if key.startswith(prefix)]
    if not matches:
        raise SystemExit(f"no stored run matches key {prefix!r}")
    if len(matches) > 1:
        raise SystemExit(
            f"key {prefix!r} is ambiguous ({len(matches)} matches); "
            f"give more digits")
    return matches[0]


def cmd_store(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time
    from pathlib import Path as _Path

    from .store import (
        StoreNotFoundError,
        code_fingerprints,
        merge_into,
        record_to_dict,
    )

    # Read-only commands on a store that was never created get a
    # friendly note instead of a traceback (or a spurious empty store).
    read_only = args.store_command in ("ls", "show", "stats", "gc", "export",
                                       "fsck")
    try:
        opened = _open_store(args.store, must_exist=read_only)
    except StoreNotFoundError as exc:
        print(f"{exc} — nothing to {args.store_command}; run a sweep with "
              "--cache to create one")
        return 0

    with opened as store:
        if args.store_command == "ls":
            if len(store) == 0:
                print(f"results store at {store.path} is empty")
                return 0
            for key, created, fingerprint, label in store.rows():
                stamp = _time.strftime("%Y-%m-%d %H:%M:%S",
                                       _time.localtime(created))
                print(f"{key[:16]}  {stamp}  {label}")
            print(f"{len(store)} stored run(s) in {store.path} "
                  f"[{store.kind}]")
        elif args.store_command == "show":
            key = _resolve_key(store, args.key)
            record = store.get(key)
            print(_json.dumps({"key": key, **record_to_dict(record)},
                              indent=2, sort_keys=True))
        elif args.store_command == "export":
            count = store.export_jsonl(args.file)
            print(f"exported {count} run(s) to {args.file}")
        elif args.store_command == "import":
            count = store.import_jsonl(args.file)
            print(f"imported {count} run(s) into {store.path}")
        elif args.store_command == "sync":
            try:
                imported, skipped = merge_into(store, args.source)
            except FileNotFoundError as exc:
                raise SystemExit(str(exc))
            print(f"synced from {args.source}: {imported} imported, "
                  f"{skipped} already present; {len(store)} total in "
                  f"{store.path}")
        elif args.store_command == "gc":
            if len(store) == 0:
                print(f"results store at {store.path} is empty — "
                      "nothing to collect")
                return 0
            dropped = store.gc(args.older_than * 86400.0,
                               dry_run=args.dry_run)
            if args.dry_run:
                print(f"would drop {dropped} run(s) older than "
                      f"{args.older_than:g} day(s); {len(store)} stored "
                      "(dry run, nothing removed)")
            else:
                print(f"dropped {dropped} run(s) older than "
                      f"{args.older_than:g} day(s); {len(store)} remain")
        elif args.store_command == "fsck":
            from .store.fsck import fsck
            try:
                report = fsck(store, repair=args.repair)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
            print(report.summary())
            for issue in report.checksum_failures + report.key_mismatches:
                shown = issue.key[:16] if issue.key else "(unreadable)"
                print(f"  {issue.kind}: {shown} in {issue.location}"
                      + (f" — {issue.detail}" if issue.detail else ""))
            if not report.clean and not args.repair:
                print("re-run with --repair to quarantine corrupt rows")
            return 0 if report.clean else 1
        elif args.store_command == "stats":
            counters = store.counters()
            current = code_fingerprints()
            reusable = set(current)
            if args.fingerprint:
                reusable.add(args.fingerprint)
            by_fingerprint = store.fingerprints()
            fresh = sum(n for f, n in by_fingerprint.items()
                        if f in reusable)
            print(f"store:   {store.path} [{store.kind}]")
            pinned = f" or {args.fingerprint}" if args.fingerprint else ""
            print(f"runs:    {len(store)} stored "
                  f"({fresh} reusable by the current code{pinned})")
            hits = counters.get("hits", 0)
            misses = counters.get("misses", 0)
            total = hits + misses
            rate = (100.0 * hits / total) if total else 0.0
            print(f"lookups: {hits} hits / {misses} misses "
                  f"({rate:.0f}% lifetime hit rate)")
            print(f"writes:  {counters.get('writes', 0)}")
            stale = {f: n for f, n in by_fingerprint.items()
                     if f not in reusable}
            if stale:
                print(f"stale:   {sum(stale.values())} run(s) from "
                      f"{len(stale)} older code fingerprint(s) "
                      f"(unreachable by the current code; for a pinned "
                      f"release pass --fingerprint FP)")
            shard_stats = getattr(store, "stats", None)
            if callable(shard_stats):
                info = shard_stats()
                print(f"shards:  {info['shards']} shard(s), "
                      f"{info['ledger_lines']} ledger line(s) "
                      f"({info['dead_lines']} dead)")
                if info["torn_lines"]:
                    print(f"torn:    {info['torn_lines']} torn line(s) "
                          f"across {len(info['torn_by_shard'])} shard(s) — "
                          f"run 'repro store fsck --repair' to quarantine")
            quarantined = counters.get("quarantined", 0)
            if quarantined:
                print(f"quarantined: {quarantined} row(s) moved aside by "
                      f"'store fsck --repair'")
            plain, proxied = current
            print(f"code:    plain={plain[:8]}, proxied={proxied[:8]}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .fabric import StoreServer
    from .store import KEY_SCHEMA_VERSION, is_store_url

    if is_store_url(args.store or ""):
        raise SystemExit(
            "error: repro serve exposes a *local* store over HTTP; point "
            "--store at a file or directory, not another server's URL")
    store = _open_store(args.store)
    try:
        server = StoreServer(store, host=args.host, port=args.port,
                             verbose=args.verbose)
    except OSError as exc:
        # Most commonly EADDRINUSE: another server (or an old one) is
        # already bound there — one line, not a traceback.
        raise SystemExit(
            f"error: cannot serve on {args.host}:{args.port} "
            f"({getattr(exc, 'strerror', None) or exc}); is another "
            f"'repro serve' already running there? pick a different "
            f"--port (0 = any free port)")
    print(f"serving {store.kind} store {store.path} at {server.url} "
          f"(key schema v{KEY_SCHEMA_VERSION}, {len(store)} stored "
          f"run(s)); Ctrl-C to stop", flush=True)
    server.serve_forever()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .core.experiment import ExperimentSpec, experiment_requests
    from .fabric import run_fabric_sweep

    with open(args.file) as handle:
        spec = ExperimentSpec.from_json(handle.read())
    requests = [request
                for _key, cell in experiment_requests(spec,
                                                      seed_base=args.seed)
                for request in cell]
    print(f"sweeping spec {spec.name!r}: {len(requests)} runs against "
          f"{args.url} on {args.workers} worker process(es)", flush=True)
    summary = run_fabric_sweep(
        requests, args.url, workers=args.workers,
        sync_every=args.sync_every, workdir=args.workdir)
    print(f"done: {summary['hits']} already stored, "
          f"{summary['completed']} executed, {summary['failed']} failed")
    return 0


def cmd_manyflow(args: argparse.Namespace) -> int:
    from .core.manyflow import (ManyflowConfig, manyflow_requests,
                                manyflow_scenario)
    from .sweep import run_requests
    from .transport.cc import KERNEL_NAMES

    ccs = [cc.strip() for cc in args.cc.split(",") if cc.strip()]
    for cc in ccs:
        if cc not in KERNEL_NAMES:
            raise SystemExit(f"error: unknown CC kernel {cc!r} "
                             f"(choose from {', '.join(KERNEL_NAMES)})")
    configs = [ManyflowConfig(flows=args.flows,
                              arrival_rate=args.arrival_rate,
                              tcp_share=args.tcp_share, aqm=args.aqm,
                              duration=args.duration, cc=cc)
               for cc in ccs]
    scenario = manyflow_scenario(rate_mbps=args.rate,
                                 rtt=args.rtt_ms / 1000.0,
                                 loss_rate=args.loss / 100.0)
    seeds = tuple(range(args.seed, args.seed + args.runs))
    requests = [request for config in configs
                for request in manyflow_requests(config, scenario=scenario,
                                                 seeds=seeds)]
    cache = _cache(args)
    labels = ", ".join(config.label for config in configs)
    print(f"{labels}: {len(seeds)} run(s) x {args.flows} flows "
          f"over {scenario.name}")
    records = run_requests(requests, jobs=args.jobs, store=cache)
    for record in records:
        seed = record.request.seed
        cc_tag = (f"{record.request.manyflow.cc} " if len(ccs) > 1 else "")
        if not record.complete and record.failure is not None:
            print(f"  {cc_tag}seed {seed}: {record.failure}")
            continue
        m = record.metrics
        flag = " (cached)" if record.cached else ""
        print(f"  {cc_tag}seed {seed}: "
              f"{int(m['flows_completed'])}/{int(m['flows'])} flows, "
              f"jain={m['jain_index']:.3f} "
              f"quic_share={m['quic_share']:.3f} "
              f"plt_p50={m['plt_p50']:.3f}s "
              f"p99={m['plt_p99']:.3f}s{flag}")
    _print_session(cache)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.models import (
        fit_records,
        oracle_requests,
        render_model_fit_table,
    )

    if args.from_store is not None:
        from .core.aggregate import iter_records
        from .store import StoreNotFoundError

        try:
            found = _open_store(args.from_store, must_exist=True)
        except StoreNotFoundError as exc:
            print(f"{exc} — run `repro validate` without --from-store "
                  "(or a manyflow sweep with --cache) first")
            return 1
        with found as store:
            fit = fit_records(iter_records(store))
    else:
        from .sweep import run_requests

        requests = oracle_requests(seeds=tuple(range(args.runs)))
        cache = _cache(args)
        print(f"oracle grid: {len(requests)} steady-state manyflow run(s)",
              flush=True)
        records = run_requests(requests, jobs=args.jobs, store=cache)
        failures = [r for r in records if not r.complete and r.failure]
        for record in failures:
            request = record.request
            print(f"  {request.manyflow.label} seed {request.seed} on "
                  f"{request.scenario.name}: {record.failure}")
        fit = fit_records(records)
        _print_session(cache)
    cells = fit.cells()
    if not cells:
        print("no model-fit cells: the store holds no completed "
              "homogeneous manyflow runs with a rate_p50 metric")
        return 1
    print(render_model_fit_table(cells, args.tolerance))
    gated = [cell for cell in cells if cell.gated]
    divergent = [cell for cell in gated
                 if not cell.within(args.tolerance)]
    print()
    print(f"{len(gated) - len(divergent)}/{len(gated)} gated cell(s) "
          f"within tolerance ({len(cells) - len(gated)} informational)")
    if divergent:
        for cell in divergent:
            print(f"  DIVERGENT: {cell.cc}/{cell.proto} at "
                  f"loss={cell.loss_rate:.2%}: obs/model="
                  f"{cell.ratio:.2f}")
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .core.bench import profile_manyflow, profile_plt

    if args.profile_workload == "manyflow":
        profile_manyflow(top=args.profile)
    else:
        profile_plt(top=args.profile)
    return 0


def cmd_versions(args: argparse.Namespace) -> int:
    print("QUIC versions released during the study window:")
    for version in KNOWN_VERSIONS:
        cfg = quic_config(version)
        print(f"  QUIC {version:>2}: MACW={cfg.cc.max_cwnd_packets} packets, "
              f"N-emulation={cfg.cc.num_emulated_connections}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from .store import DEFAULT_STORE_PATH, STORE_ENV_VAR

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Taking a Long Look at QUIC'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Where a store flag points when given no location.
    where = f"${STORE_ENV_VAR} or {DEFAULT_STORE_PATH}"

    def jobs_arg(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent runs "
                            "(0 = all cores, default 1 = serial)")

    def cache_arg(p):
        p.add_argument("--cache", nargs="?", const="", default=None,
                       metavar="PATH",
                       help="serve already-computed runs from a results "
                            "store and persist new ones; PATH may be a "
                            "'repro serve' URL and defaults to " + where)

    def common_network(p):
        p.add_argument("--rate", type=float, default=10.0,
                       help="bottleneck rate, Mbps (default 10)")
        p.add_argument("--loss", type=float, default=0.0,
                       help="added loss, percent")
        p.add_argument("--delay-ms", type=float, default=0.0,
                       help="added round-trip delay, ms")
        p.add_argument("--jitter-ms", type=float, default=0.0,
                       help="netem jitter, ms (causes reordering)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compare", help="QUIC vs TCP on one workload")
    common_network(p)
    p.add_argument("--size-kb", type=int, default=200)
    p.add_argument("--objects", type=int, default=None,
                   help="object count (size-kb becomes per-object size)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--device", choices=sorted(DEVICE_PROFILES),
                   default="desktop")
    jobs_arg(p)
    cache_arg(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heatmap", help="a Fig. 6-style grid")
    p.add_argument("--rates", default="5,10,50,100",
                   help="comma-separated Mbps rows")
    p.add_argument("--sizes-kb", default="5,100,1000",
                   help="comma-separated object sizes (KB)")
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--delay-ms", type=float, default=0.0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--device", choices=sorted(DEVICE_PROFILES),
                   default="desktop")
    jobs_arg(p)
    cache_arg(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("fairness", help="Table 4: shared bottleneck")
    p.add_argument("--quic-flows", type=int, default=1)
    p.add_argument("--tcp-flows", type=int, default=1)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("bulk", help="instrumented bulk transfer")
    common_network(p)
    p.add_argument("--protocol", choices=("quic", "tcp"), default="quic")
    p.add_argument("--size-mb", type=float, default=10.0)
    p.add_argument("--nack-threshold", type=int, default=None,
                   help="override QUIC's reordering threshold (Fig. 10)")
    p.set_defaults(func=cmd_bulk)

    p = sub.add_parser("video", help="Table 6: streaming QoE")
    p.add_argument("--quality", choices=QUALITIES, default="hd720")
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--loss", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=3)
    p.set_defaults(func=cmd_video)

    p = sub.add_parser("statemachine", help="Fig. 3: infer the CC FSM")
    p.add_argument("--out", default=None, help="write Graphviz DOT here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_statemachine)

    p = sub.add_parser("spec", help="run a declarative experiment file")
    p.add_argument("--file", required=True, help="JSON ExperimentSpec")
    p.add_argument("--out", default=None, help="write result JSON here")
    p.add_argument("--seed", type=int, default=0)
    jobs_arg(p)
    cache_arg(p)
    p.set_defaults(func=cmd_spec)

    p = sub.add_parser("report", help="collate results into Markdown")
    p.add_argument("--results", default="benchmarks/results",
                   help="results directory for the file-based path")
    p.add_argument("--from-store", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="collate directly from a results store instead of "
                        "result files; PATH defaults to " + where)
    p.add_argument("--live", action="store_true",
                   help="with --from-store: render mid-sweep — label the "
                        "partial cells instead of presenting the grid as "
                        "final")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("store", help="inspect and maintain the results store")
    p.add_argument("--store", default=None, metavar="PATH",
                   help=f"store location (default: {where}); a 'repro "
                        "serve' URL, a store that exists, or a new path: "
                        ".sqlite/.db opens sqlite, anything else a sharded "
                        "JSONL directory")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    store_sub.add_parser("ls", help="list stored runs")
    sp = store_sub.add_parser("show", help="dump one stored run as JSON")
    sp.add_argument("key", help="run key (an unambiguous prefix suffices)")
    sp = store_sub.add_parser("export", help="write the store as JSONL")
    sp.add_argument("file")
    sp = store_sub.add_parser("import", help="merge a JSONL export")
    sp.add_argument("file")
    sp = store_sub.add_parser(
        "sync", help="merge another store (sqlite file, shard directory, "
                     "or JSONL export), skipping keys already present")
    sp.add_argument("source", help="path to the store or export to pull")
    sp = store_sub.add_parser("gc", help="drop old rows")
    sp.add_argument("--older-than", type=float, required=True, metavar="DAYS",
                    help="drop runs recorded more than DAYS days ago")
    sp.add_argument("--dry-run", action="store_true",
                    help="only report what would be dropped")
    sp = store_sub.add_parser("stats",
                              help="row counts and hit/miss counters")
    sp.add_argument("--fingerprint", default=None, metavar="FP",
                    help="also count rows keyed with FP (a release pinned "
                         "through RunCache(fingerprint=...)) as reusable")
    sp = store_sub.add_parser(
        "fsck", help="verify row checksums and re-derive run keys "
                     "(exit 1 when anything is wrong)")
    sp.add_argument("--repair", action="store_true",
                    help="quarantine corrupt rows to a sidecar file and "
                         "reconcile the counter ledger")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "serve", help="serve a results store to fabric workers over HTTP")
    p.add_argument("--store", default=None, metavar="PATH",
                   help=f"store to expose (default: {where})")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; use 0.0.0.0 to "
                        "accept workers from other hosts)")
    p.add_argument("--port", type=int, default=8737,
                   help="TCP port (default 8737; 0 picks a free one)")
    p.add_argument("--verbose", action="store_true",
                   help="log every request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker", help="execute a spec's missing runs against a fabric "
                       "server (repro serve)")
    p.add_argument("--file", required=True, help="JSON ExperimentSpec")
    p.add_argument("--url", required=True,
                   help="the fabric server, e.g. http://lab-server:8737")
    p.add_argument("--workers", type=int, default=2,
                   help="local worker processes to shard the misses "
                        "across (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sync-every", type=int, default=32,
                   help="results a worker batches before uploading "
                        "(default 32)")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep the workers' local write-ahead stores here "
                        "(default: a temporary directory)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "manyflow",
        help="thousand-flow fair-share sweep (Tab. 4 generalised)")
    p.add_argument("--flows", type=int, default=1000,
                   help="concurrent flows at the bottleneck (default 1000)")
    p.add_argument("--arrival-rate", type=float, default=50.0,
                   help="mean flow arrivals per second (Poisson)")
    p.add_argument("--tcp-share", type=float, default=0.5,
                   help="fraction of flows using TCP (rest QUIC)")
    p.add_argument("--aqm", choices=AQM_NAMES, default="droptail",
                   help="bottleneck queue discipline")
    p.add_argument("--cc", default="reno", metavar="KERNELS",
                   help="comma-separated CC kernel axis (reno, cubic, "
                        "bbr); each kernel becomes its own sweep cell "
                        "(default: reno)")
    p.add_argument("--duration", type=float, default=300.0,
                   help="simulated seconds (cap; runs end at completion)")
    p.add_argument("--rate", type=float, default=100.0,
                   help="bottleneck rate, Mbps (default 100)")
    p.add_argument("--rtt-ms", type=float, default=40.0,
                   help="base round-trip time, ms")
    p.add_argument("--loss", type=float, default=0.0,
                   help="random loss, percent")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed; --runs consecutive seeds execute")
    p.add_argument("--runs", type=int, default=1)
    jobs_arg(p)
    cache_arg(p)
    p.set_defaults(func=cmd_manyflow)

    p = sub.add_parser(
        "validate",
        help="check sweep cells against analytical CC models")
    p.add_argument("--from-store", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="fit existing store records instead of running "
                        "the oracle grid; PATH defaults to " + where)
    p.add_argument("--tolerance", type=float, default=0.6,
                   help="accepted observed/model band as a fraction "
                        "(default 0.6: within 1.6x either way)")
    p.add_argument("--runs", type=int, default=1,
                   help="seeds per oracle cell when running the grid "
                        "(default 1)")
    jobs_arg(p)
    cache_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="profile the simulation hot path")
    p.add_argument("--profile", type=int, default=25, metavar="N",
                   help="cProfile the workload: print a per-package "
                        "summary, the events-by-handler census "
                        "and the top N cumulative rows (default 25)")
    p.add_argument("--profile-workload", choices=("plt", "manyflow"),
                   default="plt",
                   help="what to profile: the canonical PLT pair or "
                        "a 300-flow manyflow engine, one cell per CC "
                        "kernel (default: plt)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("versions", help="Sec. 5.4: version configurations")
    p.set_defaults(func=cmd_versions)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # Fabric failures (server down, key-schema mismatch) already
        # carry an actionable message; print it instead of a traceback.
        from .fabric.client import FabricError

        if isinstance(exc, FabricError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
