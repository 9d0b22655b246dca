"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``adts``
    List the built-in ADTs.
``tables <adt>``
    Print the forward and right-backward commutativity tables for an
    ADT, derived mechanically from its serial specification.
``figures``
    Regenerate the paper's Figures 6-1 and 6-2 and report whether they
    match the published tables.
``counterexample <uip|du> [--adt NAME]``
    Construct and print a Theorem 9/10 counterexample history.
``synthesize <uip|du|suip> [--adt NAME]``
    Derive, by probing, the conflict pairs a recovery view requires for
    an ADT — the mechanical route to the Figure 6-1/6-2 tables.
``audit <history.json> --adt NAME [--object NAME=ADT ...]``
    Check a serialized history for atomicity and dynamic atomicity.
``compare <workload>``
    Run the concurrency comparison for one workload
    (hotspot/escrow/semiqueue/fifo/set/register) and print the table.
    ``--seed-base B`` offsets the seed range; the (configuration, seed)
    cells run on the parallel engine — inline at the default
    ``--workers 1``, over a process pool at ``--workers N``, with
    byte-identical output (failed cells are printed and exit 1).
``run <adt>``
    Run one workload on a durable (crash-capable) system and print run
    metrics, including the group-commit force accounting
    (``--group-commit N --hold T`` coalesces log forces into batches).
``torture``
    Run the crash-schedule torture suite: workloads under deterministic
    fault injection (crashes at every log interaction, torn forces,
    transient IO errors), auditing the recovery invariants after every
    restart.  ``--inject-bug skip-commit-force`` runs the negative
    control, which must be *detected* (exit 1).  Every schedule is a
    cell of the parallel engine: ``--workers N`` fans them over a
    process pool, and the report and the ``--trace-out`` file are
    byte-identical at every N (schedules lost to a worker death are
    retried once, then reported as failed cells and exit 1).
``drive``
    Drive the sharded runtime with open-loop traffic: Poisson or bursty
    arrivals at ``--arrival-rate`` transactions/tick, zipfian hot keys
    (``--zipf S``), objects hash-partitioned over ``--shards N``, and a
    ``--cross-shard`` fraction of two-shard 2PC transactions.  A
    ``--read-mix F`` fraction of arrivals are read-only transactions,
    by default on the lock-free multiversion snapshot path
    (``--ro-mode locked`` runs the same scripts through the ordinary
    locked path instead — the EXP-C16 baseline).  Prints commit-latency
    percentiles (p50/p95/p99 in ticks) and per-shard traffic.  One
    scheduler drives every shard: ``--shards`` changes what each shard
    owns, never what executes.
``trace-report <t.jsonl>``
    Validate and summarize a structured run trace written by
    ``repro run --trace-out`` / ``repro torture --trace-out`` (the same
    file at any ``--workers N``): schema check every line,
    reconcile the trace against the recorded ``RunMetrics`` counters,
    and print commit-latency and contention reports.  Exit 1 on any
    schema or reconciliation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .adts.registry import ADT_REGISTRY, DEFAULT_NAMES, make_adt


def cmd_adts(_args) -> int:
    for kind in sorted(ADT_REGISTRY):
        adt = make_adt(kind)
        labels = [c.label for c in adt.operation_classes()]
        print("%-10s %-5s %s" % (kind, adt.name, ", ".join(labels)))
    return 0


def cmd_tables(args) -> int:
    adt = _adt(args.adt, args.name)
    checker = adt.build_checker()
    classes = adt.operation_classes()
    fc = checker.forward_table(classes)
    bc = checker.backward_table(classes)
    render = (lambda t: t.render_markdown()) if args.markdown else (lambda t: t.render_ascii())
    print(render(fc))
    print()
    print(render(bc))
    nfc_only = sorted(fc.marks - bc.marks)
    nrbc_only = sorted(bc.marks - fc.marks)
    print()
    print("NFC-only conflicts :", nfc_only or "(none)")
    print("NRBC-only conflicts:", nrbc_only or "(none)")
    return 0


def cmd_figures(_args) -> int:
    from .experiments.figures import (
        expected_figure_6_1,
        expected_figure_6_2,
        figure_6_1,
        figure_6_2,
    )

    f1, f2 = figure_6_1(), figure_6_2()
    print(f1.render_ascii())
    print()
    print(f2.render_ascii())
    print()
    ok1 = f1.same_marks(expected_figure_6_1())
    ok2 = f2.same_marks(expected_figure_6_2())
    print("Figure 6-1 matches the paper:", ok1)
    print("Figure 6-2 matches the paper:", ok2)
    return 0 if (ok1 and ok2) else 1


def cmd_counterexample(args) -> int:
    from .analysis.alphabet import reachable_macro_contexts
    from .core import EmptyConflict, find_du_counterexample, find_uip_counterexample

    adt = _adt(args.adt, args.name)
    invocations = adt.invocation_alphabet()
    contexts = [
        mc.context
        for mc in reachable_macro_contexts(
            adt, invocations, max_depth=adt.analysis_context_depth or 4
        )
    ]
    alphabet = adt.ground_alphabet()
    finder = find_uip_counterexample if args.view == "uip" else find_du_counterexample
    for p in alphabet:
        for q in alphabet:
            ce = finder(
                adt, p, q, contexts, invocations, 3, conflict=EmptyConflict()
            )
            if ce is not None:
                print("missing conflict pair: (%s, %s)" % (p, q))
                print()
                print(ce.history)
                print()
                print("=>", ce.violation)
                return 0
    print("no counterexample found: the empty conflict relation is safe?!")
    return 1


def cmd_synthesize(args) -> int:
    """Derive the conflicts a recovery view requires, by probing."""
    from .analysis.alphabet import reachable_macro_contexts, reachable_operations
    from .analysis.view_synthesis import ViewSynthesizer
    from .core.views import DU, SUIP, UIP

    views = {"uip": UIP, "du": DU, "suip": SUIP}
    view = views.get(args.view)
    if view is None:
        raise SystemExit("unknown view %r (uip, du or suip)" % args.view)
    adt = _adt(args.adt, args.name)
    invocations = adt.invocation_alphabet()
    depth = args.depth or adt.analysis_context_depth or 3
    contexts = reachable_macro_contexts(adt, invocations, max_depth=depth)
    alphabet = reachable_operations(adt, invocations, max_depth=depth)
    synthesizer = ViewSynthesizer(
        adt, view, invocations, contexts, rho_depth=args.rho_depth
    )
    required = synthesizer.required_pairs(alphabet)
    print(
        "required conflicts for view %s on %s (%d ground operations):"
        % (view.name, adt.name, len(alphabet))
    )
    for (p, q), evidence in sorted(required.items(), key=lambda kv: str(kv[0])):
        print("  (%s, %s)  — order %s fails" % (p, q, "-".join(evidence.failing_order)))
    print("total: %d pairs" % len(required))
    return 0


def cmd_audit(args) -> int:
    from .core import serde
    from .core.atomicity import (
        find_dynamic_atomicity_violation,
        find_serialization_order,
        is_atomic,
    )

    history = serde.load(args.history)
    specs = {}
    for binding in args.object or []:
        obj_name, _, kind = binding.partition("=")
        if not kind:
            raise SystemExit("--object takes NAME=ADT bindings, got %r" % binding)
        specs[obj_name] = _adt(kind, obj_name)
    for obj_name in history.objects():
        if obj_name not in specs:
            if args.adt is None:
                raise SystemExit(
                    "no specification for object %r (use --adt or --object)"
                    % obj_name
                )
            specs[obj_name] = _adt(args.adt, obj_name)
    print("events       :", len(history))
    print("transactions :", ", ".join(sorted(history.transactions())))
    print("committed    :", ", ".join(sorted(history.committed())) or "(none)")
    print("aborted      :", ", ".join(sorted(history.aborted())) or "(none)")
    atomic = is_atomic(history, specs)
    if atomic:
        order = find_serialization_order(history.permanent(), specs)
        print("atomic       : yes (order %s)" % "-".join(order))
    else:
        print("atomic       : NO")
    violation = find_dynamic_atomicity_violation(history, specs)
    if violation is None:
        print("dynamic atomic: yes")
    else:
        print("dynamic atomic: NO — %s" % violation)
    return 0 if (atomic and violation is None) else 1


def cmd_compare(args) -> int:
    from .experiments.comparisons import (
        COMPARE_WORKLOADS,
        compare_parallel,
        comparison_case,
    )
    from .runtime import format_summary_table

    if args.workload not in COMPARE_WORKLOADS:
        raise SystemExit(
            "unknown workload %r (choose from: %s)"
            % (args.workload, ", ".join(sorted(COMPARE_WORKLOADS)))
        )
    _check_min(
        args,
        (("transactions", 1), ("ops", 1), ("seeds", 1), ("opening", 0),
         ("workers", 1), ("seed_base", 0)),
    )
    if not 0.0 <= args.read_mix <= 1.0:
        raise SystemExit("--read-mix must be in [0, 1] (got %g)" % args.read_mix)
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    knobs = dict(
        transactions=args.transactions,
        ops_per_txn=args.ops,
        opening=args.opening,
        read_mix=args.read_mix,
        ro_mode=args.ro_mode,
    )
    try:
        comparison_case(args.workload, **knobs)
    except ValueError as exc:
        # e.g. a queue workload with --read-mix: no observer invocations.
        raise SystemExit(str(exc))
    summaries, failed = compare_parallel(
        args.workload, seeds=seeds, workers=args.workers, **knobs
    )
    print(format_summary_table(summaries))
    if failed:
        print()
        print("FAILED CELLS (%d):" % len(failed))
        for result in failed:
            print("  cell %d: %s" % (result.index, result.error))
        return 1
    return 0


def _check_min(args, minimums) -> None:
    """Clean CLI errors for numeric knobs: each (attr, floor) pair must
    hold, else exit with the flag name spelled the way the user typed it."""
    for attr, floor in minimums:
        value = getattr(args, attr)
        if value < floor:
            raise SystemExit(
                "--%s must be >= %d (got %d)"
                % (attr.replace("_", "-"), floor, value)
            )


def _adt(kind: str, name=None):
    """An instance of a user-named kind: every command that builds one
    goes through here, so an unknown kind is the one-line exit and never
    ``make_adt``'s ``ValueError`` traceback."""
    try:
        return make_adt(kind, name)
    except ValueError as exc:
        raise SystemExit(str(exc))


#: The config fields whose flag is not the field's name with dashes.
FLAG_NAMES = {"adt_kind": "adt", "ops_per_txn": "ops", "zipf_s": "zipf", "bug": "inject-bug"}


def _refused(exc: ValueError, config_class) -> SystemExit:
    """The one-line exit for a ``ValueError`` of ``config_class`` (or of
    the site-crash rows), which validate every knob of ``run``,
    ``drive`` and ``torture``.  A message that begins with a field of
    the config, ``ops_per_txn must be >= 1``, begins with the flag that
    sets it instead: ``--ops must be >= 1``."""
    word, space, rest = str(exc).partition(" ")
    fields = {f.name for f in dataclasses.fields(config_class)}
    if word in fields or word == "site-crash":
        word = "--" + FLAG_NAMES.get(word, word).replace("_", "-")
    return SystemExit(word + space + rest)


def _site_crash_rows(specs):
    """``--site-crash`` rows as ``(site, fail_tick, recover_tick)``
    triples, for the config to validate.

    Accepts ``S@F`` (site S crashes at tick F and stays down) and
    ``S@F-R`` (recovers at tick R); ``S@F-end`` is the explicit
    spelling of "stays down", matching the torture schedule notation.
    """
    rows = []
    for spec in specs or ():
        text = spec[4:] if spec.startswith("site") else spec
        site_s, _, rest = text.partition("@")
        fail_s, _, rec_s = rest.partition("-")
        try:
            rows.append(
                (
                    int(site_s),
                    int(fail_s),
                    0 if rec_s in ("", "end") else int(rec_s),
                )
            )
        except ValueError:
            raise SystemExit(
                "--site-crash must look like S@F (site S down from tick F "
                "on) or S@F-R (recovering at tick R), got %r" % spec
            )
    return tuple(rows)


def _trace(args):
    """A collector when ``--trace-out`` asks for one, else None."""
    if not args.trace_out:
        return None
    from .runtime.trace import TraceCollector

    return TraceCollector()


def cmd_run(args) -> int:
    """Run one workload on a durable (crash-capable) system and report
    run metrics including the group-commit force accounting; with
    ``--sites``/``--site-crash`` the system is replicated, its sites
    fail and recover from the tick clock, and per-site rows follow."""
    from .runtime.durability import site_faults, validate_site_crashes
    from .runtime.torture import TortureConfig, workload_on

    _check_min(args, (("seed_base", 0),))
    rows = _site_crash_rows(args.site_crash)
    try:
        config = TortureConfig(
            args.adt,
            args.recovery.upper(),
            transactions=args.transactions,
            ops_per_txn=args.ops,
            group_commit=args.group_commit,
            hold=args.hold,
            sites=args.sites,
            # the budgets ``run`` has always run under
            max_restarts=25,
            max_ticks=100_000,
        )
        site_crashes = validate_site_crashes(rows, config.sites)
    except ValueError as exc:
        raise _refused(exc, TortureConfig)
    replicated = config.sites > 1 or bool(site_crashes)
    seed = args.seed_base + args.seed
    trace = _trace(args)
    system = config.build_system(replicated=replicated)
    scheduler = config.scheduler(
        system, workload_on(config, system, seed), seed=seed,
        faults=site_faults(site_crashes), trace=trace,
    )
    metrics = scheduler.run()
    print("workload          : %s" % config.label())
    print("group commit      : batch=%d hold=%d" % (args.group_commit, args.hold))
    print("committed         : %d (aborted %d, deadlocks %d)"
          % (metrics.committed, metrics.aborted, metrics.deadlocks))
    print("ticks             : %d (throughput %.4f)"
          % (metrics.ticks, metrics.throughput))
    print("forces            : %d physical (%d requests, %d records flushed)"
          % (metrics.forces, metrics.force_requests, metrics.forced_records))
    print("avg batch size    : %.2f" % metrics.avg_batch_size)
    print("forces/commit     : %.2f" % metrics.forces_per_commit)
    print("commit stall ticks: %d" % metrics.commit_stall_ticks)
    if replicated:
        for row in system.force_accounting_by_domain():
            site = row["site"]
            print(
                "  site %-2d         : %d forces (%d requests), %d failures, "
                "%d copies requalified"
                % (
                    site,
                    row["forces"],
                    row["force_requests"],
                    system.domain_failures[site],
                    system.requalifications[site],
                )
            )
    if trace is not None:
        count = trace.dump_jsonl(args.trace_out)
        print("trace             : %d events -> %s" % (count, args.trace_out))
    return 0


def cmd_drive(args) -> int:
    """Drive the sharded runtime with open-loop traffic and report
    commit-latency percentiles plus per-shard traffic."""
    from .runtime.openloop import OpenLoopConfig, drive

    _check_min(args, (("seed_base", 0),))
    rows = _site_crash_rows(args.site_crash)
    trace = _trace(args)
    try:
        config = OpenLoopConfig(
            adt_kind=args.adt,
            objects=args.objects,
            shards=args.shards,
            transactions=args.transactions,
            ops_per_txn=args.ops,
            arrival_rate=args.arrival_rate,
            process=args.process,
            burst_factor=args.burst_factor,
            burst_period=args.burst_period,
            zipf_s=args.zipf,
            cross_shard=args.cross_shard,
            read_mix=args.read_mix,
            ro_mode=args.ro_mode,
            recovery=args.recovery.upper(),
            group_commit=args.group_commit,
            hold=args.hold,
            sites=args.sites,
            site_crashes=rows,
        )
        # An observer-less ADT (fifo/semiqueue) with --read-mix is
        # refused when the drive draws its first script.
        report = drive(config, seed=args.seed_base + args.seed, trace=trace)
    except ValueError as exc:
        raise _refused(exc, OpenLoopConfig)
    print(report.format())
    if trace is not None:
        count = trace.dump_jsonl(args.trace_out)
        print("trace                : %d events -> %s" % (count, args.trace_out))
    return 0


#: ``repro torture`` knobs that shape log-fault schedules only, with
#: their defaults (a ``--sites`` campaign refuses any other value).
LOG_FAULT_KNOBS = {"max_faults": 2, "max_retries": 3}


def cmd_torture(args) -> int:
    from .runtime.faults import RetryPolicy
    from .runtime.torture import TortureConfig, configs_for, run_torture

    _check_min(
        args,
        (("workers", 1), ("seed_base", 0), ("schedules", 1), ("max_faults", 1),
         ("max_retries", 0)),
    )
    if args.sites > 1:
        # The site-crash campaign draws tick schedules, not log faults.
        for attr, default in LOG_FAULT_KNOBS.items():
            if getattr(args, attr) != default:
                raise SystemExit(
                    "--%s shapes log-fault schedules; the --sites "
                    "campaign crashes sites instead (leave it at its "
                    "default)" % attr.replace("_", "-")
                )
    if args.adt == "all":
        adt_kinds = sorted(ADT_REGISTRY)
    else:
        adt_kinds = [k.strip() for k in args.adt.split(",") if k.strip()]
    methods = {"both": ("DU", "UIP"), "du": ("DU",), "uip": ("UIP",)}[
        args.recovery
    ]
    try:
        configs = configs_for(
            adt_kinds,
            methods,
            transactions=args.transactions,
            ops_per_txn=args.ops,
            checkpoint_every=args.checkpoint_every,
            group_commit=args.group_commit,
            hold=args.hold,
            bug=args.inject_bug,
            read_mix=args.read_mix,
            sites=args.sites,
        )
    except ValueError as exc:
        raise _refused(exc, TortureConfig)
    seed = args.seed_base + args.seed
    trace = _trace(args)
    report = run_torture(
        configs,
        schedules=args.schedules,
        seed=seed,
        max_faults=args.max_faults,
        retry=RetryPolicy(max_retries=args.max_retries),
        trace=trace,
        workers=args.workers,
    )
    print(report.format())
    if trace is not None:
        count = trace.dump_jsonl(args.trace_out)
        print("trace: %d events -> %s" % (count, args.trace_out))
    return 0 if report.ok else 1


def cmd_trace_report(args) -> int:
    """Summarize a JSONL trace: validate every line, reconcile the
    reconstructed counters against the recorded RunMetrics, and print
    the latency/contention report.  Exit 1 on schema or reconciliation
    failure — the command doubles as the CI trace-smoke check."""
    from .runtime.trace import format_trace_report, load_jsonl, reconcile

    try:
        events = load_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit("invalid trace %s: %s" % (args.trace, exc))
    print(format_trace_report(events))
    results = reconcile(events)
    if any(not r.ok for r in results):
        return 1
    if args.strict and not results:
        print("no completed run segment to reconcile (--strict)")
        return 1
    return 0


# The knobs run/drive/torture/compare share: one adder per block, the
# per-command help text passed in (flag names and defaults are fixed).


def _add_seed_args(p, seed_base_help: str, *, seed: bool = True) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seed-base", type=int, default=0, metavar="B", help=seed_base_help
    )


def _add_group_commit_args(p, group_commit_help: str, hold_help: str) -> None:
    p.add_argument(
        "--group-commit", type=int, default=1, metavar="N", help=group_commit_help
    )
    p.add_argument("--hold", type=int, default=4, metavar="T", help=hold_help)


def _add_workers_arg(p, workers_help: str) -> None:
    p.add_argument("--workers", type=int, default=1, metavar="N", help=workers_help)


def _add_trace_out_arg(p, trace_out_help: str) -> None:
    p.add_argument("--trace-out", metavar="FILE", default=None, help=trace_out_help)


def _add_sites_args(p, sites_help: str, *, site_crash: bool = True) -> None:
    p.add_argument("--sites", type=int, default=1, metavar="N", help=sites_help)
    if site_crash:
        p.add_argument(
            "--site-crash",
            action="append",
            default=None,
            metavar="S@F[-R]",
            help="crash site S at tick F, recovering at tick R (omit R or "
            "use 'end' to keep it down); repeatable",
        )


def _add_read_mix_args(p, read_mix_help: str, ro_mode_help: str = None) -> None:
    p.add_argument(
        "--read-mix", type=float, default=0.0, metavar="F", help=read_mix_help
    )
    if ro_mode_help is not None:
        p.add_argument(
            "--ro-mode",
            choices=("snapshot", "locked"),
            default="snapshot",
            help=ro_mode_help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Commutativity-based concurrency control and recovery "
        "(Weihl 1989), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("adts", help="list built-in ADTs").set_defaults(func=cmd_adts)

    p = sub.add_parser("tables", help="print FC/RBC conflict tables for an ADT")
    p.add_argument("adt", help="ADT kind (see `repro adts`)")
    p.add_argument("--name", help="object name (defaults per ADT)")
    p.add_argument("--markdown", action="store_true", help="render Markdown")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("figures", help="regenerate Figures 6-1 and 6-2")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "counterexample", help="build a Theorem 9/10 counterexample history"
    )
    p.add_argument("view", choices=["uip", "du"])
    p.add_argument("--adt", default="bank")
    p.add_argument("--name", help="object name")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser(
        "synthesize", help="derive the conflicts a recovery view requires"
    )
    p.add_argument("view", help="uip | du | suip")
    p.add_argument("--adt", default="bank")
    p.add_argument("--name", help="object name")
    p.add_argument("--depth", type=int, help="context depth (default per ADT)")
    p.add_argument("--rho-depth", type=int, default=2)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("audit", help="audit a serialized history (JSON)")
    p.add_argument("history", help="path to history JSON")
    p.add_argument("--adt", help="ADT kind applied to every object")
    p.add_argument(
        "--object",
        action="append",
        metavar="NAME=ADT",
        help="per-object ADT binding (repeatable)",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("compare", help="run a concurrency comparison")
    p.add_argument("workload", help="hotspot|escrow|semiqueue|fifo|set|register")
    p.add_argument("--seeds", type=int, default=8)
    _add_seed_args(
        p, "first seed of the sweep (seeds run B..B+seeds-1)", seed=False
    )
    p.add_argument("--transactions", type=int, default=8)
    p.add_argument("--ops", type=int, default=3)
    p.add_argument("--opening", type=int, default=100)
    _add_read_mix_args(
        p,
        "fraction of transactions added as read-only reader scripts "
        "(0 disables; observer-less workloads like fifo/semiqueue reject it)",
        "run readers on the lock-free snapshot path or as identically"
        "-drawn locked transactions (baseline)",
    )
    _add_workers_arg(
        p,
        "fan the (configuration, seed) cells over N worker processes "
        "(1 = serial; output is byte-identical either way)",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "run", help="run one workload on a durable system and print metrics"
    )
    p.add_argument("adt", help="ADT kind (see `repro adts`)")
    p.add_argument(
        "--recovery", choices=["du", "uip"], default="du", help="recovery method"
    )
    _add_seed_args(
        p, "offset added to --seed (shared with compare/torture sweeps)"
    )
    p.add_argument("--transactions", type=int, default=8)
    p.add_argument("--ops", type=int, default=3)
    _add_group_commit_args(
        p,
        "coalesce N log-force requests into one physical flush "
        "(1 = classic per-commit force)",
        "flush a short batch after T scheduler ticks anyway",
    )
    _add_trace_out_arg(
        p, "write the structured run trace as JSONL (see `repro trace-report`)"
    )
    _add_sites_args(
        p, "replicate every object over N sites (available-copies)"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "drive",
        help="drive the sharded runtime with open-loop traffic and "
        "report latency percentiles",
    )
    p.add_argument(
        "--adt", default="counter", help="ADT kind (see `repro adts`)"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="hash-partition the objects over N shards",
    )
    p.add_argument(
        "--objects",
        type=int,
        default=16,
        metavar="K",
        help="key-space size (one ADT object per key)",
    )
    p.add_argument(
        "--arrival-rate",
        type=float,
        default=2.0,
        metavar="R",
        help="mean transaction arrivals per scheduler tick",
    )
    p.add_argument(
        "--process",
        choices=["poisson", "bursty"],
        default="poisson",
        help="arrival process (bursty compresses the same mean rate "
        "into on/off windows)",
    )
    p.add_argument(
        "--burst-factor",
        type=float,
        default=4.0,
        metavar="F",
        help="bursty: peak rate multiple (duty cycle 1/F)",
    )
    p.add_argument(
        "--burst-period",
        type=int,
        default=64,
        metavar="P",
        help="bursty: on/off cycle length in ticks",
    )
    p.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="zipfian hot-key exponent (0 = uniform)",
    )
    p.add_argument(
        "--cross-shard",
        type=float,
        default=0.0,
        metavar="F",
        help="fraction of transactions touching a second object in "
        "another shard (2PC across shards)",
    )
    _add_read_mix_args(
        p,
        "fraction of arrivals that are read-only transactions "
        "(observer invocations only; 0 = pure update traffic)",
        "how read-only arrivals execute: lock-free multiversion "
        "snapshot reads (default) or the ordinary locked path (the "
        "EXP-C16 baseline; identical scripts either way)",
    )
    p.add_argument(
        "--recovery", choices=["du", "uip"], default="du", help="recovery method"
    )
    p.add_argument("--transactions", type=int, default=128)
    p.add_argument("--ops", type=int, default=3)
    _add_group_commit_args(
        p,
        "coalesce N log-force requests into one physical flush",
        "flush a short group-commit batch after T ticks anyway",
    )
    _add_seed_args(p, "offset added to --seed (shared with run/compare sweeps)")
    _add_trace_out_arg(p, "write the structured drive trace as JSONL")
    _add_sites_args(
        p,
        "replicate every object over N sites (available-copies; "
        "one lockstep scheduler, so --shards 1)",
    )
    p.set_defaults(func=cmd_drive)

    p = sub.add_parser(
        "torture", help="run the crash-schedule torture suite"
    )
    p.add_argument(
        "--adt",
        default="all",
        help="comma-separated ADT kinds, or 'all' (default)",
    )
    p.add_argument(
        "--recovery",
        choices=["both", "du", "uip"],
        default="both",
        help="recovery methods to torture (default: both)",
    )
    _add_seed_args(p, "offset added to --seed (shared with run/compare sweeps)")
    p.add_argument(
        "--schedules",
        type=int,
        default=500,
        help="total fault schedules, round-robin over the config matrix",
    )
    p.add_argument("--transactions", type=int, default=4)
    p.add_argument("--ops", type=int, default=2)
    _add_read_mix_args(
        p,
        "add snapshot reader scripts per schedule (fraction of "
        "--transactions; observer-less ADTs are skipped silently)",
    )
    p.add_argument(
        "--max-faults",
        type=int,
        default=LOG_FAULT_KNOBS["max_faults"],
        help="faults per sampled schedule",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=LOG_FAULT_KNOBS["max_retries"],
        help="transient IO-error retry budget before escalating to a crash",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="TICKS",
        help="attempt quiescent checkpoints every TICKS scheduler ticks",
    )
    _add_group_commit_args(
        p,
        "coalesce N log-force requests into one physical flush "
        "(1 = classic per-commit force)",
        "flush a short group-commit batch after T scheduler ticks anyway",
    )
    p.add_argument(
        "--inject-bug",
        choices=["skip-commit-force", "skip-catchup"],
        default=None,
        help="negative control: plant a recovery bug the audit must flag "
        "(skip-commit-force for log-fault schedules, skip-catchup for "
        "--sites site-crash campaigns)",
    )
    _add_sites_args(
        p,
        "run the site-crash campaign instead: replicate the object "
        "over N sites and torture it with tick-driven site failures "
        "and recoveries (N >= 2)",
        site_crash=False,
    )
    _add_trace_out_arg(
        p, "write the structured trace of every schedule as JSONL"
    )
    _add_workers_arg(
        p,
        "fan the schedules over N worker processes (1 = serial; "
        "the report and the trace are byte-identical either way)",
    )
    p.set_defaults(func=cmd_torture)

    p = sub.add_parser(
        "trace-report",
        help="validate and summarize a JSONL trace written by --trace-out",
    )
    p.add_argument("trace", help="path to the JSONL trace file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="also fail when the trace contains no completed run segment",
    )
    p.set_defaults(func=cmd_trace_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
