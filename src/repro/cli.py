"""Command-line interface: ``python -m repro …``.

Every verb is one row of :data:`VERBS` — its name, help, flags and
runner — and the parser, the dispatch and ``--help`` all read that
table.  A flag that sets a config field names the field: its type,
choices and range come from the field's declaration
(:func:`repro.core.config.knob`) and are checked while the command line
is parsed, so a bad value is a usage error (exit 2) before anything
runs.  Everything except ``mesh`` runs against the simulated world; the
CLI exists so the reproduction can be driven without writing Python.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import typing
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.config import SheriffConfig, _check
from repro.core.errors import InvalidConfig
from repro.experiments import EXPERIMENTS, registry
from repro.mesh.launch import WorkerSpec
from repro.workloads.deployment import DeploymentConfig
from repro.workloads.journey import JourneyConfig

#: one flag: ``add_argument``'s positional names and keywords
Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def _checked(hint: Any, bounds: Dict[str, Any]) -> Callable[[str], Any]:
    """argparse ``type=`` for a value of annotation ``hint`` within
    ``bounds``: the test :meth:`Config.validate` applies to a field.  A
    choice that may be None reads ``none`` as None (``--chaos none`` is
    the clean network)."""
    base = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    none_is_a_choice = base is not hint and "choices" in bounds

    def parse(text: str) -> Any:
        value = None if none_is_a_choice and text == "none" else base(text)
        try:
            return _check("", value, hint, bounds)
        except InvalidConfig as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    parse.__name__ = base.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _flag(*names: str, **kwargs: Any) -> Flag:
    """A flag that sets no config field: argparse keywords as written."""
    return names, kwargs


def _field(name: str, config: type, field: str, **kwargs: Any) -> Flag:
    """A flag that sets ``config.<field>``.  Type, choices and range come
    from the field's declaration; left off the command line it sets
    nothing, so the verb default or a ``--config`` file holds."""
    hint, bounds = {n: (h, b) for n, h, b in config._knobs()}[field]
    if hint is bool:
        kwargs["action"] = "store_true"
    else:
        kwargs["type"] = _checked(hint, bounds)
        if "choices" in bounds:
            kwargs.setdefault(
                "metavar", "{" + ",".join(map(str, bounds["choices"])) + "}"
            )
    return (name,), dict(dest=field, default=argparse.SUPPRESS, **kwargs)


def _typed(args: argparse.Namespace, config):
    """``config`` with every field a flag on the command line set."""
    return dataclasses.replace(config, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config)
        if hasattr(args, f.name)
    })


def _demo_world(args: argparse.Namespace):
    from repro.core.sheriff import PriceSheriff, SheriffWorld
    from repro.web.catalog import make_catalog
    from repro.web.pricing import CountryMultiplierPricing
    from repro.web.store import EStore

    world = SheriffWorld.create(seed=7)
    store = EStore(
        domain="demo-store.example", country_code="US",
        catalog=make_catalog("demo-store.example", size=5,
                             rng=random.Random(1)),
        pricing=CountryMultiplierPricing({"CA": 1.3, "JP": 1.15}),
        geodb=world.geodb, rates=world.rates, currency_strategy="geo",
    )
    world.internet.register(store)
    sheriff = PriceSheriff(
        world, _typed(args, SheriffConfig(n_measurement_servers=1))
    )
    return world, sheriff, store


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.addon import PriceCheckFailed
    from repro.core.admin import AdminConsole

    world, sheriff, store = _demo_world(args)
    addon = sheriff.install_addon(world.make_browser(args.country))
    for _ in range(2):  # a couple of same-country peers
        sheriff.install_addon(world.make_browser(args.country))
    try:
        result = addon.check_price(
            store.product_url(store.catalog.products[0].product_id),
            requested_currency=args.currency,
        )
    except PriceCheckFailed as exc:
        print(f"price check failed under chaos: {exc}")
        return 1
    print(result.render_result_page())
    if sheriff.faults is not None:
        print()
        print(AdminConsole(sheriff).faults_panel())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    sections = []
    for name in names:
        rendered = EXPERIMENTS[name](args.scale).render()
        if len(names) > 1:
            print(f"\n=== {name} ===")
        print(rendered)
        sections.append((name, rendered))
    if args.out:
        from repro.analysis.report_writer import write_markdown_report

        path = write_markdown_report(sections, args.out, scale=args.scale)
        print(f"\nreport written to {path}")
    return 0


def _cmd_geoblock(args: argparse.Namespace) -> int:
    from repro.core.sheriff import PriceSheriff, SheriffWorld
    from repro.extensions.geoblock import GeoblockScanner
    from repro.web.catalog import make_catalog
    from repro.web.pricing import UniformPricing
    from repro.web.store import EStore

    world = SheriffWorld.create(seed=9)
    store = EStore(
        domain="regional.example", country_code="US",
        catalog=make_catalog("regional.example", size=3,
                             rng=random.Random(2)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        blocked_countries=("DE", "FR"),
    )
    world.internet.register(store)
    sheriff = PriceSheriff(world, n_measurement_servers=1)
    scanner = GeoblockScanner(sheriff)
    report = scanner.scan(
        store.product_url(store.catalog.products[0].product_id)
    )
    print(report.render())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.core.watchdog import Watchdog
    from repro.web.pricing import CountryMultiplierPricing, PricingPolicy

    class TurnsBadOnDay8(PricingPolicy):
        def adjustments(self, product, ctx):
            if ctx.day >= 8:
                return CountryMultiplierPricing(
                    {"JP": 1.3}
                ).adjustments(product, ctx)
            return []

    world, sheriff, store = _demo_world(args)
    store.pricing = TurnsBadOnDay8()
    monitor = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    watchdog = Watchdog(monitor, world.geodb)
    url = store.product_url(store.catalog.products[0].product_id)
    watchdog.add_watch(url)
    print(f"watching {url} for {args.days} days")
    for day in range(args.days):
        for alert in watchdog.run_cycle():
            print(f"day {day:2d}  ALERT  {alert.describe()}")
        world.clock.advance_days(1)
    print("done;", len(watchdog.history(url)), "observations recorded")
    return 0


def _deployment_config(
    args: argparse.Namespace, **verb_defaults: Any
) -> Optional[DeploymentConfig]:
    """The DeploymentConfig a verb runs: typed flag > ``--config`` file >
    verb default (over ``DeploymentConfig.test_scale()``).  None, after
    the reason is printed, when the file cannot be read or is invalid."""
    path = getattr(args, "config", None)
    if path is None:
        return _typed(args, dataclasses.replace(
            DeploymentConfig.test_scale(), **verb_defaults
        ))
    try:
        with open(path) as fh:
            config = DeploymentConfig.from_dict(json.load(fh))
    except OSError as exc:
        print(f"FAIL: cannot read config {path}: {exc}")
        return None
    except json.JSONDecodeError as exc:
        print(f"FAIL: config {path} is not valid JSON: {exc}")
        return None
    except InvalidConfig as exc:
        print(f"FAIL: invalid config {path}: {exc}")
        return None
    return _typed(args, config)


def _print_outcome(dataset) -> None:
    print(f"attempted          {dataset.n_attempted}")
    print(f"result pages       {len(dataset.results)}")
    print(f"explicit failures  {dataset.n_explicit_failures}")
    print(f"resolution rate    {dataset.resolution_rate:.1%}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.admin import AdminConsole
    from repro.workloads.deployment import LiveDeployment

    config = _deployment_config(
        args, n_users=30, n_requests=60, chaos_profile="lossy",
    )
    print(f"chaos drill: profile={config.chaos_profile or 'none'!r} "
          f"seed={config.chaos_seed} requests={config.n_requests} "
          f"users={config.n_users} quorum={config.quorum}")
    dataset = LiveDeployment(config).run()
    _print_outcome(dataset)
    console = AdminConsole(dataset.sheriff)
    print()
    print(console.faults_panel())
    print()
    print(console.servers_panel())
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    from repro.core.monitoring import ops_panel
    from repro.workloads.deployment import LiveDeployment

    config = _deployment_config(
        args, n_users=30, n_requests=60, chaos_profile="chaos_monkey",
    )
    if config is None:
        return 1
    config.supervised = True  # what the verb is, whatever the file says
    print(f"supervised run: chaos={config.chaos_profile or 'none'!r} "
          f"seed={config.chaos_seed} requests={config.n_requests} "
          f"users={config.n_users}")
    dataset = LiveDeployment(config).run()
    supervisor = dataset.supervisor
    heal = dataset.heal_report

    _print_outcome(dataset)
    print()
    print(ops_panel(supervisor))
    print()
    print("audit trail:")
    for kind, count in sorted(supervisor.audit.counts().items()):
        print(f"  {kind:<26} {count}")
    if config.audit_path:
        print(f"audit trail persisted to {config.audit_path}")

    pending = dataset.sheriff.coordinator.pending_jobs()
    converged = heal is not None and heal.converged
    print()
    if heal is not None:
        print(f"healing: converged={heal.converged} "
              f"elapsed={heal.elapsed:.0f}s ticks={heal.ticks}")
    if not converged:
        unhealthy = ", ".join(supervisor.unhealthy_components()) or "?"
        print(f"FAIL: deployment did not converge (unhealthy: {unhealthy})")
        return 1
    if pending:
        print(f"FAIL: {pending} job(s) permanently stuck at the Coordinator")
        return 1
    print("OK: deployment healed, no jobs lost")
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    from repro.mesh import MeshLauncher

    print(f"mesh: launching {args.servers} worker process(es)")
    launcher = MeshLauncher(
        n_workers=args.servers,
        spec=_typed(args, WorkerSpec(
            n_stores=2, ipc_sites=DEFAULT_IPC_SITES[: args.ipcs], n_users=4,
        )),
    )
    try:
        hellos = launcher.start()
        for hello in hellos:
            print(f"  ready: {hello['name']} pid={hello['pid']} "
                  f"protocol={hello['protocol']}")
        launcher.heartbeat()
        report = launcher.run_checks(
            total=args.checks, concurrency=args.concurrency
        )
    finally:
        exit_codes = launcher.shutdown()
    entry = report.to_dict()
    entry["exit_codes"] = exit_codes
    print(f"checks: {entry['checks_completed']}/{entry['checks_requested']} "
          f"({entry['rows']} rows) in {entry['wall_s']:.2f}s wall "
          f"-> {entry['checks_per_sec_wall']:.2f} checks/s")
    for stats in entry["per_worker"]:
        print(f"  {stats.get('worker', '?')}: "
              f"checks={stats.get('checks', '?')} "
              f"rows={stats.get('rows', '?')}")
    print(f"exit codes: {exit_codes}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
        print(f"mesh report written to {args.out}")
    failed = (
        entry["checks_completed"] < entry["checks_requested"]
        or any(code != 0 for code in exit_codes.values())
    )
    if failed:
        print("FAIL: lost checks or a worker exited non-zero")
        return 1
    print("OK: fleet served every check and drained cleanly")
    return 0


def _journey_record(run, job_id: str):
    """The JSON-ready journey export for one job."""
    journey = run.sheriff.journey(job_id)
    return {
        "job_id": job_id,
        "stolen": job_id in run.stolen_job_ids,
        "spans": [span.to_dict() for span in journey["spans"]],
        "ticket": journey["ticket"],
    }


def _cmd_journey(args: argparse.Namespace) -> int:
    from repro.obs import render_trace
    from repro.workloads.journey import run_journey

    run = run_journey(_typed(args, JourneyConfig()))
    if args.list:
        for job_id in run.job_ids:
            marker = "  [stolen]" if job_id in run.stolen_job_ids else ""
            print(f"{job_id}{marker}")
        return 0
    job_id = args.job
    if job_id is None:
        if not run.stolen_job_ids:
            print("no job was stolen in this drill — pass a job id")
            return 1
        job_id = run.stolen_job_ids[0]
    if job_id not in run.job_ids:
        print(f"unknown job {job_id!r} (repro journey --list shows the "
              f"drill's jobs)")
        return 1

    journey = run.sheriff.journey(job_id)
    stolen = " [stolen]" if job_id in run.stolen_job_ids else ""
    print(f"journey of {job_id}{stolen} "
          f"(steals this run: {sum(run.steals.values())})")
    print()
    print(render_trace(journey["spans"], show_critical_path=True))
    print()
    ticket = journey["ticket"]
    if ticket is not None:
        state = (
            "completed" if ticket["completed"]
            else f"failed ({ticket['failure_reason']})" if ticket["failed"]
            else "in flight"
        )
        print(f"ticket: server={ticket['server_name']} "
              f"attempts={ticket['attempts']} {state}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(_journey_record(run, job_id), fh, indent=2)
            fh.write("\n")
        print(f"journey record written to {args.out}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.workloads.journey import run_slo_drill

    config = _typed(args, JourneyConfig())
    run, report, alerts = run_slo_drill(
        config, max_burn_rate=args.max_burn_rate,
    )
    print(f"SLO drill: seed={config.seed} "
          f"latency_fault={config.latency_fault} "
          f"max_burn_rate={args.max_burn_rate:g}x")
    print()
    print(f"{'objective':>16} {'kind':>13} {'target':>7} {'compliance':>11} "
          f"{'budget burn':>12} {'verdict':>8}")
    for status in report["slos"]:
        verdict = "ok" if status["met"] else "VIOLATED"
        print(
            f"{status['name']:>16} {status['kind']:>13} "
            f"{status['objective']:>6.0%} {status['compliance']:>10.1%} "
            f"{status['budget_consumed']:>11.2f}x {verdict:>8}"
        )
    print()
    if alerts:
        print("burn-rate pages:")
        for event in alerts:
            print(f"  t={event.time:10.1f}  {event.component}  "
                  f"({event.detail})")
    else:
        print("burn-rate pages: none")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    **report,
                    "alerts": [
                        {
                            "time": event.time,
                            "component": event.component,
                            "detail": event.detail,
                            "values": event.values,
                        }
                        for event in alerts
                    ],
                },
                fh, indent=2,
            )
            fh.write("\n")
        print(f"SLO report written to {args.out}")
    if args.require_met and (not report["all_met"] or alerts):
        print("FAIL: an objective is unmet or a burn-rate alert fired")
        return 1
    return 0


def _telemetry_drill(args: argparse.Namespace):
    """A small telemetry-on deployment for metrics/trace/panel."""
    from repro.workloads.deployment import LiveDeployment

    config = _deployment_config(
        args, n_users=12, n_requests=24, chaos_profile="lossy",
    )
    config.telemetry = True
    # a short cache TTL so the cache hit/miss series carry data
    config.page_cache_ttl = 60.0
    return LiveDeployment(config).run()


def _cmd_metrics(args: argparse.Namespace) -> int:
    dataset = _telemetry_drill(args)
    exposition = dataset.sheriff.telemetry.registry.render_exposition()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(exposition)
        print(f"metrics exposition written to {args.out}")
    else:
        print(exposition, end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace

    tracer = _telemetry_drill(args).sheriff.telemetry.tracer
    trace_ids = tracer.trace_ids()
    if not trace_ids:
        print("no price check completed — nothing to trace")
        return 1
    try:
        trace_id = trace_ids[args.job]
    except IndexError:
        print(f"no traced job {args.job} (have {len(trace_ids)})")
        return 1
    print(render_trace(tracer.spans_for(trace_id)))
    if args.out:
        with open(args.out, "w") as fh:
            n = tracer.export_jsonl(fh)
        print(f"\n{n} spans exported to {args.out}")
    return 0


def _cmd_panel(args: argparse.Namespace) -> int:
    from repro.core.admin import AdminConsole

    console = AdminConsole(_telemetry_drill(args).sheriff)
    print("\n\n".join((
        console.pipeline_panel(),
        console.servers_panel(),
        console.peers_panel(),
        console.faults_panel(),
    )))
    return 0


def _deployment_flags(chaos_flag: str = "--chaos") -> Tuple[Flag, ...]:
    """The flags every verb that runs a LiveDeployment shares."""
    return (
        _field(chaos_flag, DeploymentConfig, "chaos_profile",
               help="named fault-injection profile ('none' = clean network)"),
        _field("--seed", DeploymentConfig, "chaos_seed",
               help="seed of the fault plan's RNG"),
        _field("--requests", DeploymentConfig, "n_requests",
               help="price checks to attempt"),
        _field("--users", DeploymentConfig, "n_users",
               help="size of the simulated population"),
    )


_DRILL_FLAGS: Tuple[Flag, ...] = (
    _field("--seed", JourneyConfig, "seed", help="seed of the drill's world"),
    _field("--latency-fault", JourneyConfig, "latency_fault",
           help="run the drill under the injected latency fault (slow "
                "vantage points) the burn-rate probe pages on"),
)


class Verb(NamedTuple):
    """One ``repro`` verb."""

    name: str
    help: str
    flags: Tuple[Flag, ...]
    run: Callable[[argparse.Namespace], int]


VERBS: Tuple[Verb, ...] = (
    Verb("demo", "run a demo price check", (
        _flag("--country", default="ES", help="initiator country (ISO code)"),
        _flag("--currency", default="EUR",
              help="currency the result page converts into"),
        _field("--chaos", SheriffConfig, "chaos_profile",
               help="run the check under a named chaos profile"),
        _field("--chaos-seed", SheriffConfig, "chaos_seed"),
    ), _cmd_demo),
    Verb("reproduce", "regenerate a table/figure (or all)", (
        _flag("experiment", choices=(*EXPERIMENTS, "all")),
        _flag("--scale", default="test", choices=tuple(registry.SCALES)),
        _flag("--out", default=None,
              help="also write a markdown report to this path"),
    ), _cmd_reproduce),
    Verb("geoblock", "demo geoblocking scan", (), _cmd_geoblock),
    Verb("watch", "demo watchdog monitoring run", (
        _flag("--days", type=int, default=12,
              help="how many daily cycles to simulate"),
    ), _cmd_watch),
    Verb("chaos", "deployment run under fault injection", (
        *_deployment_flags("--profile"),
        _field("--quorum", DeploymentConfig, "quorum",
               help="minimum vantage points per accepted result"),
    ), _cmd_chaos),
    Verb("supervise",
         "supervised chaos run: heal, audit, and report the verdict", (
        *_deployment_flags(),
        _field("--audit-out", DeploymentConfig, "audit_path", metavar="JSONL",
               help="persist the ops audit trail to this file"),
        _flag("--config", default=None, metavar="JSON",
              help="load the DeploymentConfig from this JSON file (flags "
                   "typed on the command line override it)"),
    ), _cmd_supervise),
    Verb("mesh",
         "launch a real-process deployment: worker processes behind the "
         "socket transport", (
        _flag("--servers", type=_checked(int, {"ge": 1}), default=2,
              metavar="N", help="worker processes to launch"),
        _flag("--checks", type=_checked(int, {"ge": 0}), default=8,
              help="price checks to farm across the fleet"),
        _flag("--concurrency", type=_checked(int, {"ge": 1}), default=None,
              help="concurrent in-flight calls (default: 4/worker)"),
        _field("--seed", WorkerSpec, "seed"),
        _field("--stores", WorkerSpec, "n_stores",
               help="stores per worker's world"),
        _flag("--ipcs", type=_checked(int, {"ge": 0, "le": len(DEFAULT_IPC_SITES)}),
              default=6,
              help=f"IPC fleet size per worker (max {len(DEFAULT_IPC_SITES)})"),
        _field("--users", WorkerSpec, "n_users",
               help="browser addons per worker"),
        _flag("--out", default=None, metavar="JSON",
              help="also write the mesh report as JSON"),
    ), _cmd_mesh),
    Verb("metrics",
         "run a telemetry-on deployment, emit Prometheus exposition", (
        *_deployment_flags(),
        _flag("--out", default=None,
              help="write the exposition here instead of stdout"),
    ), _cmd_metrics),
    Verb("trace", "render one price check's span timeline", (
        *_deployment_flags(),
        _flag("--job", type=int, default=-1, metavar="N",
              help="which traced job to render (index into the run's trace "
                   "list; default: the last one)"),
        _flag("--out", default=None, metavar="JSONL",
              help="also export every span as JSON lines"),
    ), _cmd_trace),
    Verb("journey",
         "reconstruct one job's end-to-end causal tree from the seeded "
         "forced-steal drill", (
        _flag("job", nargs="?", default=None,
              help="job id to reconstruct (default: the first stolen job "
                   "of the drill)"),
        _flag("--list", action="store_true",
              help="list the drill's job ids (stolen ones marked) and exit"),
        *_DRILL_FLAGS,
        _flag("--out", default=None, metavar="JSON",
              help="also export the journey record (spans, ticket) as JSON"),
    ), _cmd_journey),
    Verb("slo",
         "run the drill under armed SLO burn-rate probes and report "
         "objective compliance", (
        *_DRILL_FLAGS,
        _flag("--max-burn-rate", type=float, default=1.0, metavar="X",
              help="alerting multiple of the error-budget burn"),
        _flag("--out", default=None, metavar="JSON",
              help="write the SLO report as JSON"),
        _flag("--require-met", action="store_true",
              help="exit 1 unless every objective is met and no burn-rate "
                   "alert fired"),
    ), _cmd_slo),
    Verb("panel", "live operator panels from a metrics snapshot",
         _deployment_flags(), _cmd_panel),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Price $heriff — SIGCOMM'17 reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb_parser = sub.add_parser(verb.name, help=verb.help)
        for names, kwargs in verb.flags:
            verb_parser.add_argument(*names, **kwargs)
        verb_parser.set_defaults(run=verb.run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
