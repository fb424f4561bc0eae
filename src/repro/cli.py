"""Command-line interface: ``python -m repro …``.

Gives the library a tool-shaped front door:

* ``demo``        — the quickstart price check on a small world;
* ``reproduce``   — regenerate one (or all) tables/figures;
* ``perf``        — print Table 1 from the performance model;
* ``geoblock``    — scan a demo URL for geoblocking;
* ``panels``      — render the Fig. 7 / Fig. 16 monitoring panels;
* ``chaos``       — run a deployment under a named fault-injection
  profile and report resolution/recovery counters (add
  ``--supervised`` to run it under the self-healing layer);
* ``supervise``   — run a supervised deployment under chaos and report
  the healing verdict: the ops panel, the heal report, and the audit
  trail; exits non-zero if the deployment did not converge;
* ``mesh``        — launch a real-process deployment: N measurement
  worker processes behind the socket transport, handshake + heartbeat
  + a farmed workload + graceful drain;
* ``metrics``     — run a telemetry-on deployment and emit its
  Prometheus-style metrics exposition;
* ``trace``       — same run, render one price check's span timeline
  on the simulated clock (and optionally export span JSONL);
* ``journey``     — run the seeded forced-steal drill and reconstruct
  one job's end-to-end causal tree (admission → queue → steal → fetch
  → persist) with critical-path analysis and its flight-recorder log;
* ``slo``         — same drill under armed SLO burn-rate probes;
  reports objective compliance and any pages (add ``--latency-fault``
  to watch the latency budget burn);
* ``panel``       — the live operator view: pipeline health plus the
  Fig. 7 / Fig. 16 panels, all from a metrics snapshot.

Everything except ``mesh`` runs against the simulated world; the CLI
exists so the reproduction can be driven without writing Python.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import Optional, Sequence

EXPERIMENT_CHOICES = (
    "table1", "table2", "table3", "table4", "table5",
    "fig2", "fig5", "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14-15", "sec75", "sec76", "all",
)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Price $heriff — SIGCOMM'17 reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a demo price check")
    demo.add_argument("--country", default="ES",
                      help="initiator country (ISO code)")
    demo.add_argument("--currency", default="EUR",
                      help="currency the result page converts into")
    demo.add_argument("--chaos", default=None, metavar="PROFILE",
                      help="run the check under a named chaos profile")
    demo.add_argument("--chaos-seed", type=int, default=0)

    reproduce = sub.add_parser("reproduce",
                               help="regenerate a table/figure (or all)")
    reproduce.add_argument("experiment", choices=EXPERIMENT_CHOICES)
    reproduce.add_argument("--scale", default="test",
                           choices=("test", "default", "paper"))
    reproduce.add_argument("--out", default=None,
                           help="also write a markdown report to this path")

    sub.add_parser("perf", help="print Table 1 from the queueing model")

    sub.add_parser("geoblock", help="demo geoblocking scan")

    sub.add_parser("panels", help="render the admin monitoring panels")

    watch = sub.add_parser("watch", help="demo watchdog monitoring run")
    watch.add_argument("--days", type=int, default=12,
                       help="how many daily cycles to simulate")

    from repro.net.faults import CHAOS_PROFILES

    def add_deployment_args(p, chaos_flag="--chaos", **chaos_kwargs):
        """The flags every verb that runs a LiveDeployment shares.  Each
        ``dest`` is the DeploymentConfig field it sets and each default
        is None — "not typed" — so `_deployment_config` can tell a flag
        from its absence."""
        p.add_argument(chaos_flag, dest="chaos_profile", default=None,
                       help="named fault-injection profile "
                            "('none' = clean network)", **chaos_kwargs)
        p.add_argument("--seed", dest="chaos_seed", type=int, default=None,
                       help="seed of the fault plan's RNG")
        p.add_argument("--requests", dest="n_requests", type=int,
                       default=None, help="price checks to attempt")
        p.add_argument("--users", dest="n_users", type=int, default=None,
                       help="size of the simulated population")

    chaos = sub.add_parser(
        "chaos", help="deployment run under fault injection"
    )
    add_deployment_args(chaos, "--profile", choices=sorted(CHAOS_PROFILES))
    chaos.add_argument("--quorum", type=int, default=None,
                       help="minimum vantage points per accepted result")
    chaos.add_argument("--supervised", action="store_true", default=None,
                       help="run under the self-healing operations layer")

    supervise = sub.add_parser(
        "supervise",
        help="supervised chaos run: heal, audit, and report the verdict",
    )
    add_deployment_args(supervise, choices=sorted(CHAOS_PROFILES))
    supervise.add_argument("--audit-out", dest="audit_path", default=None,
                           metavar="JSONL",
                           help="persist the ops audit trail to this file")
    supervise.add_argument("--config", default=None, metavar="JSON",
                           help="load the DeploymentConfig from this JSON "
                                "file (flags typed on the command line "
                                "override it)")

    mesh = sub.add_parser(
        "mesh",
        help="launch a real-process deployment: worker processes behind "
             "the socket transport",
    )
    mesh.add_argument("--servers", type=_positive_int, default=2, metavar="N",
                      help="worker processes to launch")
    mesh.add_argument("--checks", type=int, default=8,
                      help="price checks to farm across the fleet")
    mesh.add_argument("--concurrency", type=int, default=None,
                      help="concurrent in-flight calls (default: 4/worker)")
    mesh.add_argument("--seed", type=int, default=2017)
    mesh.add_argument("--stores", type=_positive_int, default=2,
                      help="stores per worker's world")
    mesh.add_argument("--ipcs", type=int, default=6,
                      help="IPC fleet size per worker (max 30)")
    mesh.add_argument("--users", type=_positive_int, default=4,
                      help="browser addons per worker")
    mesh.add_argument("--out", default=None, metavar="JSON",
                      help="also write the mesh report as JSON")

    metrics = sub.add_parser(
        "metrics",
        help="run a telemetry-on deployment, emit Prometheus exposition",
    )
    add_deployment_args(metrics, metavar="PROFILE")
    metrics.add_argument("--out", default=None,
                         help="write the exposition here instead of stdout")

    trace = sub.add_parser(
        "trace", help="render one price check's span timeline"
    )
    add_deployment_args(trace, metavar="PROFILE")
    trace.add_argument("--job", type=int, default=-1, metavar="N",
                       help="which traced job to render (index into the "
                            "run's trace list; default: the last one)")
    trace.add_argument("--out", default=None, metavar="JSONL",
                       help="also export every span as JSON lines")

    journey = sub.add_parser(
        "journey",
        help="reconstruct one job's end-to-end causal tree from the "
             "seeded forced-steal drill",
    )
    journey.add_argument("job", nargs="?", default=None,
                         help="job id to reconstruct (default: the first "
                              "stolen job of the drill)")
    journey.add_argument("--list", action="store_true",
                         help="list the drill's job ids (stolen ones "
                              "marked) and exit")
    journey.add_argument("--seed", type=int, default=71,
                         help="seed of the drill's world")
    journey.add_argument("--latency-fault", action="store_true",
                         help="run the drill under the injected latency "
                              "fault (slow vantage points)")
    journey.add_argument("--out", default=None, metavar="JSON",
                         help="also export the journey record (spans, "
                              "flight events, ticket) as JSON")

    slo = sub.add_parser(
        "slo",
        help="run the drill under armed SLO burn-rate probes and report "
             "objective compliance",
    )
    slo.add_argument("--seed", type=int, default=71,
                     help="seed of the drill's world")
    slo.add_argument("--latency-fault", action="store_true",
                     help="inject the latency fault the burn-rate probe "
                          "pages on")
    slo.add_argument("--max-burn-rate", type=float, default=1.0,
                     metavar="X",
                     help="alerting multiple of the error-budget burn")
    slo.add_argument("--out", default=None, metavar="JSON",
                     help="write the SLO report as JSON")
    slo.add_argument("--require-met", action="store_true",
                     help="exit 1 unless every objective is met and no "
                          "burn-rate alert fired")

    panel = sub.add_parser(
        "panel", help="live operator panels from a metrics snapshot"
    )
    add_deployment_args(panel, metavar="PROFILE")

    return parser


def _demo_world(chaos_profile=None, chaos_seed=0):
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
    sheriff = PriceSheriff(world, n_measurement_servers=1,
                           chaos_profile=chaos_profile,
                           chaos_seed=chaos_seed)
    return world, sheriff, store


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.addon import PriceCheckFailed

    world, sheriff, store = _demo_world(
        chaos_profile=getattr(args, "chaos", None),
        chaos_seed=getattr(args, "chaos_seed", 0),
    )
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
    if getattr(args, "chaos", None):
        from repro.core.admin import AdminConsole

        print()
        print(AdminConsole(sheriff).faults_panel())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig2_result_page, fig5_adoption, fig8_clustering, fig9_live_domains,
        fig10_ratio, fig11_crawl, fig12_country_cases, fig13_peer_bias,
        fig14_15_temporal, sec75_ab_stats, sec76_alexa400,
        table1_performance, table2_countries, table3_extremes,
        table4_country_rank, table5_percentages,
    )

    runners = {
        "table1": lambda s: table1_performance.run(s),
        "table2": lambda s: table2_countries.run(s),
        "table3": lambda s: table3_extremes.run(s),
        "table4": lambda s: table4_country_rank.run(s),
        "table5": lambda s: table5_percentages.run(s),
        "fig2": lambda s: fig2_result_page.run(s),
        "fig5": lambda s: fig5_adoption.run(s),
        "fig8a": lambda s: fig8_clustering.run_fig8a(s),
        "fig8b": lambda s: fig8_clustering.run_fig8b(s),
        "fig8c": lambda s: fig8_clustering.run_fig8c(s),
        "fig9": lambda s: fig9_live_domains.run(s),
        "fig10": lambda s: fig10_ratio.run(s),
        "fig11": lambda s: fig11_crawl.run(s),
        "fig12": lambda s: fig12_country_cases.run(s),
        "fig13": lambda s: fig13_peer_bias.run(s),
        "fig14-15": lambda s: fig14_15_temporal.run(s),
        "sec75": lambda s: sec75_ab_stats.run(s),
        "sec76": lambda s: sec76_alexa400.run(s),
    }
    selected = (
        list(runners.items())
        if args.experiment == "all"
        else [(args.experiment, runners[args.experiment])]
    )
    sections = []
    for name, runner in selected:
        rendered = runner(args.scale).render()
        if len(selected) > 1:
            print(f"\n=== {name} ===")
        print(rendered)
        sections.append((name, rendered))
    if args.out:
        from repro.analysis.report_writer import write_markdown_report

        path = write_markdown_report(sections, args.out, scale=args.scale)
        print(f"\nreport written to {path}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.experiments import table1_performance

    print(table1_performance.run("test").render())
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


def _cmd_panels(args: argparse.Namespace) -> int:
    from repro.core.admin import AdminConsole

    world, sheriff, _ = _demo_world()
    sheriff.install_addon(world.make_browser("ES", "Madrid"))
    sheriff.install_addon(world.make_browser("FR", "Paris"))
    console = AdminConsole(sheriff)
    print(console.servers_panel())
    print()
    print(console.peers_panel())
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

    world, sheriff, store = _demo_world()
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


def _load_config_json(path: str, parse):
    """Load a run config from a JSON file through a validating parser.

    Returns None (after printing the reason) when the file is missing,
    malformed JSON, or fails the parser's validation.
    """
    import json

    from repro.core.errors import InvalidConfig

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"FAIL: cannot read config {path}: {exc}")
        return None
    except json.JSONDecodeError as exc:
        print(f"FAIL: config {path} is not valid JSON: {exc}")
        return None
    try:
        return parse(data)
    except InvalidConfig as exc:
        print(f"FAIL: invalid config {path}: {exc}")
        return None


def _deployment_config(args: argparse.Namespace, **verb_defaults):
    """The DeploymentConfig a verb runs: typed flag > ``--config`` file >
    verb default (over ``DeploymentConfig.test_scale()``).

    A flag's ``dest`` is the config field it sets, so whatever the
    namespace holds under a field's name — and is not None, i.e. was
    typed — is applied.  Returns None after printing the reason when
    the file or the resulting config is invalid.
    """
    from repro.core.errors import InvalidConfig
    from repro.workloads.deployment import DeploymentConfig

    if getattr(args, "config", None) is not None:
        config = _load_config_json(args.config, DeploymentConfig.from_dict)
        if config is None:
            return None
    else:
        config = dataclasses.replace(
            DeploymentConfig.test_scale(), **verb_defaults
        )
    typed = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config)
        if getattr(args, f.name, None) is not None
    }
    if typed.get("chaos_profile") == "none":
        typed["chaos_profile"] = None
    try:
        return dataclasses.replace(config, **typed).validate()
    except InvalidConfig as exc:
        print(f"FAIL: invalid config: {exc}")
        return None


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.admin import AdminConsole
    from repro.workloads.deployment import LiveDeployment

    config = _deployment_config(
        args, n_users=30, n_requests=60, chaos_profile="lossy",
    )
    if config is None:
        return 1
    print(f"chaos drill: profile={config.chaos_profile or 'none'!r} "
          f"seed={config.chaos_seed} requests={config.n_requests} "
          f"users={config.n_users} quorum={config.quorum}"
          + (" [supervised]" if config.supervised else ""))
    dataset = LiveDeployment(config).run()
    print(f"attempted          {dataset.n_attempted}")
    print(f"result pages       {len(dataset.results)}")
    print(f"explicit failures  {dataset.n_explicit_failures}")
    print(f"resolution rate    {dataset.resolution_rate:.1%}")
    console = AdminConsole(dataset.sheriff)
    print()
    print(console.faults_panel())
    print()
    print(console.servers_panel())
    if dataset.supervisor is not None:
        print()
        print(console.ops_panel(dataset.supervisor))
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

    print(f"attempted          {dataset.n_attempted}")
    print(f"result pages       {len(dataset.results)}")
    print(f"explicit failures  {dataset.n_explicit_failures}")
    print(f"resolution rate    {dataset.resolution_rate:.1%}")
    print()
    print(ops_panel(supervisor))
    print()
    print("audit trail:")
    for kind, count in sorted(supervisor.audit.counts().items()):
        print(f"  {kind:<26} {count}")
    if config.audit_path:
        print(f"audit trail persisted to {config.audit_path}")

    pending = dataset.sheriff.distributor.pending_jobs
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
        print(f"FAIL: {pending} job(s) permanently stuck in the distributor")
        return 1
    print("OK: deployment healed, no jobs lost")
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    import json

    from repro.clients.ipc import DEFAULT_IPC_SITES
    from repro.mesh import MeshLauncher, WorkerSpec

    print(f"mesh: launching {args.servers} worker process(es)")
    launcher = MeshLauncher(
        n_workers=args.servers,
        spec=WorkerSpec(
            seed=args.seed, n_stores=args.stores,
            ipc_sites=DEFAULT_IPC_SITES[: args.ipcs], n_users=args.users,
        ),
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
    journey = run.sheriff.jobs.journey(job_id)
    return {
        "job_id": job_id,
        "stolen": job_id in run.stolen_job_ids,
        "spans": [span.to_dict() for span in journey["spans"]],
        "events": [event.to_dict() for event in journey["events"]],
        "dead_letter": journey["dead_letter"],
        "ticket": journey["ticket"],
    }


def _cmd_journey(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_trace
    from repro.workloads.journey import JourneyConfig, run_journey

    run = run_journey(JourneyConfig(
        seed=args.seed, latency_fault=args.latency_fault,
    ))
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

    journey = run.sheriff.jobs.journey(job_id)
    stolen = " [stolen]" if job_id in run.stolen_job_ids else ""
    print(f"journey of {job_id}{stolen} "
          f"(steals this run: {sum(run.steals.values())})")
    print()
    print(render_trace(journey["spans"], show_critical_path=True))
    print()
    print("flight recorder:")
    for event in journey["events"]:
        detail = " ".join(
            f"{k}={v}" for k, v in sorted(event.detail.items())
        )
        print(f"  t={event.time:10.3f}  {event.kind:<12} {detail}")
    ticket = journey["ticket"]
    if ticket is not None:
        state = (
            "completed" if ticket["completed"]
            else f"failed ({ticket['failure_reason']})" if ticket["failed"]
            else "in flight"
        )
        print(f"ticket: server={ticket['server_name']} "
              f"attempts={ticket['attempts']} {state}")
    if journey["dead_letter"] is not None:
        dead = journey["dead_letter"]
        print(f"dead letter: reason={dead['reason']} "
              f"last_event={dead['last_event']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(_journey_record(run, job_id), fh, indent=2)
            fh.write("\n")
        print(f"journey record written to {args.out}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.workloads.journey import JourneyConfig, run_slo_drill

    run, report, alerts = run_slo_drill(
        JourneyConfig(seed=args.seed, latency_fault=args.latency_fault),
        max_burn_rate=args.max_burn_rate,
    )
    print(f"SLO drill: seed={args.seed} "
          f"latency_fault={args.latency_fault} "
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
    """A small telemetry-on deployment for metrics/trace/panel (None,
    after the reason is printed, when the flags make no valid config)."""
    from repro.workloads.deployment import LiveDeployment

    config = _deployment_config(
        args, n_users=12, n_requests=24, chaos_profile="lossy",
    )
    if config is None:
        return None
    config.telemetry = True
    # a short cache TTL so the cache hit/miss series carry data
    config.page_cache_ttl = 60.0
    return LiveDeployment(config).run()


def _cmd_metrics(args: argparse.Namespace) -> int:
    dataset = _telemetry_drill(args)
    if dataset is None:
        return 1
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

    dataset = _telemetry_drill(args)
    if dataset is None:
        return 1
    tracer = dataset.sheriff.telemetry.tracer
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
    from repro.core.monitoring import (
        faults_panel,
        peers_panel,
        pipeline_panel,
        servers_panel,
    )

    dataset = _telemetry_drill(args)
    if dataset is None:
        return 1
    sheriff = dataset.sheriff
    registry = sheriff.telemetry.registry
    print(pipeline_panel(registry))
    print()
    print(servers_panel(registry))
    print()
    print(peers_panel(registry))
    print()
    report = sheriff.fault_report()
    report.pop("chaos_profile", None)
    report.pop("faults_injected", None)
    print(faults_panel(sheriff.faults, recovery=report))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "reproduce": _cmd_reproduce,
        "perf": _cmd_perf,
        "geoblock": _cmd_geoblock,
        "panels": _cmd_panels,
        "watch": _cmd_watch,
        "chaos": _cmd_chaos,
        "supervise": _cmd_supervise,
        "mesh": _cmd_mesh,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "journey": _cmd_journey,
        "slo": _cmd_slo,
        "panel": _cmd_panel,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
