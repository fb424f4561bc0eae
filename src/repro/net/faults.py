"""Fault injection for the $heriff measurement pipeline.

The deployed system survives exactly the failures a clean simulation
never exercises: PlanetLab IPC hosts going dark mid-crawl, Measurement
servers missing heartbeats and being marked offline, and flaky PPCs
returning partial results (Sect. 3.4, 5).  This module makes those
failures *first-class inputs*: a :class:`FaultPlan` is a seeded,
deterministic schedule of per-host / per-edge faults that the layers
where the paper's failures happen consult —

* :class:`repro.net.p2p.PeerOverlay` channels (PPC requests),
* :class:`repro.clients.ipc.InfrastructureProxyClient` fetches,
* the Coordinator's heartbeat/failover machinery
  (:mod:`repro.core.dispatch`, :mod:`repro.core.coordinator`),
* the add-on's job submission.

The component transport (:mod:`repro.net.transport`) carries no plan: a
Measurement server goes dark through the Coordinator's flap check.

Five fault kinds are supported:

``drop``     the message vanishes (connection refused / host gone);
``timeout``  the request hangs until the caller's deadline fires;
``delay``    a latency spike — the response arrives, late;
``flap``     the destination host goes dark for a window, missing
             heartbeats, then returns;
``corrupt``  the response arrives mangled (truncated HTML, missing
             fields).

All randomness flows from one injected :class:`random.Random`, so a
chaos run is exactly reproducible from its seed, and every injected
fault is appended to :attr:`FaultPlan.events` — two runs with the same
seed produce identical event logs (tested).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import NULL_TELEMETRY

#: canonical destination roles used by rule matching when the concrete
#: host name is opaque (peer IDs are random tokens)
ROLE_SERVER = "server"  # a Measurement server
ROLE_IPC = "ipc"        # an Infrastructure Proxy Client
ROLE_PPC = "ppc"        # a Peer Proxy Client
ROLE_STATE = "state"    # doppelganger state fetch via the anonymity net

FAULT_KINDS = ("drop", "timeout", "delay", "flap", "corrupt")


class ProxyFetchError(RuntimeError):
    """An IPC page fetch failed (after exhausting its retry budget)."""


class ProxyTimeout(ProxyFetchError):
    """The per-proxy timeout fired before the IPC returned a page."""


class PeerTimeout(ConnectionError):
    """A PPC did not answer within the per-peer deadline."""


@dataclass(frozen=True)
class FaultRule:
    """One line of a chaos profile.

    ``src``/``dst`` are matched (``fnmatch``-style) against the edge's
    concrete endpoint names; ``dst`` additionally matches the
    destination's *role* (``server`` / ``ipc`` / ``ppc`` / ``state``)
    exactly, which is how profiles target "all peers" without
    knowing their opaque IDs.
    """

    kind: str
    probability: float
    dst: str = "*"
    src: str = "*"
    #: multiplier applied to the edge latency for ``delay`` faults
    delay_factor: float = 5.0
    #: how long a ``flap`` keeps the host dark, in simulated seconds
    flap_duration: float = 90.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability!r} not in [0, 1]")

    def matches(self, src: str, dst: str, role: Optional[str]) -> bool:
        if not (fnmatchcase(dst, self.dst) or self.dst == role):
            return False
        return fnmatchcase(src, self.src)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the event log and the monitoring panel."""

    seq: int
    kind: str
    src: str
    dst: str
    detail: str = ""


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one delivery attempt."""

    kind: Optional[str] = None  # None = deliver cleanly
    delay_factor: float = 1.0

    def __bool__(self) -> bool:
        return self.kind is not None


CLEAN = FaultDecision()


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with jitter, for retry loops.

    ``delay(attempt, rng)`` returns ``min(cap, base * factor**attempt)``
    spread by ``±jitter`` — the classic decorrelation that keeps a fleet
    of retrying clients from stampeding a recovering server.
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.1

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        raw = min(self.cap, self.base * self.factor ** max(0, attempt))
        if rng is None or self.jitter <= 0:
            return raw
        return raw * (1.0 + rng.uniform(-self.jitter, self.jitter))


class FaultPlan:
    """A deterministic, seeded schedule of faults.

    Every decision consumes the injected RNG in call order, so a
    single-threaded simulation replays identically from the same seed.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        seed: int = 0,
        name: str = "custom",
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.name = name
        self.rules: List[FaultRule] = list(rules)
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        self._seq = itertools.count()
        self._flap_until: Dict[str, float] = {}
        #: every injected fault as a kind-labeled counter series: the
        #: tally of the event log the determinism tests compare
        telemetry.registry.sampled(
            "counter", "sheriff_faults_injected_total",
            "Faults injected, by kind", ("kind",),
            lambda: Counter((e.kind,) for e in self.events),
        )

    # -- event log ---------------------------------------------------------
    def _record(self, kind: str, src: str, dst: str, detail: str = "") -> None:
        self.events.append(
            FaultEvent(seq=next(self._seq), kind=kind, src=src, dst=dst,
                       detail=detail)
        )

    def event_log(self) -> Tuple[FaultEvent, ...]:
        """Immutable snapshot, comparable across runs (determinism test)."""
        return tuple(self.events)

    # -- per-delivery decisions --------------------------------------------
    def decide(
        self,
        src: str,
        dst: str,
        role: Optional[str] = None,
        kinds: Sequence[str] = ("drop", "timeout", "delay", "corrupt"),
    ) -> FaultDecision:
        """Decide the fate of one delivery attempt on edge ``src → dst``.

        The first matching rule that fires wins; ``flap`` rules are
        handled by :meth:`host_down`, never here.
        """
        for rule in self.rules:
            if rule.kind not in kinds or rule.kind == "flap":
                continue
            if not rule.matches(src, dst, role):
                continue
            if self.rng.random() >= rule.probability:
                continue
            if rule.kind == "delay":
                self._record("delay", src, dst, f"x{rule.delay_factor:g}")
                return FaultDecision(kind="delay", delay_factor=rule.delay_factor)
            self._record(rule.kind, src, dst)
            return FaultDecision(kind=rule.kind)
        return CLEAN

    # -- host flapping ------------------------------------------------------
    def host_down(self, name: str, now: float, role: Optional[str] = None) -> bool:
        """Is ``name`` dark at simulated time ``now``?

        A host inside a flap window stays down until the window closes;
        otherwise each call gives every matching ``flap`` rule one draw
        to start a new window.
        """
        until = self._flap_until.get(name)
        if until is not None:
            if now < until:
                return True
            del self._flap_until[name]
        for rule in self.rules:
            if rule.kind != "flap" or not rule.matches("*", name, role):
                continue
            if self.rng.random() < rule.probability:
                self._flap_until[name] = now + rule.flap_duration
                self._record("flap", "*", name, f"{rule.flap_duration:g}s")
                return True
        return False

    def flapping_hosts(self, now: float) -> List[str]:
        """Hosts currently inside a flap window — a *pure read*, unlike
        :meth:`host_down`: no rule gets a draw, so supervisor health
        probes can poll it without perturbing the fault RNG stream."""
        return sorted(n for n, t in self._flap_until.items() if now < t)

    def end_flap(self, name: str) -> bool:
        """Close ``name``'s flap window now (RNG-free).

        Models an operator (or the :class:`repro.ops.supervisor`)
        replacing the flapped process: the restarted host answers its
        next heartbeat instead of serving out the window.  Returns
        whether a window was actually open.  Flap rules may still open
        a *new* window on a later :meth:`host_down` draw — a restart
        fixes the instance, not the rule causing the flapping.
        """
        return self._flap_until.pop(name, None) is not None

    # -- response corruption -------------------------------------------------
    def corrupt_text(self, text: str) -> str:
        """Truncate at a random point and splice garbage — the shape of a
        half-delivered HTTP body."""
        if not text:
            return "\x00"
        cut = self.rng.randrange(len(text))
        return text[:cut] + "\x00<!-- truncated by fault injection"

    def corrupt_reply(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Mangle a PPC reply: either truncate the page or lose a field."""
        mangled = dict(reply)
        if "html" in mangled and self.rng.random() < 0.5:
            mangled["html"] = self.corrupt_text(str(mangled["html"]))
        else:
            for key in ("country", "region", "city", "html"):
                if key in mangled:
                    del mangled[key]
                    break
        return mangled


#: named chaos profiles — rule factories, seeded per run via chaos_plan()
CHAOS_PROFILES: Dict[str, Tuple[FaultRule, ...]] = {
    # a clean network: useful as an A/B control in benchmarks
    "none": (),
    # the Sect. 5 deployment on a bad day: one in ten peer requests is
    # lost and Measurement servers occasionally miss heartbeat windows
    "lossy": (
        FaultRule(kind="drop", probability=0.10, dst=ROLE_PPC),
        FaultRule(kind="flap", probability=0.05, dst=ROLE_SERVER,
                  flap_duration=90.0),
    ),
    # Mikians-style crowd measurement: volunteer peers are unreliable
    "flaky_peers": (
        FaultRule(kind="drop", probability=0.20, dst=ROLE_PPC),
        FaultRule(kind="timeout", probability=0.15, dst=ROLE_PPC),
        FaultRule(kind="corrupt", probability=0.10, dst=ROLE_PPC),
    ),
    # overloaded PlanetLab nodes: IPC fetches hang or crawl
    "degraded": (
        FaultRule(kind="timeout", probability=0.15, dst=ROLE_IPC),
        FaultRule(kind="delay", probability=0.20, dst=ROLE_IPC,
                  delay_factor=6.0),
        FaultRule(kind="drop", probability=0.05, dst=ROLE_PPC),
    ),
    # everything at once, at moderate rates
    "chaos_monkey": (
        FaultRule(kind="drop", probability=0.10, dst=ROLE_PPC),
        FaultRule(kind="corrupt", probability=0.05, dst=ROLE_PPC),
        FaultRule(kind="timeout", probability=0.10, dst=ROLE_IPC),
        FaultRule(kind="drop", probability=0.05, dst=ROLE_SERVER),
        FaultRule(kind="flap", probability=0.05, dst=ROLE_SERVER,
                  flap_duration=120.0),
        FaultRule(kind="drop", probability=0.10, dst=ROLE_STATE),
    ),
}


def chaos_plan(profile: str, seed: int = 0, telemetry=NULL_TELEMETRY) -> FaultPlan:
    """Instantiate a named chaos profile with its own seeded RNG."""
    try:
        rules = CHAOS_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {profile!r}; "
            f"choose from {sorted(CHAOS_PROFILES)}"
        ) from None
    return FaultPlan(rules, seed=seed, name=profile, telemetry=telemetry)
