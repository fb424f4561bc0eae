"""One declaration per deployment knob: ``SheriffConfig`` and the generic
validate / to_dict / from_dict every config dataclass derives from it."""

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.config import SheriffConfig, knob
from repro.core.errors import InvalidConfig
from repro.core.sheriff import PriceSheriff, SheriffWorld

#: two in-range values per SheriffConfig field, so whatever default a
#: subclass or preset gives the field, one of them is not it.  A field
#: added to SheriffConfig needs a row here — and no other edit — for the
#: reaches-every-entry-point tests to cover it.
ALTERNATIVES = {
    "n_measurement_servers": (3, 5),
    "ipc_sites": (DEFAULT_IPC_SITES[:3], DEFAULT_IPC_SITES[:2]),
    "max_ppcs_per_request": (2, 4),
    "chaos_profile": ("lossy", "flaky_peers"),
    "chaos_seed": (9, 4),
    "retry_budget": (5, 7),
    "quorum": (2, 3),
    "max_fetch_workers": (3, 5),
    "page_cache_ttl": (12.5, 45.0),
    "telemetry": (True, False),
    "db_backend": ("sqlite", "memory"),
    "job_queue": (True, False),
    "queue_depth": (64, 32),
    "queue_steal_threshold": (4, 32),
    "transport": ("socket", "sim"),
}

KNOBS = [f.name for f in dataclasses.fields(SheriffConfig)]


def non_default(config, name):
    """A valid value for ``name`` that differs from ``config``'s."""
    return next(v for v in ALTERNATIVES[name] if v != getattr(config, name))


def assert_knob_reached(sheriff, name, value):
    """The sheriff was built from ``name=value``: it holds the value and,
    where one component shows it directly, so does the component."""
    assert getattr(sheriff.config, name) == value
    observed = {
        "n_measurement_servers": lambda: len(sheriff.measurement_servers),
        "ipc_sites": lambda: tuple(
            (i.location.country, i.location.city) for i in sheriff.ipcs
        ),
        "max_ppcs_per_request": lambda: sheriff.coordinator.max_ppcs_per_request,
        "chaos_profile": lambda: sheriff.faults.name,
        "retry_budget": lambda: sheriff.coordinator.retry_budget,
        "quorum": lambda: sheriff.quorum,
        "max_fetch_workers": lambda: sheriff.engine.max_workers,
        "page_cache_ttl": lambda: sheriff.engine.cache.ttl,
        "telemetry": lambda: sheriff.telemetry.enabled,
        "db_backend": lambda: type(sheriff.db.backend).__name__
        .removesuffix("Backend").lower(),
        "job_queue": lambda: sheriff.job_queue is not None,
        "transport": lambda: sheriff.transport_label,
    }.get(name)
    if observed is not None:
        expected = (
            tuple(site[:2] for site in value) if name == "ipc_sites" else value
        )
        assert observed() == expected


def test_alternatives_cover_every_field():
    assert set(ALTERNATIVES) == set(KNOBS)


class TestOneEditPerKnob:
    """A knob is one annotated line: range, JSON form, unknown-key and
    out-of-range rejection all follow from the declaration."""

    @dataclass
    class WithBurst(SheriffConfig):
        burst_window: float = knob(2.5, gt=0, le=60)
        burst_sites: Optional[Tuple[Tuple[str, int], ...]] = None

    def test_round_trips_through_json(self):
        cfg = self.WithBurst(burst_window=7, burst_sites=(("ES", 2),), quorum=2)
        restored = self.WithBurst.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg
        assert restored.burst_sites == (("ES", 2),)

    @pytest.mark.parametrize("value", [0, 61, "soon", True, None])
    def test_out_of_range_rejected_by_name(self, value):
        with pytest.raises(InvalidConfig, match="burst_window"):
            self.WithBurst.from_dict({"burst_window": value})
        with pytest.raises(InvalidConfig, match="burst_window"):
            self.WithBurst(burst_window=value).validate()

    def test_unknown_sibling_key_rejected_by_name(self):
        with pytest.raises(InvalidConfig, match="unknown withburst config.*burst_windw"):
            self.WithBurst.from_dict({"burst_window": 3.0, "burst_windw": 3.0})

    def test_nested_shape_checked(self):
        with pytest.raises(InvalidConfig, match=r"burst_sites\[0\]"):
            self.WithBurst.from_dict({"burst_sites": [["ES"]]})

    def test_settable_on_the_sheriff_by_keyword(self):
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), self.WithBurst(),
            whitelist_domains=[], ipc_sites=(), burst_window=9.0,
        )
        assert sheriff.config.burst_window == 9.0

    def test_redeclared_default_keeps_the_range(self):
        @dataclass
        class Bigger(SheriffConfig):
            n_measurement_servers: int = 6

        assert Bigger().validate().n_measurement_servers == 6
        with pytest.raises(InvalidConfig, match="n_measurement_servers"):
            Bigger(n_measurement_servers=0).validate()


class TestSheriffValidatesItsConfig:
    """PriceSheriff range-checks exactly what a config file is checked
    for (these built silently before)."""

    @pytest.mark.parametrize(
        "name", ["n_measurement_servers", "quorum", "max_fetch_workers"]
    )
    def test_degenerate_value_rejected(self, name):
        with pytest.raises(InvalidConfig, match=name):
            PriceSheriff(
                SheriffWorld.create(seed=1), whitelist_domains=[], **{name: 0}
            )

    @pytest.mark.parametrize("name", KNOBS)
    def test_keyword_reaches_the_sheriff(self, name):
        value = non_default(SheriffConfig(), name)
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[], **{name: value}
        )
        try:
            assert_knob_reached(sheriff, name, value)
        finally:
            sheriff.shutdown()

    def test_config_object_and_overrides_compose(self):
        base = SheriffConfig(n_measurement_servers=1, quorum=2)
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), base, whitelist_domains=[], quorum=3
        )
        assert len(sheriff.measurement_servers) == 1
        assert sheriff.quorum == 3
        assert base.quorum == 2  # the caller's object is not touched
