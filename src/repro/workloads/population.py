"""The geo-distributed user base of the live deployment.

Users are distributed across countries following the Table 2 request
mix (Spain-heavy, then France, USA, Switzerland, …) with a long tail
over the remaining countries — the deployment saw 1265 users from 55
countries.  Each user gets:

* a browser located in a concrete city,
* an organic browsing history over the content web (Zipf global
  popularity skewed by a few personal favourite domains) — the raw
  material for profile vectors and tracker state,
* possibly retailer logins (the amazon.com VAT effect needs identified
  users),
* a $heriff add-on; 459 of the paper's 1265 users donated cleartext
  history, reproduced by ``donate_fraction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.addon import SheriffAddon
from repro.core.config import Config, knob
from repro.core.sheriff import PriceSheriff
from repro.workloads.alexa import ContentWeb

#: Table 2, "top-10 countries ranked by the number of price check
#: requests", used as user-count weights, plus a tail over the rest.
TABLE2_WEIGHTS: Dict[str, float] = {
    "ES": 2554, "FR": 917, "US": 581, "CH": 387, "DE": 217,
    "BE": 161, "GB": 126, "NL": 96, "CY": 95, "CA": 92,
}
TAIL_WEIGHT_TOTAL = 474.0  # requests outside the top-10 countries


@dataclass
class PopulationConfig(Config):
    n_users: int = knob(150, ge=1)
    seed: int = 5
    history_visits: Tuple[int, int] = (15, 80)
    donate_fraction: float = knob(459 / 1265, ge=0, le=1)
    login_domains: Tuple[str, ...] = ("amazon.com",)
    login_fraction: float = knob(0.25, ge=0, le=1)
    #: floors guaranteeing enough PPCs where the case studies need them
    min_users_per_country: Dict[str, int] = field(
        default_factory=lambda: {"ES": 12, "FR": 10, "DE": 8, "GB": 14}
    )
    #: interest archetypes: users fall into personas, each a shared set
    #: of favourite domains drawn from the popular head of the content
    #: web — this is the clustering structure Sect. 4 measures
    n_personas: int = 8
    persona_domains_each: int = 6
    persona_boost: float = 8.0
    persona_pool_top: int = 60  # personas draw from the Alexa head
    #: per-user idiosyncratic favourites from the popularity tail —
    #: "domains that are popular only among a few users", which make the
    #: "users top domains" vectors sparser (the Fig. 8(a) mechanism)
    n_personal_domains: int = 2
    personal_boost: float = 20.0


class Population:
    """Creates and owns the deployment's users (browsers + add-ons)."""

    def __init__(
        self,
        sheriff: PriceSheriff,
        content_web: ContentWeb,
        config: Optional[PopulationConfig] = None,
    ) -> None:
        self.sheriff = sheriff
        self.content_web = content_web
        self.config = config if config is not None else PopulationConfig()
        self._rng = random.Random(self.config.seed)
        self.addons: List[SheriffAddon] = []
        self.by_country: Dict[str, List[SheriffAddon]] = {}

    # -- country assignment -----------------------------------------------
    def _country_plan(self) -> List[str]:
        cfg = self.config
        geodb = self.sheriff.world.geodb
        tail = [
            c for c in geodb.country_codes() if c not in TABLE2_WEIGHTS
        ]
        plan: List[str] = []
        # floors are sized for the default 150-user run; scale them down
        # proportionally for smaller populations so the Table 2 mix
        # (Spain-dominant) is preserved at every scale
        for country, floor in cfg.min_users_per_country.items():
            effective = min(floor, max(2, round(floor * cfg.n_users / 150)))
            plan.extend([country] * effective)
        weights = dict(TABLE2_WEIGHTS)
        per_tail = TAIL_WEIGHT_TOTAL / len(tail)
        for c in tail:
            weights[c] = per_tail
        codes = list(weights)
        w = [weights[c] for c in codes]
        while len(plan) < cfg.n_users:
            plan.append(self._rng.choices(codes, weights=w, k=1)[0])
        self._rng.shuffle(plan)
        return plan[: cfg.n_users]

    # -- user construction ------------------------------------------------------
    def _persona_domains(self, persona: int) -> List[str]:
        """The shared favourite set of one interest archetype."""
        cfg = self.config
        pool = self.content_web.domains[
            : min(cfg.persona_pool_top, len(self.content_web.domains))
        ]
        rng = random.Random(1000 + persona)
        return rng.sample(pool, min(cfg.persona_domains_each, len(pool)))

    def _browse_history(self, browser) -> None:
        cfg = self.config
        n_visits = self._rng.randint(*cfg.history_visits)
        bias: Dict[str, float] = {}
        if cfg.n_personas > 0:
            persona = self._rng.randrange(cfg.n_personas)
            for domain in self._persona_domains(persona):
                bias[domain] = cfg.persona_boost
        tail = self.content_web.domains[cfg.persona_pool_top:]
        if tail and cfg.n_personal_domains > 0:
            personal = self._rng.sample(
                tail, min(cfg.n_personal_domains, len(tail))
            )
            for domain in personal:
                bias[domain] = cfg.personal_boost
        for i, domain in enumerate(
            self.content_web.sample_domains(self._rng, n_visits, bias)
        ):
            browser.visit(f"http://{domain}/page/{i % 7}")

    def build(self) -> List[SheriffAddon]:
        cfg = self.config
        world = self.sheriff.world
        for country in self._country_plan():
            geocountry = world.geodb.country(country)
            city = self._rng.choice(geocountry.cities) if geocountry.cities else None
            browser = world.make_browser(country, city)
            self._browse_history(browser)
            for domain in cfg.login_domains:
                if (
                    world.internet.has_domain(domain)
                    and self._rng.random() < cfg.login_fraction
                ):
                    browser.login(domain)
            addon = self.sheriff.install_addon(
                browser,
                consent=True,
                history_donation_opt_in=self._rng.random() < cfg.donate_fraction,
            )
            self.addons.append(addon)
            self.by_country.setdefault(country, []).append(addon)
        return self.addons

    # -- queries -------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.addons)

    def countries(self) -> List[str]:
        return sorted(self.by_country)

    def donors(self) -> List[SheriffAddon]:
        return [a for a in self.addons if a.history_donation_opt_in]

    def users_in(self, country: str) -> List[SheriffAddon]:
        return list(self.by_country.get(country, []))

    def pick_user(self, rng: random.Random) -> SheriffAddon:
        """Requesters follow the Table 2 mix because users already do."""
        return rng.choice(self.addons)
