"""Shared datasets and scale presets for the experiment modules.

Several tables/figures are views over the *same* underlying run (the
live deployment feeds Table 2/3/4 and Figs. 9/10; the four-country case
study feeds Table 5 and Figs. 12/13; the temporal study feeds Figs.
14/15 and the Sect. 7.5 statistics).  This module builds each underlying
dataset once per process and caches it per scale.

Scales:

* ``test`` — seconds; used by the unit tests of the experiment modules;
* ``default`` — minutes; what the benchmark harness runs;
* ``paper`` — the full Sect. 6/7 numbers (hours; for completeness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.workloads.crawlstudy import (
    CrawlStudy,
    TemporalStudyResult,
    four_country_case_study,
    temporal_study,
)
from repro.workloads.deployment import (
    DeploymentConfig,
    DeploymentDataset,
    LiveDeployment,
)


@dataclass(frozen=True)
class Scale:
    """All size knobs for one preset."""

    name: str
    # live deployment (Sect. 6; its IPC fleet also serves the crawls)
    live: DeploymentConfig
    # systematic crawl (Fig. 11)
    crawl_domains: int
    crawl_products: int
    crawl_repetitions: int
    # four-country case study (Table 5, Figs. 12–13)
    case_products: int
    case_repetitions: int
    # temporal study (Figs. 14–15, Sect. 7.5)
    temporal_products: int
    temporal_days: int
    temporal_checks_per_day: int
    # profile clustering (Fig. 8)
    profile_users: int
    profile_m_grid: Tuple[int, ...]
    profile_k_grid: Tuple[int, ...]
    # secure k-means timing (Fig. 8(c))
    kmeans_users: int
    kmeans_m_values: Tuple[int, ...]
    kmeans_k_grid: Tuple[int, ...]
    # Alexa sweep (Sect. 7.6)
    alexa_domains: int
    alexa_products: int
    alexa_days: int


SCALES: Dict[str, Scale] = {
    "test": Scale(
        name="test",
        live=DeploymentConfig.test_scale(),
        crawl_domains=4, crawl_products=3, crawl_repetitions=2,
        case_products=3, case_repetitions=2,
        temporal_products=2, temporal_days=4, temporal_checks_per_day=2,
        profile_users=40, profile_m_grid=(20, 30, 40),
        profile_k_grid=(2, 4, 6, 8),
        kmeans_users=12, kmeans_m_values=(10,), kmeans_k_grid=(3, 5),
        alexa_domains=6, alexa_products=2, alexa_days=2,
    ),
    "default": Scale(
        name="default",
        live=DeploymentConfig(n_content_domains=220),
        crawl_domains=24, crawl_products=8, crawl_repetitions=5,
        case_products=8, case_repetitions=6,
        temporal_products=8, temporal_days=20, temporal_checks_per_day=2,
        profile_users=150, profile_m_grid=(50, 80, 110, 140, 170, 200),
        profile_k_grid=(5, 10, 15, 20, 30, 40, 60),
        kmeans_users=120, kmeans_m_values=(50, 100), kmeans_k_grid=(20, 40, 60),
        alexa_domains=40, alexa_products=3, alexa_days=3,
    ),
    "paper": Scale(
        name="paper",
        live=DeploymentConfig.paper_scale(),
        crawl_domains=24, crawl_products=30, crawl_repetitions=15,
        case_products=25, case_repetitions=15,
        temporal_products=30, temporal_days=20, temporal_checks_per_day=2,
        profile_users=500, profile_m_grid=(50, 100, 150, 200),
        profile_k_grid=(10, 20, 40, 60, 100, 150, 200),
        kmeans_users=500, kmeans_m_values=(50, 100),
        kmeans_k_grid=(50, 100, 150, 200),
        alexa_domains=400, alexa_products=5, alexa_days=3,
    ),
}


def scale(name: str) -> Scale:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; pick one of {sorted(SCALES)}"
        ) from None


_live_cache: Dict[str, DeploymentDataset] = {}
_crawl_cache: Dict[str, List] = {}
_case_cache: Dict[str, Dict] = {}
_temporal_cache: Dict[str, TemporalStudyResult] = {}
_study_cache: Dict[str, CrawlStudy] = {}


def live_dataset(scale_name: str = "default") -> DeploymentDataset:
    """The Sect. 6 live deployment run (cached per scale)."""
    if scale_name not in _live_cache:
        _live_cache[scale_name] = LiveDeployment(scale(scale_name).live).run()
    return _live_cache[scale_name]


def crawl_study(scale_name: str = "default") -> CrawlStudy:
    """The parallel crawling back-end over the live world (cached)."""
    if scale_name not in _study_cache:
        dataset = live_dataset(scale_name)
        _study_cache[scale_name] = CrawlStudy(
            dataset.world, dataset.sheriff,
            ipc_sites=dataset.config.ipc_sites,
        )
    return _study_cache[scale_name]


def crawl_dataset(scale_name: str = "default") -> List:
    """The Sect. 7.1 systematic crawl from Spain (Fig. 11, cached)."""
    if scale_name not in _crawl_cache:
        dataset = live_dataset(scale_name)
        s = scale(scale_name)
        from repro.analysis.pricediff import domain_diff_stats

        ranked = domain_diff_stats(dataset.results)
        domains = [st.domain for st in ranked[: s.crawl_domains]]
        if not domains:  # tiny test runs may not accumulate enough
            domains = ["steampowered.com", "abercrombie.com"]
        study = crawl_study(scale_name)
        _crawl_cache[scale_name] = study.crawl_domains(
            domains,
            products_per_domain=s.crawl_products,
            repetitions=s.crawl_repetitions,
            country="ES",
        )
    return _crawl_cache[scale_name]


def case_study_data(scale_name: str = "default") -> Dict:
    """Sect. 7.3 four-country batches for chegg/jcpenney/amazon (cached)."""
    if scale_name not in _case_cache:
        s = scale(scale_name)
        study = crawl_study(scale_name)
        _case_cache[scale_name] = four_country_case_study(
            study,
            products_per_domain=s.case_products,
            repetitions=s.case_repetitions,
        )
    return _case_cache[scale_name]


def temporal_data(scale_name: str = "default") -> TemporalStudyResult:
    """The Sect. 7.5 temporal study (cached)."""
    if scale_name not in _temporal_cache:
        s = scale(scale_name)
        dataset = live_dataset(scale_name)
        # a dedicated backend with Spain-local IPCs and room for the
        # whole nine-browser fleet per request
        study = CrawlStudy(
            dataset.world, dataset.sheriff,
            ipc_sites=tuple(DEFAULT_IPC_SITES[:3]),
            max_ppcs_per_request=9,
        )
        _temporal_cache[scale_name] = temporal_study(
            study,
            products_per_domain=s.temporal_products,
            days=s.temporal_days,
            checks_per_day=s.temporal_checks_per_day,
        )
    return _temporal_cache[scale_name]
