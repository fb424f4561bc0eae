"""A measurement cell: a seeded world of honest stores, a sheriff, users.

The unit every mesh worker process serves — built by one function, so
the same seed gives the same stores, URL roster and rows everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.core.addon import SheriffAddon
from repro.core.config import SheriffConfig, knob
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.stores import build_named_stores, uniform_store_specs

__all__ = ["Cell", "CellConfig", "USER_COUNTRIES", "build_cell"]

#: countries users are drawn from (round robin), a coarse cut of the
#: deployment's geography (Sect. 6.1)
USER_COUNTRIES: Tuple[str, ...] = ("ES", "US", "GB", "DE", "FR", "JP", "CA", "IT")


@dataclass
class CellConfig(SheriffConfig):
    """The deployment knobs plus the seeded world they run over."""

    max_fetch_workers: int = 16
    seed: int = 2017
    n_stores: int = knob(8, ge=1)


class Cell(NamedTuple):
    world: SheriffWorld
    sheriff: PriceSheriff
    #: every product URL of every store, in roster order
    urls: List[str]
    addons: List[SheriffAddon]


def build_cell(config: CellConfig, n_users: int) -> Cell:
    """A fresh seeded world + sheriff + product URL roster + ``n_users``
    add-ons rotating through :data:`USER_COUNTRIES`."""
    world = SheriffWorld.create(seed=config.seed)
    specs = uniform_store_specs(config.n_stores, seed=config.seed + 3)
    stores = build_named_stores(world, specs)
    sheriff = PriceSheriff(world, config)
    urls = [
        stores[spec.domain].product_url(product.product_id)
        for spec in specs
        for product in stores[spec.domain].catalog.products
    ]
    addons = [
        sheriff.install_addon(
            world.make_browser(USER_COUNTRIES[i % len(USER_COUNTRIES)])
        )
        for i in range(n_users)
    ]
    return Cell(world, sheriff, urls, addons)
