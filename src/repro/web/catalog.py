"""Product catalogs for the simulated e-stores.

Categories and price ranges mirror the inventory mix the paper reports
("clothing, digital/electronics, travel, bookstores, art/gallery,
bicycles, etc." — Sect. 6.2), including a handful of named flagship
products that anchor specific findings:

* the Phase One IQ280 digital camera (~€34.5k in Europe, the >€10k
  cross-border difference of Sect. 6.2),
* the five representative jcpenney.com products of Fig. 14 (refrigerator,
  Whipped Mud Mask, shaving cream, 3-seat sofa, leather bag),
* chegg.com textbook rentals in the €10–€100 band (Sect. 7.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Product:
    """One product carried by a store."""

    product_id: str
    name: str
    category: str
    base_price_eur: float
    popularity: float = 1.0  # relative visit weight


#: category → (min €, max €) price band.
CATEGORY_PRICE_BANDS: Dict[str, Tuple[float, float]] = {
    "clothing": (15.0, 900.0),
    "electronics": (40.0, 3500.0),
    "pro-photo": (8000.0, 50000.0),
    "books": (8.0, 120.0),
    "games": (5.0, 70.0),
    "cosmetics": (6.0, 90.0),
    "furniture": (120.0, 2500.0),
    "jewelry": (50.0, 5000.0),
    "household": (10.0, 1500.0),
    "accessories": (20.0, 1500.0),
    "travel": (60.0, 2000.0),
    "bicycles": (150.0, 4000.0),
    "art": (100.0, 20000.0),
}

_ADJECTIVES = [
    "Classic", "Premium", "Urban", "Vintage", "Modern", "Deluxe", "Compact",
    "Signature", "Essential", "Limited", "Studio", "Heritage",
]
_NOUNS: Dict[str, Sequence[str]] = {
    "clothing": ("Blazer", "Jacket", "Dress", "Suit", "Coat", "Jeans", "Shirt"),
    "electronics": ("Camera", "Laptop", "Headphones", "Monitor", "Tablet", "Speaker"),
    "pro-photo": ("Medium Format Back", "Cine Lens", "Studio Body"),
    "books": ("Textbook", "Novel", "Atlas", "Handbook", "Anthology"),
    "games": ("Strategy Game", "RPG", "Simulator", "Puzzle Game"),
    "cosmetics": ("Mud Mask", "Shaving Cream", "Serum", "Face Cream", "Perfume"),
    "furniture": ("Sofa", "Armchair", "Bookshelf", "Dining Table", "Bed Frame"),
    "jewelry": ("Necklace", "Watch", "Bracelet", "Ring", "Earrings"),
    "household": ("Refrigerator", "Vacuum", "Blender", "Coffee Maker", "Washer"),
    "accessories": ("Leather Bag", "Wallet", "Belt", "Scarf", "Sunglasses"),
    "travel": ("Suitcase", "Backpack", "Travel Kit", "Duffel"),
    "bicycles": ("Road Bike", "Mountain Bike", "Commuter Bike"),
    "art": ("Print", "Sculpture", "Canvas", "Lithograph"),
}


class Catalog:
    """An ordered collection of products with weighted sampling."""

    def __init__(self, products: Sequence[Product]) -> None:
        self._products: List[Product] = list(products)
        self._by_id = {p.product_id: p for p in self._products}
        if len(self._by_id) != len(self._products):
            raise ValueError("duplicate product ids in catalog")

    def __len__(self) -> int:
        return len(self._products)

    def __iter__(self):
        return iter(self._products)

    def get(self, product_id: str) -> Optional[Product]:
        return self._by_id.get(product_id)

    @property
    def products(self) -> List[Product]:
        return list(self._products)

    def sample(self, rng: random.Random, n: int) -> List[Product]:
        """Sample n distinct products weighted by popularity."""
        if n > len(self._products):
            raise ValueError(f"cannot sample {n} from {len(self._products)} products")
        pool = list(self._products)
        chosen: List[Product] = []
        for _ in range(n):
            weights = [p.popularity for p in pool]
            pick = rng.choices(range(len(pool)), weights=weights, k=1)[0]
            chosen.append(pool.pop(pick))
        return chosen


def make_catalog(
    domain: str,
    size: int,
    rng: random.Random,
    categories: Optional[Sequence[str]] = None,
    flagship: Sequence[Product] = (),
) -> Catalog:
    """Generate a deterministic catalog for a store.

    ``flagship`` products are prepended verbatim; the rest are drawn from
    the requested categories with log-uniform prices inside each
    category's band.
    """
    if categories is None:
        categories = list(CATEGORY_PRICE_BANDS)
    products: List[Product] = list(flagship)
    used = {p.product_id for p in products}
    i = 0
    while len(products) < size + len(flagship):
        category = rng.choice(list(categories))
        lo, hi = CATEGORY_PRICE_BANDS[category]
        # log-uniform keeps cheap products common and €10k+ ones rare,
        # matching the product-price spectrum of Fig. 10.
        import math

        price = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        name = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS[category])}"
        product_id = f"{domain.split('.')[0]}-{i:04d}"
        i += 1
        if product_id in used:
            continue
        used.add(product_id)
        products.append(
            Product(
                product_id=product_id,
                name=name,
                category=category,
                base_price_eur=round(price, 2),
                popularity=rng.paretovariate(1.5),
            )
        )
    return Catalog(products)


def flagship_products() -> Dict[str, Product]:
    """The named products the paper's findings hang on."""
    return {
        "iq280": Product(
            product_id="digitalrev-iq280",
            name="Phase One IQ280 Digital Back",
            category="pro-photo",
            base_price_eur=34500.0,
            popularity=0.2,
        ),
        "refrigerator": Product(
            product_id="jcp-refrigerator",
            name="4-Door French Refrigerator",
            category="household",
            base_price_eur=1390.0,
        ),
        "mud-mask": Product(
            product_id="jcp-mud-mask",
            name="Whipped Mud Mask",
            category="cosmetics",
            base_price_eur=34.0,
        ),
        "shaving-cream": Product(
            product_id="jcp-shaving-cream",
            name="Men Shaving Cream",
            category="cosmetics",
            base_price_eur=18.0,
        ),
        "sofa": Product(
            product_id="jcp-sofa",
            name="3-Seat Living Room Sofa",
            category="furniture",
            base_price_eur=820.0,
        ),
        "leather-bag": Product(
            product_id="jcp-leather-bag",
            name="Leather Bag",
            category="accessories",
            base_price_eur=210.0,
        ),
    }
