"""The statistical machinery of Sect. 7.5.

The paper's argument that the within-country variations are A/B testing
rather than PDI-PD combines four analyses:

1. **pairwise Kolmogorov–Smirnov tests** between measurement points'
   price distributions — D values ≥ 0.3 with p-values above 0.55 mean
   every point draws from the same distribution;
2. an approximately **50 % probability** for any point to see the higher
   price;
3. **linear / multi-linear regression** of price on OS, browser,
   time-of-day quarter, and weekday — a weak fit (R² ≈ 0.43) with no
   significant feature;
4. a **random forest** whose feature importances are uniformly low.

scikit-learn is not available offline, so the random forest (CART
regression trees, bootstrap sampling, feature subsampling, impurity
importances) and ROC-AUC are implemented here from scratch; the KS test
and t-distribution come from scipy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as sps


# -- Kolmogorov–Smirnov ------------------------------------------------------

def ks_pairwise(
    samples: Dict[str, Sequence[float]]
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """KS test for every pair of measurement points.

    Returns ``{(a, b): (D, p)}`` for a < b.  Points with fewer than two
    observations are skipped.
    """
    keys = sorted(k for k, v in samples.items() if len(v) >= 2)
    out: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            result = sps.ks_2samp(samples[a], samples[b])
            out[(a, b)] = (float(result.statistic), float(result.pvalue))
    return out


def probability_higher(samples: Dict[str, Sequence[float]]) -> Dict[str, float]:
    """Per point: fraction of its observations above the global median."""
    pooled = [v for values in samples.values() for v in values]
    if not pooled:
        return {}
    median = float(np.median(pooled))
    return {
        key: float(np.mean([v > median for v in values])) if len(values) else 0.0
        for key, values in samples.items()
    }


# -- regression ------------------------------------------------------------------

@dataclass
class RegressionResult:
    """OLS fit with per-feature significance."""

    feature_names: List[str]
    coefficients: np.ndarray  # includes intercept at index 0
    r_squared: float
    p_values: Dict[str, float]  # per feature (excluding intercept)

    def significant_features(self, alpha: float = 0.05) -> List[str]:
        return [f for f, p in self.p_values.items() if p < alpha]


def linear_regression(
    X: Sequence[Sequence[float]],
    y: Sequence[float],
    feature_names: Optional[Sequence[str]] = None,
) -> RegressionResult:
    """Ordinary least squares with t-test p-values per coefficient."""
    Xm = np.asarray(X, dtype=float)
    if Xm.ndim == 1:
        Xm = Xm[:, None]
    yv = np.asarray(y, dtype=float)
    n, k = Xm.shape
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(k)]
    if len(feature_names) != k:
        raise ValueError("feature_names length mismatch")
    A = np.column_stack([np.ones(n), Xm])
    coef, *_ = np.linalg.lstsq(A, yv, rcond=None)
    fitted = A @ coef
    residuals = yv - fitted
    ss_res = float(residuals @ residuals)
    ss_tot = float(((yv - yv.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot

    dof = max(1, n - k - 1)
    sigma2 = ss_res / dof
    try:
        cov = sigma2 * np.linalg.inv(A.T @ A)
        se = np.sqrt(np.maximum(np.diag(cov), 1e-30))
        t_stats = coef / se
        p_all = 2.0 * sps.t.sf(np.abs(t_stats), dof)
    except np.linalg.LinAlgError:
        p_all = np.ones(k + 1)
    p_values = {name: float(p_all[i + 1]) for i, name in enumerate(feature_names)}
    return RegressionResult(
        feature_names=list(feature_names),
        coefficients=coef,
        r_squared=float(r_squared),
        p_values=p_values,
    )


# -- random forest (from scratch; sklearn is unavailable offline) -----------

@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _RegressionTree:
    """CART regression tree with variance-reduction splits."""

    def __init__(self, max_depth: int, min_samples: int, max_features: int,
                 rng: random.Random) -> None:
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.max_features = max_features
        self._rng = rng
        self.root: Optional[_TreeNode] = None
        self.importances: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.importances = np.zeros(X.shape[1])
        self.root = self._build(X, y, depth=0)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < self.min_samples or np.all(y == y[0]):
            return node
        n_features = X.shape[1]
        candidates = self._rng.sample(
            range(n_features), min(self.max_features, n_features)
        )
        best = None  # (gain, feature, threshold, mask)
        parent_impurity = float(y.var()) * len(y)
        for feature in candidates:
            values = np.unique(X[:, feature])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                mask = X[:, feature] <= threshold
                n_left = int(mask.sum())
                if n_left == 0 or n_left == len(y):
                    continue
                impurity = float(y[mask].var()) * n_left + float(
                    y[~mask].var()
                ) * (len(y) - n_left)
                gain = parent_impurity - impurity
                if best is None or gain > best[0]:
                    best = (gain, feature, threshold, mask)
        if best is None or best[0] <= 1e-12:
            return node
        gain, feature, threshold, mask = best
        self.importances[feature] += gain
        node.feature = feature
        node.threshold = float(threshold)
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def predict_one(self, x: np.ndarray) -> float:
        node = self.root
        assert node is not None
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value


class RandomForest:
    """Bootstrap ensemble of regression trees with impurity importances."""

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 6,
        min_samples: int = 4,
        max_features: Optional[int] = None,
        seed: int = 2017,
    ) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.max_features = max_features
        self.seed = seed
        self._trees: List[_RegressionTree] = []
        self.feature_importances_: Optional[np.ndarray] = None

    def fit(self, X: Sequence[Sequence[float]], y: Sequence[float]) -> "RandomForest":
        Xm = np.asarray(X, dtype=float)
        yv = np.asarray(y, dtype=float)
        n, k = Xm.shape
        max_features = self.max_features or max(1, int(math.sqrt(k)))
        rng = random.Random(self.seed)
        self._trees = []
        importances = np.zeros(k)
        for _ in range(self.n_trees):
            idx = [rng.randrange(n) for _ in range(n)]
            tree = _RegressionTree(
                max_depth=self.max_depth, min_samples=self.min_samples,
                max_features=max_features, rng=rng,
            )
            tree.fit(Xm[idx], yv[idx])
            self._trees.append(tree)
            importances += tree.importances
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def predict(self, X: Sequence[Sequence[float]]) -> np.ndarray:
        Xm = np.asarray(X, dtype=float)
        if not self._trees:
            raise RuntimeError("forest not fitted")
        preds = np.zeros(Xm.shape[0])
        for tree in self._trees:
            preds += np.array([tree.predict_one(x) for x in Xm])
        return preds / len(self._trees)

    def score(self, X: Sequence[Sequence[float]], y: Sequence[float]) -> float:
        """R² on the given data."""
        yv = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = float(((yv - pred) ** 2).sum())
        ss_tot = float(((yv - yv.mean()) ** 2).sum())
        return 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


# -- the combined Sect. 7.5 verdict -------------------------------------------

#: a KS pair rejects "same distribution" below this p-value (Bonferroni
#: corrected over the pairs)
KS_P_THRESHOLD = 0.05
#: a regression feature is significant below this p-value, and is
#: evidence only when the regression explains this much of the prices
REGRESSION_ALPHA = 0.01
REGRESSION_R2_FLOOR = 0.3


@dataclass
class ABTestVerdict:
    """Outcome of the A/B-vs-PDI-PD decision procedure."""

    min_ks_p: Optional[float]
    n_ks_pairs: int
    higher_price_probabilities: Dict[str, float]
    regression_r2: float
    significant_features: List[str]
    forest_max_importance: Optional[float]
    is_ab_testing: bool


def ab_test_verdict(
    samples: Dict[str, Sequence[float]],
    features: Optional[Sequence[Sequence[float]]] = None,
    prices: Optional[Sequence[float]] = None,
    feature_names: Optional[Sequence[str]] = None,
) -> ABTestVerdict:
    """Combine the Sect. 7.5 analyses into one verdict.

    ``samples`` maps measurement point → observed prices (normalized per
    product, e.g. relative differences).  ``features``/``prices`` supply
    the per-observation regression/forest inputs when available.

    The verdict is A/B testing when (a) no KS pair rejects the
    same-distribution hypothesis, (b) no regression feature is
    significant, and (c) no forest feature dominates.
    """
    ks = ks_pairwise(samples)
    min_p = min((p for _, p in ks.values()), default=None)
    prob_higher = probability_higher(samples)

    r2 = 0.0
    significant: List[str] = []
    forest_max = None
    forest_score = None
    n_features = 0
    if features is not None and prices is not None and len(prices) >= 8:
        regression = linear_regression(features, prices, feature_names)
        r2 = regression.r_squared
        significant = regression.significant_features(alpha=REGRESSION_ALPHA)
        forest = RandomForest(n_trees=20, max_depth=5).fit(features, prices)
        assert forest.feature_importances_ is not None
        n_features = len(forest.feature_importances_)
        forest_max = (
            float(forest.feature_importances_.max()) if n_features else None
        )
        forest_score = forest.score(features, prices)

    # Bonferroni: with dozens of pairwise KS tests the minimum p-value is
    # small under the null; correct the rejection threshold accordingly
    effective_ks_threshold = KS_P_THRESHOLD / max(1, len(ks))
    distributions_agree = min_p is None or min_p > effective_ks_threshold
    # a regression feature only counts as discrimination evidence when it
    # is both significant and actually explains the prices
    feature_evidence = bool(significant) and r2 >= REGRESSION_R2_FLOOR
    # a "dominant" forest feature is evidence only when the forest truly
    # explains the prices; importances concentrate arbitrarily on noise
    if forest_max is None or n_features == 0 or forest_score is None:
        forest_evidence = False
    else:
        dominance_threshold = min(0.9, max(0.35, 2.5 / n_features))
        forest_evidence = (
            forest_max >= dominance_threshold and forest_score >= 0.3
        )
    is_ab = distributions_agree and not feature_evidence and not forest_evidence
    return ABTestVerdict(
        min_ks_p=min_p,
        n_ks_pairs=len(ks),
        higher_price_probabilities=prob_higher,
        regression_r2=r2,
        significant_features=significant,
        forest_max_importance=forest_max,
        is_ab_testing=is_ab,
    )
