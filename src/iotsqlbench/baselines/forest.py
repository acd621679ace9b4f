"""Decision tree and bagged random forest, built on numpy.

Trees split on gini impurity with exact threshold search over sorted
feature values.  The forest bootstraps rows per tree and subsamples
sqrt(d) candidate features per node; per-tree seeds derive from
(seed, tree index) so parallel and sequential training agree.  Labels
are binary: anything outside {0, 1} is a ValueError.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _child_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class DecisionTree:
    def __init__(
        self,
        max_depth: int = 16,
        min_samples_split: int = 2,
        max_features: int | None = None,  # None = all features
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        # parallel node arrays; children are -1 at leaves
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_value: list[int] = []

    def fit(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray | None = None) -> "DecisionTree":
        """Grow the tree on ``X[rows]``, ``y[rows]`` (all rows by default)
        without copying them out; ``rows`` may repeat a row."""
        X = np.asarray(X, dtype=np.float64)
        y = _binary_labels(y)
        rows = np.arange(len(y)) if rows is None else np.asarray(rows)
        rng = np.random.default_rng(self.seed)
        self._grow(X, y, rows, depth=0, rng=rng)
        return self

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_value.append(0)
        return len(self.feature) - 1

    def _grow(self, X, y, idx, depth, rng) -> int:
        node = self._new_node()
        labels = y[idx]
        positives = int(labels.sum())
        majority = int(positives * 2 > len(labels))
        self.leaf_value[node] = majority
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or positives == 0
            or positives == len(labels)
        ):
            return node
        split = self._best_split(X, y, idx, rng)
        if split is None:
            return node
        feat, thr = split
        mask = X[idx, feat] <= thr
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(X, y, left_idx, depth + 1, rng)
        self.right[node] = self._grow(X, y, right_idx, depth + 1, rng)
        return node

    def _best_split(self, X, y, idx, rng):
        n_features = X.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = np.sort(rng.choice(n_features, size=self.max_features, replace=False))
        positive_idx = idx[y[idx]]
        n = len(idx)
        total_pos = float(len(positive_idx))
        parent_gini = _gini(total_pos, n)
        best = None
        best_score = parent_gini - 1e-12  # require strict improvement
        for feat in candidates:
            v_sorted = np.sort(X[idx, feat])
            # split between distinct neighboring values lo < hi (NaN sorts
            # last and is never above its neighbour), at their midpoint when
            # it lies in [lo, hi), else at lo (an infinity, or a sum beyond
            # float range), so the rows left of a cut are exactly those <= it;
            # a zero cut is stored as 0.0, since np.sort may put -0.0 either
            # side of 0.0
            boundaries = np.nonzero(v_sorted[1:] > v_sorted[:-1])[0]
            if len(boundaries) == 0:
                continue
            n_left = boundaries + 1
            pos_left = np.searchsorted(
                np.sort(X[positive_idx, feat]), v_sorted[boundaries], side="right"
            ).astype(np.float64)
            n_right = n - n_left
            pos_right = total_pos - pos_left
            gini_left = 1.0 - (pos_left / n_left) ** 2 - (1 - pos_left / n_left) ** 2
            gini_right = 1.0 - (pos_right / n_right) ** 2 - (1 - pos_right / n_right) ** 2
            weighted = (n_left * gini_left + n_right * gini_right) / n
            j = int(np.argmin(weighted))
            if weighted[j] < best_score:
                best_score = float(weighted[j])
                lo, hi = float(v_sorted[boundaries[j]]), float(v_sorted[boundaries[j] + 1])
                mid = (lo + hi) / 2.0
                best = (int(feat), (mid if lo <= mid < hi else lo) + 0.0)
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Walks all rows down the tree together, one level per step: a row
        goes left when its value is <= the node's threshold (NaN goes right)."""
        X = np.asarray(X, dtype=np.float64)
        feature = np.asarray(self.feature, dtype=np.int64)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        left = np.asarray(self.left, dtype=np.int64)
        right = np.asarray(self.right, dtype=np.int64)
        node = np.zeros(len(X), dtype=np.int64)
        rows = np.arange(len(X))
        while len(rows):
            at = node[rows]
            feat = feature[at]
            inner = feat >= 0
            rows, at, feat = rows[inner], at[inner], feat[inner]
            node[rows] = np.where(X[rows, feat] <= threshold[at], left[at], right[at])
        return np.asarray(self.leaf_value, dtype=bool)[node]

    def state(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
            "seed": self.seed,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "leaf_value": self.leaf_value,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DecisionTree":
        tree = cls(
            max_depth=state["max_depth"],
            min_samples_split=state["min_samples_split"],
            max_features=state["max_features"],
            seed=state["seed"],
        )
        tree.feature = list(state["feature"])
        tree.threshold = list(state["threshold"])
        tree.left = list(state["left"])
        tree.right = list(state["right"])
        tree.leaf_value = list(state["leaf_value"])
        return tree


def _binary_labels(y) -> np.ndarray:
    """Labels as a bool array; a label outside {0, 1} is a ValueError."""
    y = np.asarray(y)
    if y.dtype != bool:
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1 (or bool)")
        y = y == 1
    return y


def _gini(pos: float, n: int) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class RandomForest:
    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 16,
        min_samples_split: int = 2,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees: list[DecisionTree] = []

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = _binary_labels(y)
        k = self._resolve_max_features(X.shape[1])
        self.trees = []
        for t in range(self.n_trees):
            tree_seed = _child_seed(self.seed, t)
            if self.bootstrap:
                rng = np.random.default_rng(_child_seed(self.seed, 10_000_019 + t))
                idx = rng.integers(0, len(y), size=len(y))
            else:
                idx = np.arange(len(y))
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=k,
                seed=tree_seed,
            )
            tree.fit(X, y, rows=idx)
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees:
            votes += tree.predict(X)
        # strict majority; ties go benign
        return votes * 2 > len(self.trees)

    def state(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "trees": [t.state() for t in self.trees],
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomForest":
        forest = cls(
            n_trees=state["n_trees"],
            max_depth=state["max_depth"],
            min_samples_split=state["min_samples_split"],
            max_features=state["max_features"],
            bootstrap=state["bootstrap"],
            seed=state["seed"],
        )
        forest.trees = [DecisionTree.from_state(s) for s in state["trees"]]
        return forest
