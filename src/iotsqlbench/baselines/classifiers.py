"""The four baseline classifiers: stratified, uniform, random forest, SVM.

Stratified replays the training class proportions at random; uniform
flips a fair coin.  The linear SVM trains hinge loss by stochastic
subgradient descent on standardized numeric features.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .features import DimensionMismatch, Empty, Featurizer
from .forest import RandomForest, _child_seed

KINDS = ("stratified", "uniform", "random_forest", "linear_svm")


class BaselineError(Exception):
    pass


class SingleClass(BaselineError):
    """Forest and SVM need both classes present in training data."""


@dataclass
class Hyperparams:
    n_trees: int = 100
    max_depth: int = 16
    min_samples_split: int = 2
    forest_max_features: str | int | None = "sqrt"
    forest_bootstrap: bool = True
    svm_epochs: int = 10
    svm_lr: float = 0.01
    svm_l2: float = 1e-4


class StratifiedBaseline:
    """Draws malicious with the empirical training probability."""

    def __init__(self, p_malicious: float):
        self.p_malicious = p_malicious

    def predict(self, n: int, seed: int = 0) -> np.ndarray:
        rng = random.Random(seed)
        return np.array([rng.random() < self.p_malicious for _ in range(n)], dtype=bool)

    def state(self) -> dict:
        return {"p_malicious": self.p_malicious}

    @classmethod
    def from_state(cls, state: dict) -> "StratifiedBaseline":
        return cls(p_malicious=state["p_malicious"])


class UniformBaseline(StratifiedBaseline):
    """The stratified draw at ``p_malicious`` 0.5; it saves no parameters."""

    def __init__(self):
        super().__init__(p_malicious=0.5)

    def state(self) -> dict:
        return {}

    @classmethod
    def from_state(cls, state: dict) -> "UniformBaseline":
        return cls()


class LinearSVM:
    def __init__(self, epochs: int = 10, lr: float = 0.01, l2: float = 1e-4,
                 numeric_dims: list[int] | None = None, seed: int = 0):
        self.epochs = epochs
        self.lr = lr
        self.l2 = l2
        self.numeric_dims = list(numeric_dims or [])
        self.seed = seed
        self.w: np.ndarray | None = None
        self.b: float = 0.0
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None
        self.epoch_losses: list[float] = []

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        if not self.numeric_dims:
            return X
        X = X.copy()
        X[:, self.numeric_dims] = (X[:, self.numeric_dims] - self.mean) / self.std
        return X

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X = np.asarray(X, dtype=np.float64)
        signs = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
        if self.numeric_dims:
            cols = X[:, self.numeric_dims]
            self.mean = cols.mean(axis=0)
            self.std = cols.std(axis=0)
            self.std[self.std == 0] = 1.0
        Xs = self._standardize(X)
        n, d = Xs.shape
        self.w = np.zeros(d)
        self.b = 0.0
        self.epoch_losses = []
        for epoch in range(self.epochs):
            order = np.random.default_rng(_child_seed(self.seed, epoch)).permutation(n)
            for i in order:
                margin = signs[i] * (Xs[i] @ self.w + self.b)
                self.w *= 1.0 - self.lr * self.l2
                if margin < 1.0:
                    self.w += self.lr * signs[i] * Xs[i]
                    self.b += self.lr * signs[i]
            hinge = np.maximum(0.0, 1.0 - signs * (Xs @ self.w + self.b)).mean()
            self.epoch_losses.append(float(hinge + 0.5 * self.l2 * float(self.w @ self.w)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = self._standardize(np.asarray(X, dtype=np.float64))
        return (Xs @ self.w + self.b) > 0

    def state(self) -> dict:
        return {
            "epochs": self.epochs,
            "lr": self.lr,
            "l2": self.l2,
            "numeric_dims": self.numeric_dims,
            "seed": self.seed,
            "w": self.w.tolist(),
            "b": self.b,
            "mean": self.mean.tolist() if self.mean is not None else None,
            "std": self.std.tolist() if self.std is not None else None,
            "epoch_losses": self.epoch_losses,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LinearSVM":
        svm = cls(
            epochs=state["epochs"], lr=state["lr"], l2=state["l2"],
            numeric_dims=state["numeric_dims"], seed=state["seed"],
        )
        svm.w = np.array(state["w"])
        svm.b = state["b"]
        svm.mean = np.array(state["mean"]) if state["mean"] is not None else None
        svm.std = np.array(state["std"]) if state["std"] is not None else None
        svm.epoch_losses = list(state["epoch_losses"])
        return svm


@dataclass
class ClassifierModel:
    kind: str
    model: object
    n_dims: int
    featurizer: Featurizer | None = None
    hyperparams: Hyperparams = field(default_factory=Hyperparams)


def train(
    kind: str,
    features: np.ndarray,
    labels,
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
    featurizer: Featurizer | None = None,
) -> ClassifierModel:
    """Fit one baseline on a feature matrix and boolean labels."""
    if kind not in KINDS:
        raise BaselineError(f"unknown classifier kind {kind!r}")
    hp = hyperparams or Hyperparams()
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if len(X) == 0 or len(y) == 0:
        raise Empty("no training data")
    if len(X) != len(y):
        raise BaselineError(f"{len(X)} feature rows vs {len(y)} labels")
    if kind in ("random_forest", "linear_svm") and (y.all() or not y.any()):
        raise SingleClass(f"{kind} needs both classes in the training data")

    if kind == "stratified":
        model: object = StratifiedBaseline(p_malicious=float(y.mean()))
    elif kind == "uniform":
        model = UniformBaseline()
    elif kind == "random_forest":
        model = RandomForest(
            n_trees=hp.n_trees,
            max_depth=hp.max_depth,
            min_samples_split=hp.min_samples_split,
            max_features=hp.forest_max_features,
            bootstrap=hp.forest_bootstrap,
            seed=seed,
        ).fit(X, y)
    else:
        numeric_dims = featurizer.numeric_dims if featurizer is not None else list(range(X.shape[1]))
        model = LinearSVM(
            epochs=hp.svm_epochs, lr=hp.svm_lr, l2=hp.svm_l2,
            numeric_dims=numeric_dims, seed=seed,
        ).fit(X, y)
    return ClassifierModel(
        kind=kind, model=model, n_dims=X.shape[1], featurizer=featurizer, hyperparams=hp
    )


def predict(model: ClassifierModel, features: np.ndarray, seed: int = 0) -> np.ndarray:
    """Boolean malicious flag per row; seeded only for the random baselines."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_dims:
        raise DimensionMismatch(
            f"model expects {model.n_dims} feature dims, got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    if model.kind in ("stratified", "uniform"):
        return model.model.predict(len(X), seed=seed)
    return model.model.predict(X)
