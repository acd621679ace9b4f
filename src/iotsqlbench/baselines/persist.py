"""Versioned model save/load (JSON).

The file carries the featurizer state and feature names alongside the
learned parameters, so a saved model documents its own reconstruction of
the feature set.
"""

from __future__ import annotations

import json

from .classifiers import (
    ClassifierModel,
    Hyperparams,
    LinearSVM,
    StratifiedBaseline,
    UniformBaseline,
)
from .features import Featurizer
from .forest import RandomForest

FORMAT_VERSION = 1
# the class of each model kind; each saves its learned parameters as
# ``state()`` and is rebuilt from them by ``from_state``
_MODEL_CLASSES = {
    "stratified": StratifiedBaseline,
    "uniform": UniformBaseline,
    "random_forest": RandomForest,
    "linear_svm": LinearSVM,
}


class ModelFileError(Exception):
    pass


def save_model(model: ClassifierModel, path) -> None:
    if model.kind not in _MODEL_CLASSES:
        raise ModelFileError(f"unknown kind {model.kind!r}")
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "n_dims": model.n_dims,
        "hyperparams": vars(model.hyperparams),
        "featurizer": model.featurizer.state() if model.featurizer else None,
        "feature_names": model.featurizer.feature_names if model.featurizer else None,
        "expanded_names": model.featurizer.expanded_names if model.featurizer else None,
        "params": model.model.state(),
    }
    # json.dumps takes the C encoder; json.dump always takes the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path) -> ClassifierModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"unsupported model format version {version!r}")
    kind = payload["kind"]
    if kind not in _MODEL_CLASSES:
        raise ModelFileError(f"unknown kind {kind!r}")
    model = _MODEL_CLASSES[kind].from_state(payload["params"])
    featurizer = Featurizer.from_state(payload["featurizer"]) if payload.get("featurizer") else None
    return ClassifierModel(
        kind=kind,
        model=model,
        n_dims=payload["n_dims"],
        featurizer=featurizer,
        hyperparams=Hyperparams(**payload["hyperparams"]),
    )
