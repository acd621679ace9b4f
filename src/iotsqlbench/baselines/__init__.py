"""Malicious-traffic baseline classifiers (stratified, uniform, forest, SVM)."""

from .classifiers import (
    KINDS,
    BaselineError,
    Hyperparams,
    SingleClass,
    predict,
    train,
)
from .features import (
    CATEGORICAL_FIELDS,
    NUMERIC_FIELDS,
    OPTIONAL_NUMERIC_FIELDS,
    DimensionMismatch,
    Empty,
    FeatureError,
    Featurizer,
    fit_featurizer,
)
from .forest import DecisionTree, RandomForest
from .persist import ModelFileError, load_model, save_model

__all__ = [
    "BaselineError",
    "CATEGORICAL_FIELDS",
    "DecisionTree",
    "DimensionMismatch",
    "Empty",
    "FeatureError",
    "Featurizer",
    "Hyperparams",
    "KINDS",
    "ModelFileError",
    "NUMERIC_FIELDS",
    "OPTIONAL_NUMERIC_FIELDS",
    "RandomForest",
    "SingleClass",
    "fit_featurizer",
    "load_model",
    "predict",
    "save_model",
    "train",
]
