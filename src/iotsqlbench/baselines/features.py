"""Feature extraction for the traffic classifiers.

Identifier columns (ts, uid, orig_h, resp_h, tunnel_parents) never
contribute features.  Numeric columns pass through (unset becomes 0 plus
a presence flag); categorical columns are one-hot over a training-time
vocabulary with an explicit "other" slot for unseen values.  Records are
read as the columns of a ``ConnTable``, and the matrix is filled a column
at a time: one pass per numeric column, and for each categorical
column a dict lookup per value and one assignment of its one-hot slots.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..ingest.records import ConnTable


class FeatureError(Exception):
    pass


class Empty(FeatureError):
    pass


class DimensionMismatch(FeatureError):
    pass


NUMERIC_FIELDS = (
    "duration", "orig_bytes", "resp_bytes", "missed_bytes", "orig_pkts",
    "orig_ip_bytes", "resp_pkts", "resp_ip_bytes", "orig_p", "resp_p",
)
OPTIONAL_NUMERIC_FIELDS = ("duration", "orig_bytes", "resp_bytes")
CATEGORICAL_FIELDS = ("proto", "service", "conn_state", "history", "local_orig", "local_resp")

DEFAULT_VOCAB_BUDGET = {
    "proto": 8,
    "service": 12,
    "conn_state": 16,
    "history": 24,
    "local_orig": 4,
    "local_resp": 4,
}

OTHER = "<other>"


def _categorical_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "T" if value else "F"
    return str(value)


class Featurizer:
    """Frozen vocabularies from training data; pure transform afterwards."""

    def __init__(self, vocab_budget: dict | None = None):
        self.vocab_budget = dict(DEFAULT_VOCAB_BUDGET)
        if vocab_budget:
            self.vocab_budget.update(vocab_budget)
        self.vocab: dict[str, list[str]] = {}
        self._fitted = False

    def fit(self, records: ConnTable) -> "Featurizer":
        if not records:
            raise Empty("cannot fit a featurizer on zero records")
        for name in CATEGORICAL_FIELDS:
            counts = Counter(map(_categorical_text, records.columns[name]))
            budget = self.vocab_budget[name]
            ranked = sorted(counts, key=lambda v: (-counts[v], v))[:budget]
            self.vocab[name] = sorted(ranked)
        self._fitted = True
        return self

    # -- descriptive surface

    @property
    def feature_names(self) -> list[str]:
        """The named features (numerics, presence flags, categoricals)."""
        names = list(NUMERIC_FIELDS)
        names += [f"{f}_present" for f in OPTIONAL_NUMERIC_FIELDS]
        names += list(CATEGORICAL_FIELDS)
        return names

    @property
    def expanded_names(self) -> list[str]:
        """Column names of the numeric matrix (one-hot slots expanded)."""
        self._require_fitted()
        names = list(NUMERIC_FIELDS)
        names += [f"{f}_present" for f in OPTIONAL_NUMERIC_FIELDS]
        for field in CATEGORICAL_FIELDS:
            names += [f"{field}={v}" for v in self.vocab[field]]
            names.append(f"{field}={OTHER}")
        return names

    @property
    def n_dims(self) -> int:
        self._require_fitted()
        base = len(NUMERIC_FIELDS) + len(OPTIONAL_NUMERIC_FIELDS)
        return base + sum(len(self.vocab[f]) + 1 for f in CATEGORICAL_FIELDS)

    @property
    def numeric_dims(self) -> list[int]:
        return list(range(len(NUMERIC_FIELDS)))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise FeatureError("featurizer is not fitted")

    def transform(self, records: ConnTable) -> np.ndarray:
        """The feature matrix, one row per record, filled a column at a time."""
        self._require_fitted()
        columns = records.columns
        n = len(records)
        X = np.zeros((n, self.n_dims), dtype=np.float64)
        rows = np.arange(n)
        col = 0
        for name in NUMERIC_FIELDS:
            X[:, col] = [0.0 if value is None else value for value in columns[name]]
            col += 1
        for name in OPTIONAL_NUMERIC_FIELDS:
            X[:, col] = [value is not None for value in columns[name]]
            col += 1
        for name in CATEGORICAL_FIELDS:
            vocab = self.vocab[name]
            # the first slot of each value, as vocab.index gives it
            slot_of = {text: slot for slot, text in reversed(list(enumerate(vocab)))}
            other = len(vocab)
            texts = map(_categorical_text, columns[name])
            X[rows, [col + slot_of.get(text, other) for text in texts]] = 1.0
            col += other + 1
        return X

    def state(self) -> dict:
        self._require_fitted()
        return {"vocab_budget": self.vocab_budget, "vocab": self.vocab}

    @classmethod
    def from_state(cls, state: dict) -> "Featurizer":
        out = cls(vocab_budget=state["vocab_budget"])
        out.vocab = {k: list(v) for k, v in state["vocab"].items()}
        out._fitted = True
        return out


def fit_featurizer(records: ConnTable, vocab_budget: dict | None = None) -> Featurizer:
    return Featurizer(vocab_budget=vocab_budget).fit(records)
