import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.baselines import (
    CATEGORICAL_FIELDS,
    NUMERIC_FIELDS,
    OPTIONAL_NUMERIC_FIELDS,
    DecisionTree,
    DimensionMismatch,
    Empty,
    Featurizer,
    Hyperparams,
    RandomForest,
    SingleClass,
    fit_featurizer,
    load_model,
    predict,
    save_model,
    train,
)
from iotsqlbench.baselines.forest import _child_seed, _gini
from iotsqlbench.evaluation import detection_metrics
from iotsqlbench.ingest import ConnTable
from tests.conftest import conn_records


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(11)
    n = 500
    benign = rng.normal(0.0, 1.0, size=(n, 3))
    malicious = rng.normal(5.0, 1.0, size=(n, 3))
    X = np.vstack([benign, malicious])
    y = np.array([False] * n + [True] * n)
    return X, y


def _conn(synth_data, start, stop):
    """Rows start..stop of the synthetic conn table, as a table."""
    return synth_data["conn"].take(list(range(start, stop)))


def test_featurizer_vocab_width(synth_data):
    records = [r for r in conn_records(synth_data["conn"]) if r.proto in ("tcp", "udp")][:200]
    feat = fit_featurizer(ConnTable.of(records))
    # tcp, udp observed -> one-hot width 3 including the "other" slot
    assert len(feat.vocab["proto"]) == 2
    proto_cols = [name for name in feat.expanded_names if name.startswith("proto=")]
    assert len(proto_cols) == 3 and "proto=<other>" in proto_cols


def test_featurizer_excludes_identifiers(synth_data):
    feat = fit_featurizer(_conn(synth_data, 0, 100))
    for banned in ("ts", "uid", "orig_h", "resp_h", "tunnel_parents"):
        assert not any(banned == n or n.startswith(banned + "=") for n in feat.expanded_names)
    assert len(feat.feature_names) == 19


def test_featurizer_refit_identical(synth_data):
    records = _conn(synth_data, 0, 150)
    a = fit_featurizer(records)
    b = fit_featurizer(records)
    assert a.vocab == b.vocab and a.n_dims == b.n_dims
    assert np.array_equal(a.transform(records), b.transform(records))


def test_featurizer_unseen_category_goes_to_other(synth_data):
    records = _conn(synth_data, 0, 100)
    feat = fit_featurizer(records)
    weird = conn_records(records)[0]._replace(proto="sctp")
    X = feat.transform(ConnTable.of([weird]))
    other_col = feat.expanded_names.index("proto=<other>")
    assert X[0, other_col] == 1.0


def test_featurizer_presence_flags(synth_data):
    records = _conn(synth_data, 0, 50)
    feat = fit_featurizer(records)
    with_duration = next(r for r in conn_records(records) if r.duration is not None)
    unset = with_duration._replace(duration=None)
    X = feat.transform(ConnTable.of([with_duration, unset]))
    dur_col = feat.expanded_names.index("duration")
    flag_col = feat.expanded_names.index("duration_present")
    assert X[1, dur_col] == 0.0 and X[1, flag_col] == 0.0
    assert X[0, flag_col] == 1.0


def test_featurizer_empty():
    with pytest.raises(Empty):
        Featurizer().fit([])


def test_train_errors(separable):
    X, y = separable
    with pytest.raises(Empty):
        train("stratified", X[:0], y[:0])
    with pytest.raises(SingleClass):
        train("random_forest", X[:10], np.ones(10, dtype=bool))
    with pytest.raises(SingleClass):
        train("linear_svm", X[:10], np.zeros(10, dtype=bool))
    # random baselines tolerate a single class
    train("stratified", X[:10], np.ones(10, dtype=bool))


def test_stratified_monte_carlo(separable):
    X, _ = separable
    y = np.array([True] * 40 + [False] * 60)
    model = train("stratified", X[:100], y, seed=0)
    draws = predict(model, np.zeros((10_000, X.shape[1])), seed=42)
    assert draws.mean() == pytest.approx(0.4, abs=0.02)


def test_uniform_monte_carlo(separable):
    X, y = separable
    model = train("uniform", X[:10], y[:10], seed=0)
    draws = predict(model, np.zeros((10_000, X.shape[1])), seed=7)
    assert draws.mean() == pytest.approx(0.5, abs=0.02)


def test_random_predictions_deterministic_per_seed(separable):
    X, y = separable
    model = train("stratified", X, y, seed=0)
    a = predict(model, X[:500], seed=3)
    b = predict(model, X[:500], seed=3)
    c = predict(model, X[:500], seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forest_separable_training_accuracy(separable):
    X, y = separable
    model = train("random_forest", X, y, hyperparams=Hyperparams(n_trees=30), seed=1)
    assert (predict(model, X) == y).mean() >= 0.99


def test_svm_decision_rule():
    svm_model = train(
        "linear_svm",
        np.array([[0.0, 1.0], [1.0, 0.0]] * 20),
        np.array([True, False] * 20),
        seed=2,
    )
    svm = svm_model.model
    x = np.array([[0.0, 1.0]])
    margin = (svm._standardize(x) @ svm.w + svm.b)[0]
    assert (margin > 0) == predict(svm_model, x)[0]


def test_svm_training_log(separable):
    X, y = separable
    model = train("linear_svm", X, y, hyperparams=Hyperparams(svm_epochs=5), seed=0)
    assert len(model.model.epoch_losses) == 5
    assert model.model.epoch_losses[-1] <= model.model.epoch_losses[0]


def test_forest_majority_vote():
    X = np.array([[0.0], [1.0]])
    forest = RandomForest(n_trees=5, seed=0)
    forest.fit(np.array([[0.0], [0.1], [0.9], [1.0]]), np.array([0, 0, 1, 1]))
    votes = sum(tree.predict(X).astype(int) for tree in forest.trees)
    expected = votes * 2 > len(forest.trees)
    assert np.array_equal(forest.predict(X), expected)


def test_forest_one_tree_equals_single_tree(separable):
    X, y = separable
    hp = Hyperparams(n_trees=1, forest_bootstrap=False, forest_max_features=None)
    forest_model = train("random_forest", X, y, hyperparams=hp, seed=9)
    tree = DecisionTree(max_depth=hp.max_depth, min_samples_split=hp.min_samples_split,
                        max_features=None, seed=_child_seed(9, 0)).fit(X, y)
    on = np.vstack([X, np.random.default_rng(0).normal(2.5, 2.0, size=(100, 3))])
    assert np.array_equal(predict(forest_model, on), tree.predict(on))


def test_dimension_mismatch(separable):
    X, y = separable
    model = train("random_forest", X, y, hyperparams=Hyperparams(n_trees=5), seed=0)
    with pytest.raises(DimensionMismatch):
        predict(model, X[:, :2])


def test_forest_and_svm_beat_random_baselines(separable):
    X, y = separable
    golds = list(y)
    scores = {}
    for kind in ("stratified", "uniform", "random_forest", "linear_svm"):
        hp = Hyperparams(n_trees=20)
        model = train(kind, X, y, hyperparams=hp, seed=5)
        preds = list(predict(model, X, seed=17))
        scores[kind] = detection_metrics(golds, preds).macro_f1
    assert scores["random_forest"] >= scores["stratified"] + 0.2
    assert scores["random_forest"] >= scores["uniform"] + 0.2
    assert scores["linear_svm"] >= scores["stratified"] + 0.2
    assert scores["linear_svm"] >= scores["uniform"] + 0.2


def test_save_load_round_trip(tmp_path, separable):
    X, y = separable
    for kind in ("stratified", "uniform", "random_forest", "linear_svm"):
        hp = Hyperparams(n_trees=5)
        model = train(kind, X, y, hyperparams=hp, seed=3)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        again = load_model(path)
        assert again.kind == kind
        assert np.array_equal(predict(again, X[:50], seed=1), predict(model, X[:50], seed=1))


def test_model_file_reports_feature_names(tmp_path, synth_data):
    import json

    records = _conn(synth_data, 0, 200)
    feat = fit_featurizer(records)
    X = feat.transform(records)
    y = [label.is_malicious for label in records.columns["label"]]
    model = train("random_forest", X, y, hyperparams=Hyperparams(n_trees=5), seed=0, featurizer=feat)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["feature_names"] == feat.feature_names
    assert len(payload["feature_names"]) == 19


def _predict_row_by_row(tree, X):
    """Reference: one row at a time down the node arrays."""
    out = np.zeros(len(X), dtype=bool)
    for i, row in enumerate(np.asarray(X, dtype=np.float64)):
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = bool(tree.leaf_value[node])
    return out


def test_tree_predict_matches_row_by_row_traversal(separable):
    X, y = separable
    forest = RandomForest(n_trees=15, max_depth=6, seed=5).fit(X[::3], y[::3])
    rng = np.random.default_rng(2)
    probes = [X, rng.normal(2.5, 3.0, size=(300, 3))]
    for tree in forest.trees:
        inner = [n for n, f in enumerate(tree.feature) if f >= 0]
        # rows sitting exactly on each threshold (<= goes left), and NaN (goes right)
        on_threshold = X[:len(inner)].copy()
        for row, node in enumerate(inner):
            on_threshold[row, tree.feature[node]] = tree.threshold[node]
        with_nan = X[:40].copy()
        with_nan[::2, 0] = np.nan
        with_nan[1::3, 2] = np.nan
        for probe in probes + [on_threshold, with_nan, np.empty((0, 3))]:
            got = tree.predict(probe)
            assert got.dtype == bool and got.shape == (len(probe),)
            assert np.array_equal(got, _predict_row_by_row(tree, probe))
    assert forest.predict(np.empty((0, 3))).shape == (0,)


def test_tree_predict_single_leaf_and_threshold_edges():
    tree = DecisionTree.from_state({
        "max_depth": 2, "min_samples_split": 2, "max_features": None, "seed": 0,
        "feature": [1, -1, 0, -1, -1], "threshold": [0.5, 0.0, -1.0, 0.0, 0.0],
        "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1],
        "leaf_value": [0, 1, 0, 0, 1],
    })
    X = np.array([
        [0.0, 0.5],          # on the root threshold: left leaf
        [-1.0, 0.6],         # right, then on the second threshold: left leaf
        [-0.9, 0.6],         # right, right
        [np.nan, 0.6],       # NaN goes right
        [0.0, np.nan],       # NaN at the root goes right, then 0.0 > -1.0
        [np.inf, -np.inf],
    ])
    assert tree.predict(X).tolist() == [True, False, True, True, True, True]
    assert np.array_equal(tree.predict(X), _predict_row_by_row(tree, X))
    leaf = DecisionTree.from_state({
        "max_depth": 1, "min_samples_split": 2, "max_features": None, "seed": 0,
        "feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "leaf_value": [1],
    })
    assert leaf.predict(X).tolist() == [True] * len(X)
    assert leaf.predict(np.empty((0, 2))).tolist() == []


# ---------------------------------------------------------------------------
# Featurizer.transform against a row-by-row reference


def _transform_row_by_row(feat, records):
    X = np.zeros((len(records), feat.n_dims), dtype=np.float64)
    for i, r in enumerate(records):
        col = 0
        for name in NUMERIC_FIELDS:
            value = getattr(r, name)
            X[i, col] = 0.0 if value is None else float(value)
            col += 1
        for name in OPTIONAL_NUMERIC_FIELDS:
            X[i, col] = 0.0 if getattr(r, name) is None else 1.0
            col += 1
        for name in CATEGORICAL_FIELDS:
            vocab = feat.vocab[name]
            value = getattr(r, name)
            text = "-" if value is None else ("T" if value else "F") if isinstance(value, bool) else str(value)
            slot = vocab.index(text) if text in vocab else len(vocab)
            X[i, col + slot] = 1.0
            col += len(vocab) + 1
    return X


def test_featurizer_transform_matches_row_by_row_reference(synth_data):
    train_records = _conn(synth_data, 0, 300)
    feat = fit_featurizer(train_records)
    base = conn_records(train_records)[0]
    odd = [
        base._replace(duration=None, orig_bytes=None, resp_bytes=None,
                      service=None, local_orig=None, local_resp=None),
        base._replace(local_orig=True, local_resp=False, service=""),
        base._replace(local_orig=False, local_resp=True, duration=0.0),
        # categories never seen at fit time go to the <other> slot
        base._replace(proto="sctp", service="gopher", conn_state="ZZ",
                      history="Never-seen"),
    ]
    records = odd + conn_records(_conn(synth_data, 300, 600))
    X = feat.transform(ConnTable.of(records))
    assert X.dtype == np.float64 and X.shape == (len(records), feat.n_dims)
    assert np.array_equal(X, _transform_row_by_row(feat, records))
    assert X[3, feat.expanded_names.index("proto=<other>")] == 1.0
    assert X[3, feat.expanded_names.index("history=<other>")] == 1.0
    one_hot = X[:, len(NUMERIC_FIELDS) + len(OPTIONAL_NUMERIC_FIELDS):]
    assert np.array_equal(one_hot.sum(axis=1), np.full(len(records), float(len(CATEGORICAL_FIELDS))))


def test_featurizer_transform_empty_and_single(synth_data):
    feat = fit_featurizer(_conn(synth_data, 0, 100))
    X = feat.transform(ConnTable.of([]))
    assert X.shape == (0, feat.n_dims) and X.dtype == np.float64
    one = _conn(synth_data, 100, 101)
    assert np.array_equal(feat.transform(one), _transform_row_by_row(feat, conn_records(one)))


def test_featurizer_local_flags_one_hot(synth_data):
    base = conn_records(_conn(synth_data, 0, 1))[0]
    records = [base._replace(uid=f"CFlag{i}", local_orig=flag)
               for i, flag in enumerate((None, True, False, True))]
    feat = fit_featurizer(ConnTable.of(records))
    assert feat.vocab["local_orig"] == ["-", "F", "T"]
    X = feat.transform(ConnTable.of(records))
    assert np.array_equal(X, _transform_row_by_row(feat, records))
    cols = [feat.expanded_names.index(f"local_orig={v}") for v in ("-", "T", "F", "T")]
    assert [X[i, col] for i, col in enumerate(cols)] == [1.0] * 4


# ---------------------------------------------------------------------------
# Split search: sort + searchsorted against the argsort reference


def _reference_best_split(self, X, y, idx, rng):
    """The argsort split search: a stable argsort of each candidate feature,
    a gather of the labels in that order and their running sum."""
    n_features = X.shape[1]
    if self.max_features is None or self.max_features >= n_features:
        candidates = np.arange(n_features)
    else:
        candidates = np.sort(rng.choice(n_features, size=self.max_features, replace=False))
    labels = y[idx].astype(np.float64)
    n = len(idx)
    total_pos = labels.sum()
    best = None
    best_score = _gini(total_pos, n) - 1e-12  # require strict improvement
    for feat in candidates:
        values = X[idx, feat]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        pos_prefix = np.cumsum(labels[order])
        boundaries = np.nonzero(v_sorted[1:] > v_sorted[:-1])[0]
        if len(boundaries) == 0:
            continue
        n_left = boundaries + 1
        pos_left = pos_prefix[boundaries]
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


_tree_fit = DecisionTree.fit


def _reference_tree_fit(self, X, y, rows=None):
    """Each tree grown on its own copy of its bootstrap rows."""
    if rows is not None:
        X, y = np.asarray(X)[rows], np.asarray(y)[rows]
    return _tree_fit(self, X, y)


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])


@st.composite
def _forest_inputs(draw):
    """(X, y): 2-300 rows, columns that are continuous, tied (few distinct
    values), constant, or laced with +-0.0, +-inf and NaN."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["continuous", "ties", "constant", "special"]))
        if kind == "continuous":
            column = rng.normal(size=n)
        elif kind == "ties":
            column = rng.integers(0, draw(st.integers(2, 5)), size=n).astype(np.float64)
        elif kind == "constant":
            column = np.full(n, draw(st.sampled_from([0.0, -0.0, 2.5, np.inf, np.nan])))
        else:
            column = np.where(rng.random(n) < 0.5, rng.choice(_SPECIAL, size=n),
                              rng.integers(-2, 3, size=n).astype(np.float64))
        columns.append(column)
    y = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return np.column_stack(columns), y


@settings(max_examples=80, deadline=None)
@given(_forest_inputs(), st.booleans(), st.sampled_from([None, "sqrt", 1, 2]),
       st.integers(0, 1000))
def test_forest_matches_argsort_reference(data, bootstrap, max_features, seed):
    X, y = data
    params = dict(n_trees=4, max_depth=8, max_features=max_features, bootstrap=bootstrap,
                  seed=seed)
    got = json.dumps(RandomForest(**params).fit(X, y).state())
    with mock.patch.object(DecisionTree, "_best_split", _reference_best_split), \
            mock.patch.object(DecisionTree, "fit", _reference_tree_fit):
        want = json.dumps(RandomForest(**params).fit(X, y).state())
    assert got == want


_EXTREMES = st.sampled_from([np.inf, -np.inf, 1.7e308, -1.7e308, np.finfo(np.float64).max, 1.0])


# a cut between neighbours whose midpoint is an infinity, NaN or beyond
# float range still separates them, so the split that was scored is kept
@settings(max_examples=200, deadline=None)
@given(st.tuples(_EXTREMES | st.floats(allow_nan=False), _EXTREMES | st.floats(allow_nan=False))
       .filter(lambda pair: pair[0] != pair[1]),
       st.integers(1, 5), st.integers(1, 5), st.booleans())
def test_forest_separates_two_classes_at_any_two_floats(values, n_first, n_second, first_label):
    X = np.array([[values[0]]] * n_first + [[values[1]]] * n_second)
    y = np.array([first_label] * n_first + [not first_label] * n_second)
    forest = RandomForest(n_trees=3, bootstrap=False).fit(X, y)
    assert np.array_equal(forest.predict(X), y)


# np.sort leaves the order of -0.0 and 0.0 open, and a cut next to an
# infinity is made at lo, so a zero's sign would reach model.json
@pytest.mark.parametrize("zero", [-0.0, 0.0])
def test_no_tree_stores_a_negative_zero(zero):
    X = np.array([[zero]] * 3 + [[np.inf]] * 3 + [[-0.0], [0.0]] * 2)
    y = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 0])
    tree = DecisionTree().fit(X[:6], y[:6])
    forest = RandomForest(n_trees=4, max_features=1, seed=0).fit(X, y)
    thresholds = [t for state in (tree.state(), *forest.state()["trees"]) for t in state["threshold"]]
    assert 0.0 in thresholds
    assert all(math.copysign(1.0, t) == 1.0 for t in thresholds if t == 0.0)


@pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0.0, 0.5, 1.0, 1.0], [-1, 0, 1, 1],
                                    [0.0, np.nan, 1.0, 1.0]])
def test_forest_rejects_non_binary_labels(labels):
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        RandomForest(n_trees=2).fit(X, labels)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        DecisionTree().fit(X, labels)


def test_forest_takes_bool_and_zero_one_labels_alike(separable):
    X, y = separable
    as_bool = RandomForest(n_trees=5, seed=2).fit(X, y).state()
    assert RandomForest(n_trees=5, seed=2).fit(X, y.astype(np.int64)).state() == as_bool
    assert RandomForest(n_trees=5, seed=2).fit(X, y.astype(np.float64)).state() == as_bool


def test_save_model_bytes_match_the_stream_encoder(tmp_path, separable):
    X, y = separable
    for kind in ("stratified", "uniform", "random_forest", "linear_svm"):
        model = train(kind, X, y, hyperparams=Hyperparams(n_trees=5), seed=3)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        written = path.read_text(encoding="utf-8")
        want = io.StringIO()
        json.dump(json.loads(written), want, sort_keys=True)
        want.write("\n")
        assert written == want.getvalue()
