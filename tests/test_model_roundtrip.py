"""A saved model of every baseline kind reads back to the same file bytes."""

import json

import pytest

from iotsqlbench.baselines import KINDS, Hyperparams, fit_featurizer, load_model, save_model, train


@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_gives_back_identical_bytes(tmp_path, synth_data, kind):
    records = synth_data["conn"].take(list(range(300)))
    featurizer = fit_featurizer(records)
    X = featurizer.transform(records)
    y = [label.is_malicious for label in records.columns["label"]]
    model = train(kind, X, y, hyperparams=Hyperparams(n_trees=4, svm_epochs=2), seed=5,
                  featurizer=featurizer)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
    params = json.loads(first.read_text(encoding="utf-8"))["params"]
    if kind == "stratified":
        assert params == {"p_malicious": sum(y) / len(y)}
    elif kind == "uniform":
        assert params == {}
