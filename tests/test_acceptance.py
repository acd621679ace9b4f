"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Expected values marked "brute force" are computed inside this module by
plain Python loops over the fixture rows, never through the engine under
test.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from datetime import datetime, timedelta

import numpy as np
import pytest

from iotsqlbench import baselines as bl
from iotsqlbench import modelio, splitter
from iotsqlbench.evaluation import (
    detection_metrics,
    execution_accuracy,
    logical_accuracy,
    score_sql_corpus,
)
from iotsqlbench.ingest import AttackLabel, ConnTable, SynthSpec, parse_zeek, synthesize_logs
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema, parse
from iotsqlbench.templates import CorpusConfig, generate_corpus, has_datetime_predicate
from tests.conftest import FULL_MIX, ConnRow, build_database, conn_records


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:02d} {description}: FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num:02d} {description}: PASS")


@pytest.fixture(scope="module")
def acceptance_db():
    spec = SynthSpec(
        counts={
            "conn": 1200, "dns": 300, "http": 220, "files": 160, "ntp": 120, "weird": 80,
            "humidity": 160, "co2": 160, "temperature": 160, "luminosity": 160, "motion": 160,
            "devices": 14,
        },
        label_mix=FULL_MIX,
        seed=4242,
    )
    return build_database(synthesize_logs(spec))


@pytest.fixture(scope="module")
def full_corpus(acceptance_db):
    start = time.monotonic()
    pairs = generate_corpus(acceptance_db, CorpusConfig(n_pairs=10_985, seed=7))
    elapsed = time.monotonic() - start
    return pairs, elapsed


def test_c01_corpus_construction(acceptance_db, full_corpus):
    with criterion(1, "10,985 distinct executable pairs in <60s; 6591/2197/2197 split"):
        pairs, elapsed = full_corpus
        assert elapsed < 60.0, f"generation took {elapsed:.1f}s"
        assert len(pairs) == 10_985
        assert len({(p.question, p.sql) for p in pairs}) == 10_985
        failures = 0
        for pair in pairs:
            try:
                acceptance_db.execute(pair.sql)
            except Exception:
                failures += 1
        assert failures == 0, f"{failures} generated queries failed to execute"
        manifest = splitter.split_pairs(pairs, ratios=(0.6, 0.2, 0.2), seed=7)
        assert manifest.counts() == {"train": 6591, "dev": 2197, "test": 2197}


def test_c02_temporal_coverage(acceptance_db, full_corpus):
    with criterion(2, "datetime-predicate pairs >= 10% under default weights"):
        pairs, _ = full_corpus
        temporal = sum(has_datetime_predicate(parse(p.sql), acceptance_db.schema) for p in pairs)
        assert temporal / len(pairs) >= 0.10, f"only {temporal}/{len(pairs)} temporal"


# -- criterion 3: soundness + mutation suite ---------------------------------

_MUT_CATEGORIES = ["red", "green", "blue", "amber"]


def _mutation_rows(n=400, seed=42):
    rng = random.Random(seed)
    base = datetime(2021, 6, 1)
    rows = []
    for _ in range(n):
        rows.append({
            "a": rng.randint(0, 50),
            "b": round(rng.uniform(0, 100), 3),
            "c": rng.choice(_MUT_CATEGORIES),
            "ts": base + timedelta(hours=rng.randint(0, 240)),
        })
    return rows


def _mutation_db(rows):
    schema = define_schema([
        TableSchema(name="m", columns=(
            ColumnDef("a", "number"), ColumnDef("b", "number"),
            ColumnDef("c", "text"), ColumnDef("ts", "time"),
        )),
    ])
    db = Database(schema)
    db.load_records("m", [(r["a"], r["b"], r["c"], r["ts"]) for r in rows])
    return db


def _brute_cond(row, cond):
    col, op, val = cond
    actual = row[col]
    if isinstance(actual, datetime) and isinstance(val, str):
        val = datetime.fromisoformat(val)
    if op == "=":
        return actual == val
    if op == "!=":
        return actual != val
    if op == "<":
        return actual < val
    if op == "<=":
        return actual <= val
    if op == ">":
        return actual > val
    return actual >= val


def _brute_eval(spec, rows):
    """Independent evaluator for the mutation-suite query shapes."""
    kept = [r for r in rows if all(_brute_cond(r, c) for c in spec["conds"])]
    sel = spec["select"]
    if sel[0] == "agg":
        _, op, col = sel
        values = [r[col] for r in kept]
        if op == "COUNT":
            return [(len(kept),)]
        if not values:
            return [(None,)]
        if op == "AVG":
            return [(sum(values) / len(values),)]
        if op == "SUM":
            return [(sum(values),)]
        if op == "MIN":
            return [(min(values),)]
        return [(max(values),)]
    cols = sel[1]
    return sorted(tuple(r[c] for c in cols) for r in kept)


def _render_val(val):
    if isinstance(val, str):
        return f'"{val}"'
    return repr(val)


def _render(spec):
    sel = spec["select"]
    if sel[0] == "agg":
        _, op, col = sel
        head = f"SELECT {op}({'*' if op == 'COUNT' else col}) FROM m"
    else:
        head = f"SELECT {', '.join(sel[1])} FROM m"
    conds = " AND ".join(f"({c} {op} {_render_val(v)})" for c, op, v in spec["conds"])
    return f"{head} WHERE {conds}" if conds else head


def _results_close(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if isinstance(va, float) or isinstance(vb, float):
                if va is None or vb is None or not math.isclose(va, vb, rel_tol=1e-6, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True


def _mutants():
    """Exactly 50 mutants: literal perturbations, dropped conditions, swapped aggs."""
    golds = [
        {"select": ("agg", "AVG", "a"), "conds": [("c", "=", "red")]},
        {"select": ("agg", "MAX", "b"), "conds": [("a", ">", 25)]},
        {"select": ("agg", "COUNT", "a"), "conds": [("c", "!=", "blue")]},
        {"select": ("agg", "SUM", "a"), "conds": [("b", "<=", 50)]},
        {"select": ("agg", "MIN", "b"), "conds": [("c", "=", "green")]},
        {"select": ("cols", ("a", "b")), "conds": [("a", ">=", 48)]},
        {"select": ("cols", ("c",)), "conds": [("a", "=", 10)]},
        {"select": ("agg", "COUNT", "a"), "conds": [("a", ">", 10), ("c", "=", "red")]},
        {"select": ("agg", "AVG", "b"), "conds": [("ts", ">", "2021-06-05")]},
        {"select": ("cols", ("a",)), "conds": [("a", "<", 3), ("c", "!=", "amber")]},
    ]
    mutants = []

    def perturb_literal(g, which=0):
        m = {"select": g["select"], "conds": [list(c) for c in g["conds"]]}
        col, op, val = m["conds"][which]
        if isinstance(val, str) and col == "c":
            val = _MUT_CATEGORIES[(_MUT_CATEGORIES.index(val) + 1) % 4]
        elif isinstance(val, str):
            val = "2021-06-07"
        else:
            val = val + 1
        m["conds"][which] = (col, op, val)
        m["conds"] = [tuple(c) for c in m["conds"]]
        return m

    def drop_condition(g):
        return {"select": g["select"], "conds": g["conds"][:-1]}

    _SWAP = {"AVG": "MAX", "MAX": "MIN", "MIN": "AVG", "SUM": "AVG", "COUNT": "SUM"}

    def swap_agg(g):
        kind, op, col = g["select"]
        return {"select": (kind, _SWAP[op], col), "conds": g["conds"]}

    for g in golds:
        mutants.append((g, perturb_literal(g)))
    for g in golds:
        if len(g["conds"]) > 1:
            mutants.append((g, drop_condition(g)))
    for g in golds:
        if g["select"][0] == "agg":
            mutants.append((g, swap_agg(g)))
    # second-round literal perturbations on a different coordinate / repeat
    for g in golds:
        which = 1 if len(g["conds"]) > 1 else 0
        m = perturb_literal(perturb_literal(g, which), which)
        mutants.append((g, m))
    # operator flips count as literal-boundary perturbations on the same slot
    flip = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "=": "!=", "!=": "="}

    def flip_op(g, which=0):
        m = {"select": g["select"], "conds": [list(c) for c in g["conds"]]}
        col, op, val = m["conds"][which]
        m["conds"][which] = (col, flip[op], val)
        m["conds"] = [tuple(c) for c in m["conds"]]
        return m

    for g in golds:
        mutants.append((g, flip_op(g)))
    for g in golds:
        if len(g["conds"]) > 1:
            mutants.append((g, flip_op(g, 1)))
    # larger literal shifts for the remainder
    for g in golds:
        mutants.append((g, perturb_literal(perturb_literal(g))))
    return mutants[:50]


def test_c03_metric_soundness_and_mutation_suite(acceptance_db, full_corpus):
    with criterion(3, "soundness over 1000+ pairs; 50-mutant suite caught via brute force"):
        start = time.monotonic()
        pairs, _ = full_corpus
        subset = pairs[:1000]
        # logical match implies execution match, zero violations
        for pair in subset:
            assert logical_accuracy(pair.sql, pair.sql)
            assert execution_accuracy(pair.sql, pair.sql, acceptance_db)
        # echoing gold scores 1.0 / 1.0
        examples = [
            modelio.SqlExample(id=f"e{i}", gold_sql=p.sql)
            for i, p in enumerate(subset[:200])
        ]
        preds = [modelio.PredictionRecord(id=ex.id, payload=ex.gold_sql) for ex in examples]
        report = score_sql_corpus(examples, preds, acceptance_db)
        assert report.execution_acc == 1.0 and report.logical_acc == 1.0

        # mutation suite on a dedicated <=1000-row fixture
        rows = _mutation_rows()
        db = _mutation_db(rows)
        mutants = _mutants()
        assert len(mutants) == 50
        engine_correct = 0
        for gold_spec, mutant_spec in mutants:
            gold_sql = _render(gold_spec)
            mutant_sql = _render(mutant_spec)
            changed = not _results_close(_brute_eval(gold_spec, rows), _brute_eval(mutant_spec, rows))
            verdict = execution_accuracy(mutant_sql, gold_sql, db)
            if changed:
                assert not verdict, f"missed result-changing mutant: {mutant_sql} vs {gold_sql}"
            engine_correct += verdict
        assert engine_correct < 50, "mutation suite produced no result-changing mutants"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"soundness suite took {elapsed:.1f}s"


# -- criterion 4: 20-pair equivalence suite ----------------------------------


def _c4_db():
    schema = define_schema([
        TableSchema(name="p", columns=(
            ColumnDef("x", "number"), ColumnDef("y", "number"),
            ColumnDef("s", "text"), ColumnDef("t", "time"),
        )),
    ])
    rows = [
        (1, 10.0, "Ab", datetime(2021, 1, 1)),
        (2, 20.0, "ab", datetime(2021, 1, 2)),
        (3, 30.0, "Cd", datetime(2021, 1, 3)),
        (4, None, "Cd", datetime(2021, 1, 4)),
        (5, 50.0, "Ef", datetime(2021, 1, 5)),
        (6, 60.0, "Ef", datetime(2021, 1, 6)),
        (7, 70.0, "gh", datetime(2021, 1, 7)),
        (8, 80.0, "ij", datetime(2021, 1, 8)),
    ]
    db = Database(schema)
    db.load_records("p", rows)
    return db, [dict(zip(("x", "y", "s", "t"), r)) for r in rows]


def test_c04_execution_oracle_equivalence():
    with criterion(4, "20 hand-built prediction/gold pairs score 20/20"):
        db, rows = _c4_db()

        def brute(fn, order_sensitive=False):
            out = fn(rows)
            if order_sensitive:
                return out
            none_safe = lambda row: tuple((v is not None, 0 if v is None else v) for v in row)
            return sorted(out, key=none_safe)

        xs = lambda rs: [(r["x"],) for r in rs]
        # (pred_sql, gold_sql, pred_fn, gold_fn, order_sensitive)
        suite = [
            # equivalent pairs
            ("SELECT x FROM p", "SELECT x FROM p",
             xs, xs, False),
            ("select X from P", "SELECT x FROM p",
             xs, xs, False),
            ("SELECT x FROM p WHERE (x > 1)", "SELECT x FROM p WHERE (x >= 2)",
             lambda rs: [(r["x"],) for r in rs if r["x"] > 1],
             lambda rs: [(r["x"],) for r in rs if r["x"] >= 2], False),
            ("SELECT x FROM p WHERE (x = (SELECT MAX(x) FROM p))", "SELECT x FROM p WHERE (x >= 8)",
             lambda rs: [(r["x"],) for r in rs if r["x"] == max(q["x"] for q in rs)],
             lambda rs: [(r["x"],) for r in rs if r["x"] >= 8], False),
            ("SELECT x FROM p WHERE (x BETWEEN 2 AND 5)",
             "SELECT x FROM p WHERE (x >= 2) AND (x <= 5)",
             lambda rs: [(r["x"],) for r in rs if 2 <= r["x"] <= 5],
             lambda rs: [(r["x"],) for r in rs if r["x"] >= 2 and r["x"] <= 5], False),
            ("SELECT DISTINCT x FROM p", "SELECT x FROM p",
             lambda rs: sorted({(r["x"],) for r in rs}), xs, False),
            ("SELECT COUNT(*) FROM p WHERE (x > 0)", "SELECT COUNT(*) FROM p WHERE (x >= 1)",
             lambda rs: [(sum(1 for r in rs if r["x"] > 0),)],
             lambda rs: [(sum(1 for r in rs if r["x"] >= 1),)], False),
            ("SELECT x FROM p WHERE (x > 2) OR (x > 3)", "SELECT x FROM p WHERE (x > 2)",
             lambda rs: [(r["x"],) for r in rs if r["x"] > 2 or r["x"] > 3],
             lambda rs: [(r["x"],) for r in rs if r["x"] > 2], False),
            ('SELECT s FROM p WHERE (s = "Ab")', "SELECT s FROM p WHERE (s = 'Ab')",
             lambda rs: [(r["s"],) for r in rs if r["s"] == "Ab"],
             lambda rs: [(r["s"],) for r in rs if r["s"] == "Ab"], False),
            ("SELECT x FROM p ORDER BY x DESC", "SELECT x FROM p ORDER BY x DESC",
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: -q["x"])],
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: -q["x"])], True),
            # non-equivalent pairs
            ("SELECT y, x FROM p", "SELECT x, y FROM p",
             lambda rs: [(r["y"], r["x"]) for r in rs],
             lambda rs: [(r["x"], r["y"]) for r in rs], False),
            ("SELECT x FROM p WHERE (x > 2) AND (x < 5)", "SELECT x FROM p WHERE (x > 2)",
             lambda rs: [(r["x"],) for r in rs if 2 < r["x"] < 5],
             lambda rs: [(r["x"],) for r in rs if r["x"] > 2], False),
            ("SELECT x FROM p WHERE (x = 3)", "SELECT x FROM p WHERE (x = 4)",
             lambda rs: [(r["x"],) for r in rs if r["x"] == 3],
             lambda rs: [(r["x"],) for r in rs if r["x"] == 4], False),
            ('SELECT x FROM p WHERE (s = "Ab")', 'SELECT x FROM p WHERE (s = "ab")',
             lambda rs: [(r["x"],) for r in rs if r["s"] == "Ab"],
             lambda rs: [(r["x"],) for r in rs if r["s"] == "ab"], False),
            ("SELECT x FROM p WHERE (x > 4)", "SELECT x FROM p WHERE (x >= 4)",
             lambda rs: [(r["x"],) for r in rs if r["x"] > 4],
             lambda rs: [(r["x"],) for r in rs if r["x"] >= 4], False),
            ("SELECT AVG(y) FROM p", "SELECT MAX(y) FROM p",
             lambda rs: [(sum(r["y"] for r in rs if r["y"] is not None)
                          / sum(1 for r in rs if r["y"] is not None),)],
             lambda rs: [(max(r["y"] for r in rs if r["y"] is not None),)], False),
            ("SELECT COUNT(*) FROM p", "SELECT COUNT(y) FROM p",
             lambda rs: [(len(rs),)],
             lambda rs: [(sum(1 for r in rs if r["y"] is not None),)], False),
            ("SELECT x FROM p ORDER BY x LIMIT 3", "SELECT x FROM p ORDER BY x LIMIT 4",
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: q["x"])][:3],
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: q["x"])][:4], True),
            ("SELECT x FROM p ORDER BY x DESC", "SELECT x FROM p ORDER BY x ASC",
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: -q["x"])],
             lambda rs: [(r["x"],) for r in sorted(rs, key=lambda q: q["x"])], True),
            ("SELECT frobnicate FROM", "SELECT x FROM p",
             None, xs, False),
        ]
        assert len(suite) == 20
        correct = 0
        for pred_sql, gold_sql, pred_fn, gold_fn, order_sensitive in suite:
            if pred_fn is None:
                expected = False  # unparseable prediction
            else:
                expected = _results_close(brute(pred_fn, order_sensitive), brute(gold_fn, order_sensitive))
            verdict = execution_accuracy(pred_sql, gold_sql, db)
            assert verdict == expected, (pred_sql, gold_sql, expected, verdict)
            correct += 1
        assert correct == 20


def test_c05_detection_metrics_hand_example():
    with criterion(5, "confusion TP40/FN10/FP20/TN30 macro metrics at 1e-9"):
        golds = [True] * 50 + [False] * 50
        preds = [True] * 40 + [False] * 10 + [True] * 20 + [False] * 30
        report = detection_metrics(golds, preds)
        # hand computation: per-class P (40/60, 30/40), R (40/50, 30/50),
        # F1 (8/11, 2/3); macro = unweighted means
        assert abs(report.macro_precision - 17 / 24) < 1e-9   # 0.7083...
        assert abs(report.macro_recall - 7 / 10) < 1e-9       # 0.700
        assert abs(report.macro_f1 - 23 / 33) < 1e-9          # 0.6969... (3sf 0.697)


def test_c06_random_baselines_table4():
    with criterion(6, "stratified/uniform macro-F1 0.50 +/- 0.05 on balanced n=10,000 in <10s"):
        start = time.monotonic()
        rng = random.Random(99)
        golds = [True] * 5000 + [False] * 5000
        rng.shuffle(golds)
        X = np.zeros((10_000, 3))
        y = np.array(golds)
        for kind in ("stratified", "uniform"):
            model = bl.train(kind, X, y, seed=1)
            preds = bl.predict(model, X, seed=21)
            score = detection_metrics(list(y), list(preds)).macro_f1
            assert abs(score - 0.50) <= 0.05, f"{kind} macro-F1 {score:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"random baselines took {elapsed:.1f}s"


def test_c07_separability_sanity():
    with criterion(7, "forest/SVM >= 0.90 macro-F1, >= random + 0.2; 1-tree reduction"):
        spec = SynthSpec(
            counts={"conn": 2000},
            label_mix={AttackLabel.Benign: 0.5, AttackLabel.Okiru: 0.5},
            seed=77,
        )
        records = synthesize_logs(spec)["conn"]
        train_recs, eval_recs = records.take(list(range(1000))), records.take(list(range(1000, 2000)))
        feat = bl.fit_featurizer(train_recs)
        X_train, X_eval = feat.transform(train_recs), feat.transform(eval_recs)
        y_train = np.array([label.is_malicious for label in train_recs.columns["label"]])
        y_eval = [label.is_malicious for label in eval_recs.columns["label"]]
        scores = {}
        for kind in ("stratified", "uniform", "random_forest", "linear_svm"):
            model = bl.train(kind, X_train, y_train, seed=5, featurizer=feat)
            preds = bl.predict(model, X_eval, seed=13)
            scores[kind] = detection_metrics(y_eval, list(preds)).macro_f1
        assert scores["random_forest"] >= 0.90, scores
        assert scores["linear_svm"] >= 0.90, scores
        for learned in ("random_forest", "linear_svm"):
            for rand in ("stratified", "uniform"):
                assert scores[learned] >= scores[rand] + 0.2, scores

        hp = bl.Hyperparams(n_trees=1, forest_bootstrap=False, forest_max_features=None)
        one_tree = bl.train("random_forest", X_train, y_train, hyperparams=hp, seed=3)
        from iotsqlbench.baselines.forest import DecisionTree, _child_seed

        tree = DecisionTree(max_depth=hp.max_depth, min_samples_split=hp.min_samples_split,
                            max_features=None, seed=_child_seed(3, 0)).fit(X_train, y_train)
        fixed = X_eval[:100]
        assert np.array_equal(bl.predict(one_tree, fixed), tree.predict(fixed))


IOT23_PATH = os.environ.get("IOT23_CONN_LOG", "")


@pytest.mark.skipif(not IOT23_PATH, reason="set IOT23_CONN_LOG to a labeled conn.log to run")
def test_c08_full_data_conditional():
    with criterion(8, "full IoT-23: Table-2 totals and forest macro-F1 within 0.05 of 0.710"):
        text = open(IOT23_PATH, "r", encoding="utf-8", errors="replace").read()
        records = parse_zeek(text, "conn").records
        config = splitter.NetworkSplitConfig(
            totals=(125_000, 57_199, 57_199),
            malicious_totals=(50_000, 19_701, 19_697),
        )
        manifest = splitter.split_network(records, seed=0, config=config)
        counts = manifest.counts()
        assert counts == {"train": 125_000, "dev": 57_199, "test": 57_199}
        by_uid = {r.uid: r for r in conn_records(records)}
        mal = {
            s: sum(1 for u, sp in manifest.assignment.items() if sp == s and by_uid[u].label.is_malicious)
            for s in ("train", "dev", "test")
        }
        assert mal == {"train": 50_000, "dev": 19_701, "test": 19_697}
        subsets = {
            s: [by_uid[u] for u, sp in manifest.assignment.items() if sp == s]
            for s in ("train", "dev", "test")
        }
        feat = bl.fit_featurizer(ConnTable.of(subsets["train"]))
        model = bl.train(
            "random_forest",
            feat.transform(ConnTable.of(subsets["train"])),
            [r.label.is_malicious for r in subsets["train"]],
            seed=0,
            featurizer=feat,
        )
        preds = bl.predict(model, feat.transform(ConnTable.of(subsets["test"])))
        score = detection_metrics([r.label.is_malicious for r in subsets["test"]], list(preds)).macro_f1
        assert abs(score - 0.710) <= 0.05, f"forest macro-F1 {score:.3f}"


def test_c09_split_anonymization_invariants():
    with criterion(9, "100 random corpora: disjointness, partition, bijection, value preservation"):
        violations = 0
        for seed in range(100):
            spec = SynthSpec(
                counts={"conn": 120},
                label_mix={
                    AttackLabel.Benign: 0.4,
                    AttackLabel.Okiru: 0.2,
                    AttackLabel.PartOfAHorizontalPortScan: 0.1,
                    AttackLabel.DDoS: 0.15,
                    AttackLabel.CandC: 0.15,
                },
                seed=seed,
            )
            table = synthesize_logs(spec)["conn"]
            anonymized_table, maps = splitter.anonymize(table, seed=seed)
            manifest = splitter.split_network(anonymized_table, seed=seed)
            records, anonymized = conn_records(table), conn_records(anonymized_table)

            labels = {r.uid: r.label for r in anonymized}
            try:
                manifest.check_attack_disjoint(
                    {u: labels[u] for u in manifest.assignment}
                )
            except splitter.SplitError:
                violations += 1
            assigned = sorted(manifest.assignment)
            if assigned != sorted(r.uid for r in anonymized if r.uid in manifest.assignment):
                violations += 1
            if len(set(manifest.assignment) - {r.uid for r in anonymized}) != 0:
                violations += 1
            # bijection: consistent and injective
            if len(set(maps.ip_map.values())) != len(maps.ip_map):
                violations += 1
            for old, new in zip(records, anonymized):
                if new.orig_h != maps.ip_map[old.orig_h] or new.resp_h != maps.ip_map[old.resp_h]:
                    violations += 1
                    break
            # non-identifier multiset preservation
            for field in ("duration", "orig_bytes", "resp_bytes", "proto", "conn_state",
                          "history", "orig_p", "resp_p", "orig_pkts", "resp_pkts"):
                before = sorted(str(getattr(r, field)) for r in records)
                after = sorted(str(getattr(r, field)) for r in anonymized)
                if before != after:
                    violations += 1
                    break
        assert violations == 0


def test_c10_serialization_fidelity(acceptance_db, full_corpus, tmp_path):
    with criterion(10, "detection input prefix is exact; emit->echo->score returns all 1.0"):
        record = ConnRow(
            ts=datetime(2021, 3, 1, 12, 0, 0), uid="CRef01",
            orig_h="192.168.1.1", orig_p=80, resp_h="192.161.2.2", resp_p=8080,
            proto="tcp", service="http", duration=2.5, orig_bytes=120, resp_bytes=310,
            conn_state="SF", local_orig=True, local_resp=False, missed_bytes=0,
            history="ShADadFf", orig_pkts=5, orig_ip_bytes=320, resp_pkts=6,
            resp_ip_bytes=550, tunnel_parents=None, label=AttackLabel.Okiru,
        )
        (example,) = modelio.write_detection_examples(ConnTable.of([record]), tmp_path / "one.jsonl")
        assert example.input.startswith(
            "Is the following network information Malicious? 192.168.1.1 80 192.161.2.2 8080"
        )

        # end-to-end: emit both kinds, echo gold, score exactly 1.0 everywhere
        pairs, _ = full_corpus
        sql_path = tmp_path / "sql.jsonl"
        examples = modelio.write_sql_examples(pairs[:150], acceptance_db.schema, sql_path)
        sql_report = score_sql_corpus(
            modelio.read_sql_examples(sql_path),
            [modelio.PredictionRecord(id=ex.id, payload=ex.gold_sql) for ex in examples],
            acceptance_db,
        )
        assert sql_report.execution_acc == 1.0 and sql_report.logical_acc == 1.0

        spec = SynthSpec(
            counts={"conn": 300},
            label_mix={AttackLabel.Benign: 0.5, AttackLabel.Okiru: 0.5},
            seed=31,
        )
        records = synthesize_logs(spec)["conn"]
        det_path = tmp_path / "det.jsonl"
        det_examples = modelio.write_detection_examples(records, det_path)
        echoed = [modelio.PredictionRecord(id=ex.id, payload=modelio.bool_to_label(ex.gold))
                  for ex in det_examples]
        by_id = {p.id: p for p in echoed}
        read_back = modelio.read_detection_examples(det_path)
        golds = [ex.gold for ex in read_back]
        preds = [modelio.label_to_bool(by_id[ex.id].payload) for ex in read_back]
        det_report = detection_metrics(golds, preds)
        assert det_report.macro_precision == 1.0
        assert det_report.macro_recall == 1.0
        assert det_report.macro_f1 == 1.0
