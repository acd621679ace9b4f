import dataclasses
import json
import re
from collections import Counter
from datetime import datetime, timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import AttackLabel, ConnTable, SynthSpec, synthesize_logs
from iotsqlbench.lines import read_text
from iotsqlbench.splitter import (
    BadRatios,
    EmptyAttackClass,
    InsufficientBenign,
    NetworkSplitConfig,
    SplitError,
    SPLITS,
    SplitManifest,
    anonymize,
    dump_manifest,
    load_manifest,
    malicious,
    split_network,
    split_pairs,
    take_splits,
)
from tests.conftest import ConnRow, conn_records


def _records(mix, n, seed=3):
    spec = SynthSpec(counts={"conn": n}, label_mix=mix, seed=seed)
    return synthesize_logs(spec)["conn"]


def test_split_pairs_reference_sizes():
    manifest = split_pairs(list(range(10985)), seed=1)
    counts = manifest.counts()
    assert counts == {"train": 6591, "dev": 2197, "test": 2197}


def test_split_pairs_exact_division():
    manifest = split_pairs(list(range(10)), ratios=(0.6, 0.2, 0.2), seed=0)
    assert manifest.counts() == {"train": 6, "dev": 2, "test": 2}


def test_split_pairs_remainder_to_train():
    manifest = split_pairs(list(range(11)), ratios=(0.6, 0.2, 0.2), seed=0)
    assert manifest.counts() == {"train": 7, "dev": 2, "test": 2}


def test_split_pairs_bad_ratios():
    with pytest.raises(BadRatios):
        split_pairs(list(range(4)), ratios=(0.5, 0.5, 0.5), seed=0)
    with pytest.raises(BadRatios):
        split_pairs(list(range(4)), ratios=(0.9, 0.2, -0.1), seed=0)


def test_split_pairs_deterministic_partition():
    a = split_pairs(list(range(100)), seed=5)
    b = split_pairs(list(range(100)), seed=5)
    assert a.assignment == b.assignment
    assert set(a.assignment) == {str(i) for i in range(100)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500), st.integers(0, 2**31 - 1))
def test_split_pairs_partition_property(n, seed):
    manifest = split_pairs(list(range(n)), seed=seed)
    assert sorted(manifest.assignment) == sorted(str(i) for i in range(n))
    counts = manifest.counts()
    assert counts["dev"] == int(n * 0.2) and counts["test"] == int(n * 0.2)
    assert sum(counts.values()) == n


def test_split_network_attack_disjoint():
    records = _records(
        {AttackLabel.Okiru: 0.3, AttackLabel.DDoS: 0.3, AttackLabel.Benign: 0.4}, 200
    )
    manifest = split_network(records, train_attacks={AttackLabel.Okiru}, seed=2)
    by_uid = {r.uid: r for r in conn_records(records)}
    for uid, split in manifest.assignment.items():
        label = by_uid[uid].label
        if label is AttackLabel.Okiru:
            assert split == "train"
        elif label is AttackLabel.DDoS:
            assert split in ("dev", "test")


def test_split_network_benign_only():
    records = _records({AttackLabel.Benign: 1.0}, 100)
    manifest = split_network(records, seed=1)
    counts = manifest.counts()
    assert sum(counts.values()) == 100
    malicious = [u for u, s in manifest.assignment.items()]
    assert len(malicious) == 100  # all assigned, none malicious


def test_split_network_explicit_totals():
    records = _records(
        {AttackLabel.Okiru: 0.25, AttackLabel.PartOfAHorizontalPortScan: 0.25,
         AttackLabel.DDoS: 0.2, AttackLabel.CandC: 0.1, AttackLabel.Benign: 0.2},
        1000,
    )
    config = NetworkSplitConfig(totals=(300, 120, 120), malicious_totals=(250, 80, 80))
    manifest = split_network(records, seed=4, config=config)
    counts = manifest.counts()
    assert counts == {"train": 300, "dev": 120, "test": 120}
    by_uid = {r.uid: r for r in conn_records(records)}
    mal_counts = Counter(
        split for uid, split in manifest.assignment.items() if by_uid[uid].label.is_malicious
    )
    assert mal_counts == {"train": 250, "dev": 80, "test": 80}


def test_split_network_insufficient_benign():
    records = _records({AttackLabel.Okiru: 0.5, AttackLabel.DDoS: 0.4, AttackLabel.Benign: 0.1}, 100)
    config = NetworkSplitConfig(totals=(80, 30, 30), malicious_totals=(40, 20, 20))
    with pytest.raises((InsufficientBenign, SplitError)):
        split_network(records, seed=0, config=config)


def test_split_network_empty_attack_class():
    records = _records({AttackLabel.Benign: 1.0}, 50)
    config = NetworkSplitConfig(totals=(20, 10, 10), malicious_totals=(5, 2, 2))
    with pytest.raises(EmptyAttackClass):
        split_network(records, seed=0, config=config)


def test_anonymize_bijection_consistency():
    records = _records({AttackLabel.Benign: 1.0}, 120)
    anonymized, maps = anonymize(records, seed=9)
    # shared original IPs still shared afterwards
    for old, new in zip(conn_records(records), conn_records(anonymized)):
        assert new.orig_h == maps.ip_map[old.orig_h]
        assert new.resp_h == maps.ip_map[old.resp_h]
    assert len(set(maps.ip_map.values())) == len(maps.ip_map)


def test_anonymize_pools_disjoint():
    records = _records({AttackLabel.Benign: 1.0}, 80)
    anonymized, maps = anonymize(records, seed=1)
    input_ips = {*records.columns["orig_h"], *records.columns["resp_h"]}
    output_ips = {*anonymized.columns["orig_h"], *anonymized.columns["resp_h"]}
    assert not (input_ips & output_ips)


def test_anonymize_deterministic():
    records = _records({AttackLabel.Benign: 1.0}, 60)
    a, maps_a = anonymize(records, seed=5)
    b, maps_b = anonymize(records, seed=5)
    assert a == b and maps_a.ip_map == maps_b.ip_map and maps_a.time_offsets == maps_b.time_offsets


def test_anonymize_preserves_non_identifier_values():
    records = _records({AttackLabel.Benign: 0.7, AttackLabel.DDoS: 0.3}, 150)
    anonymized, _ = anonymize(records, seed=3)
    for name in ("duration", "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts",
                 "proto", "service", "conn_state", "history", "orig_p", "resp_p"):
        before = Counter(records.columns[name])
        after = Counter(anonymized.columns[name])
        assert before == after, name


def test_anonymize_shifts_timestamps_independently():
    records = _records({AttackLabel.Benign: 1.0}, 50)
    anonymized, maps = anonymize(records, seed=7)
    shifted = sum(1 for old, new in zip(records.columns["ts"], anonymized.columns["ts"]) if old != new)
    assert shifted > 40  # offsets of exactly 0 are possible but rare
    assert len(set(maps.time_offsets.values())) > 1


def _odd_records():
    """Rows holding None, "" and bool values."""
    base = ConnRow(
        ts=datetime(2021, 3, 1, 12, 0, 0), uid="COdd0", orig_h="192.168.1.1", orig_p=80,
        resp_h="10.0.0.2", resp_p=8080, proto="tcp", service="http", duration=1.5,
        orig_bytes=100, resp_bytes=230, conn_state="SF", local_orig=True, local_resp=False,
        missed_bytes=0, history="ShADadFf", orig_pkts=4, orig_ip_bytes=260, resp_pkts=5,
        resp_ip_bytes=430, tunnel_parents=None, label=AttackLabel.Okiru,
    )
    return [
        base,
        base._replace(uid="COdd1", service=None, duration=None, orig_bytes=None,
                      resp_bytes=None, local_orig=None, local_resp=None,
                      label=AttackLabel.Benign),
        base._replace(uid="COdd2", orig_h="10.0.0.2", resp_h="192.168.1.1",
                      service="", history="", tunnel_parents="", local_orig=False,
                      local_resp=True, duration=0.0),
    ]


def test_anonymize_matches_a_per_row_replace_reference():
    records = _odd_records() + conn_records(_records({AttackLabel.Benign: 0.5, AttackLabel.DDoS: 0.5}, 40))
    table = ConnTable.of(records)
    anonymized, maps = anonymize(table, seed=4)
    assert len(anonymized) == len(records)
    for record, got in zip(records, conn_records(anonymized)):
        reference = record._replace(
            ts=record.ts + timedelta(seconds=maps.time_offsets[record.uid]),
            orig_h=maps.ip_map[record.orig_h],
            resp_h=maps.ip_map[record.resp_h],
        )
        for name in ConnRow._fields:
            value, expected = getattr(got, name), getattr(reference, name)
            assert value == expected and type(value) is type(expected), name
        assert got == reference and hash(got) == hash(reference)
        assert repr(got) == repr(reference)
    # the input table is untouched
    assert table == ConnTable.of(records) and table.columns["orig_h"][0] == "192.168.1.1"


def test_manifest_round_trip():
    records = _records({AttackLabel.Okiru: 0.4, AttackLabel.DDoS: 0.3, AttackLabel.Benign: 0.3}, 90)
    manifest = split_network(records, seed=11)
    text = dump_manifest(manifest)
    again = load_manifest(text)
    assert again.assignment == manifest.assignment
    assert again.train_attack_labels == manifest.train_attack_labels
    assert again.seed == manifest.seed


# every manifest, minus the exclusion README lists: no ratio is NaN; one
# with an id holding "\t" or "\n" is refused by dump_manifest
_MANIFESTS = st.builds(
    SplitManifest,
    assignment=st.dictionaries(st.text(), st.sampled_from(["train", "dev", "test"]), max_size=6),
    ratios=st.one_of(st.none(), st.lists(st.one_of(st.integers(), st.floats(allow_nan=False)),
                                         max_size=3).map(tuple)),
    seed=st.integers(),
    train_attack_labels=st.frozensets(st.sampled_from(list(AttackLabel))),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MANIFESTS)
@example(manifest=SplitManifest(assignment={"C1": "train"}, ratios=(), seed=3))
@example(manifest=SplitManifest(assignment={"C1": "train", "a\tdev": "dev"}, ratios=None, seed=0))
@example(manifest=SplitManifest(assignment={"x\ntest": "test"}, ratios=None, seed=0))
def test_manifest_reads_back_from_its_file(tmp_path, manifest):
    unreadable = [item_id for item_id in manifest.assignment if "\t" in item_id or "\n" in item_id]
    if unreadable:
        with pytest.raises(SplitError, match=re.escape(f"manifest id {unreadable[0]!r}")):
            dump_manifest(manifest)
        return
    path = tmp_path / "manifest.txt"
    path.write_bytes(dump_manifest(manifest).encode("utf-8"))
    again = load_manifest(read_text(path))
    assert again == manifest
    assert list(again.assignment.items()) == list(manifest.assignment.items())


@pytest.mark.parametrize("line_no, bad", [
    (1, "no header"), (1, "# {not json"), (1, "# [1, 2]"), (1, '# {"train_attacks": ["x"]}'),
    # a header of the wrong types: each field but one as dump_manifest writes it
    *((1, "# " + json.dumps({"ratios": None, "seed": 4, "train_attacks": ["Okiru"], **{field: value}}))
      for field, value in [("ratios", "ab"), ("ratios", ""), ("ratios", [0.5, True]), ("ratios", {}),
                           ("seed", "x"), ("seed", True), ("seed", 1.0), ("seed", None),
                           ("train_attacks", "Okiru"), ("train_attacks", [5]),
                           ("train_attacks", ["Maybe"]), ("train_attacks", None)]),
    (1, '# {"seed": 4, "train_attacks": []}'),
    (3, "C-no-tab"), (4, "C1\ttrain\textra"), (4, "C1\tvalidation"),
    (4, "<id of line 2>\ttest"),  # an id listed twice
])
def test_load_manifest_names_a_bad_line(line_no, bad):
    records = _records({AttackLabel.Okiru: 0.5, AttackLabel.Benign: 0.5}, 20)
    lines = dump_manifest(split_network(records, seed=4)).split("\n")
    lines[line_no - 1] = bad.replace("<id of line 2>", lines[1].split("\t")[0])
    with pytest.raises(SplitError, match=f"^manifest line {line_no}: "):
        load_manifest("\n".join(lines))


def test_attack_disjointness_asserted():
    records = _records({AttackLabel.Okiru: 0.5, AttackLabel.Benign: 0.5}, 60)
    manifest = split_network(records, seed=2)
    labels = dict(zip(records.columns["uid"], records.columns["label"]))
    manifest.check_attack_disjoint(labels)
    # corrupt it: move one Okiru record to dev
    okiru_uid = next(uid for uid, label in labels.items() if label is AttackLabel.Okiru)
    bad = dataclasses.replace(manifest)
    bad.assignment = dict(manifest.assignment)
    bad.assignment[okiru_uid] = "dev"
    with pytest.raises(SplitError):
        bad.check_attack_disjoint(labels)


def test_take_splits_gives_each_split_its_rows_in_manifest_order():
    records = _records({AttackLabel.Okiru: 0.5, AttackLabel.Benign: 0.5}, 60)
    manifest = split_network(records, seed=2)
    subsets = take_splits(records, manifest)
    by_uid = {r.uid: r for r in conn_records(records)}
    for split in SPLITS:
        expected = [by_uid[uid] for uid in manifest.ids_for(split)]
        assert conn_records(subsets[split]) == expected
        assert malicious(subsets[split]) == [r.label.is_malicious for r in expected]
    manifest.assignment["Cmissing"] = "dev"
    with pytest.raises(SplitError, match="^manifest uid 'Cmissing' is not in the conn table$"):
        take_splits(records, manifest)
