"""Train/dev/test splitting with leakage controls.

Text-SQL pairs split by ratio (floor sizes, remainder to train).  Network
records split attack-disjointly: malicious classes seen in training never
appear in dev or test, benign rows are allocated to hit per-split targets,
and IPs/timestamps are randomized before release (consistent IP bijection,
independent per-record time offsets).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import repeat
from operator import attrgetter

from .ingest.records import AttackLabel, ConnTable
from .lines import split_lines

SPLITS = ("train", "dev", "test")

DEFAULT_TRAIN_ATTACKS = frozenset(
    {AttackLabel.PartOfAHorizontalPortScan, AttackLabel.Okiru}
)


class SplitError(Exception):
    pass


class BadRatios(SplitError):
    pass


class InsufficientBenign(SplitError):
    pass


class EmptyAttackClass(SplitError):
    pass


@dataclass
class SplitManifest:
    assignment: dict  # item id -> "train" | "dev" | "test"
    ratios: tuple | None
    seed: int
    train_attack_labels: frozenset = frozenset()

    def ids_for(self, split: str) -> list:
        return [i for i, s in self.assignment.items() if s == split]

    def counts(self) -> dict:
        out = {s: 0 for s in SPLITS}
        for s in self.assignment.values():
            out[s] += 1
        return out

    def check_attack_disjoint(self, labels_by_id: dict) -> None:
        """Assert no malicious class leaks from train into dev/test."""
        train = {
            labels_by_id[i]
            for i, s in self.assignment.items()
            if s == "train" and labels_by_id[i] is not AttackLabel.Benign
        }
        other = {
            labels_by_id[i]
            for i, s in self.assignment.items()
            if s != "train" and labels_by_id[i] is not AttackLabel.Benign
        }
        overlap = train & other
        if overlap:
            raise SplitError(f"attack classes leak across splits: {sorted(l.value for l in overlap)}")


def _check_ratios(ratios) -> tuple:
    ratios = tuple(ratios)
    if len(ratios) != 3:
        raise BadRatios(f"expected 3 ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise BadRatios("ratios must be nonnegative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split_pairs(pairs: list, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> SplitManifest:
    """Ratio split over pairs; ids are input positions as strings.

    Sizes are floor(n * ratio) per split with the remainder on train.
    """
    ratios = _check_ratios(ratios)
    n = len(pairs)
    n_dev = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_dev - n_test
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignment: dict = {}
    for pos, idx in enumerate(order):
        if pos < n_train:
            split = "train"
        elif pos < n_train + n_dev:
            split = "dev"
        else:
            split = "test"
        assignment[str(idx)] = split
    assignment = {str(i): assignment[str(i)] for i in range(n)}
    return SplitManifest(assignment=assignment, ratios=ratios, seed=seed)


@dataclass(frozen=True)
class NetworkSplitConfig:
    """Benign allocation and optional exact per-split targets.

    With no explicit targets: all train-attack malicious records go to
    train, the remaining malicious records split evenly between dev and
    test, and benign records are allocated by ``benign_fracs``.  Explicit
    ``totals``/``malicious_totals`` reproduce fixed-size splits.
    """

    benign_fracs: tuple = (0.5, 0.25, 0.25)
    totals: tuple | None = None            # (train, dev, test) total sizes
    malicious_totals: tuple | None = None  # (train, dev, test) malicious sizes


def split_network(
    records: ConnTable,
    train_attacks=DEFAULT_TRAIN_ATTACKS,
    seed: int = 0,
    config: NetworkSplitConfig | None = None,
) -> SplitManifest:
    """Attack-disjoint split keyed by record uid; reads the uid and label
    columns of ``records``."""
    config = config or NetworkSplitConfig()
    train_attacks = frozenset(train_attacks)
    if AttackLabel.Benign in train_attacks:
        raise SplitError("train_attacks must not include Benign")
    _check_ratios(config.benign_fracs)

    uids, labels = records.columns["uid"], records.columns["label"]
    rng = random.Random(seed)
    # uids stand for their records: a shuffle draws the same for any items
    benign = [uid for uid, label in zip(uids, labels) if label is AttackLabel.Benign]
    train_mal = [uid for uid, label in zip(uids, labels)
                 if label is not AttackLabel.Benign and label in train_attacks]
    other_mal = [uid for uid, label in zip(uids, labels)
                 if label is not AttackLabel.Benign and label not in train_attacks]
    rng.shuffle(benign)
    rng.shuffle(train_mal)
    rng.shuffle(other_mal)

    if config.malicious_totals is not None:
        m_train, m_dev, m_test = config.malicious_totals
        if m_train > 0 and not train_mal:
            raise EmptyAttackClass("no records from the train attack classes")
        if (m_dev > 0 or m_test > 0) and not other_mal:
            raise EmptyAttackClass("no records from the held-out attack classes")
        if m_train > len(train_mal):
            raise SplitError(f"need {m_train} train-attack records, have {len(train_mal)}")
        if m_dev + m_test > len(other_mal):
            raise SplitError(
                f"need {m_dev + m_test} held-out malicious records, have {len(other_mal)}"
            )
        train_mal = train_mal[:m_train]
        dev_mal = other_mal[:m_dev]
        test_mal = other_mal[m_dev : m_dev + m_test]
    else:
        half = len(other_mal) // 2
        dev_mal = other_mal[:half]
        test_mal = other_mal[half:]

    if config.totals is not None:
        b_targets = [
            config.totals[i] - n_mal
            for i, n_mal in enumerate((len(train_mal), len(dev_mal), len(test_mal)))
        ]
        if any(b < 0 for b in b_targets):
            raise SplitError("totals smaller than malicious counts")
    else:
        b_targets = _benign_targets(len(benign), config.benign_fracs)
    if sum(b_targets) > len(benign):
        raise InsufficientBenign(
            f"need {sum(b_targets)} benign records, have {len(benign)}"
        )

    assignment: dict = {}
    cursor = 0
    benign_parts = []
    for target in b_targets:
        benign_parts.append(benign[cursor : cursor + target])
        cursor += target
    for split, part in zip(SPLITS, ([*train_mal], [*dev_mal], [*test_mal])):
        for uid in part:
            assignment[uid] = split
    for split, part in zip(SPLITS, benign_parts):
        for uid in part:
            assignment[uid] = split
    manifest = SplitManifest(
        assignment=assignment,
        ratios=None,
        seed=seed,
        train_attack_labels=train_attacks,
    )
    manifest.check_attack_disjoint({uid: label for uid, label in zip(uids, labels)
                                    if uid in assignment})
    return manifest


def _benign_targets(n: int, fracs) -> list[int]:
    targets = [int(n * f) for f in fracs]
    targets[0] += n - sum(targets)
    return targets


def take_splits(table: ConnTable, manifest: SplitManifest) -> dict:
    """The conn table of each split, in manifest order: a sub-table taken
    by row position.  A manifest uid the table does not hold is a
    ``SplitError``: the splits would silently lose records."""
    # the last row of a uid, as a uid -> record dict would keep
    position = {uid: i for i, uid in enumerate(table.columns["uid"])}
    for uid in manifest.assignment:
        if uid not in position:
            raise SplitError(f"manifest uid {uid!r} is not in the conn table")
    return {
        split: table.take(list(map(position.__getitem__, manifest.ids_for(split))))
        for split in SPLITS
    }


def malicious(table: ConnTable) -> list[bool]:
    """The gold column of a conn table: whether each row is malicious."""
    return list(map(attrgetter("is_malicious"), table.columns["label"]))


_ANON_BLOCKS = ("198.18", "198.19")  # benchmarking range, disjoint from real captures


@dataclass
class AnonymizationMaps:
    ip_map: dict
    time_offsets: dict


def anonymize(records: ConnTable, seed: int = 0, max_offset_days: int = 30):
    """Randomize identifiers: one IP bijection for all records, independent
    per-record timestamp offsets.  All other fields are untouched.

    Works a column at a time on the columns of ``records``: ``ts``,
    ``orig_h`` and ``resp_h`` are replaced in one pass each, and the result
    is a ``ConnTable`` that shares every other column with the input.
    Those values were checked when the input was parsed or built and are
    not checked again.
    """
    columns = dict(records.columns)
    rng = random.Random(seed)
    input_ips = sorted({*columns["orig_h"], *columns["resp_h"]})
    pool_iter = _synthetic_ips(set(input_ips))
    shuffled = list(input_ips)
    rng.shuffle(shuffled)
    ip_map = {ip: next(pool_iter) for ip in shuffled}

    # randint(a, b) is randrange(a, b + 1): the same draws
    max_offset = max_offset_days * 86400
    n = len(columns["uid"])
    offsets = list(map(rng.randrange, repeat(-max_offset, n), repeat(max_offset + 1)))
    columns["ts"] = list(map(datetime.__add__, columns["ts"], map(timedelta, repeat(0), offsets)))
    columns["orig_h"] = list(map(ip_map.__getitem__, columns["orig_h"]))
    columns["resp_h"] = list(map(ip_map.__getitem__, columns["resp_h"]))
    maps = AnonymizationMaps(ip_map=ip_map, time_offsets=dict(zip(columns["uid"], offsets)))
    return ConnTable(columns), maps


def _synthetic_ips(exclude: set):
    for block in _ANON_BLOCKS:
        for third in range(256):
            for fourth in range(1, 255):
                candidate = f"{block}.{third}.{fourth}"
                if candidate not in exclude:
                    yield candidate
    raise SplitError("synthetic address pool exhausted")


# ---------------------------------------------------------------------------
# manifest file format: header block then one "<id>\t<split>" line per item


def dump_manifest(manifest: SplitManifest) -> str:
    """The manifest file's text.  An id holding a tab or "\\n" is a
    SplitError naming it, since ``load_manifest`` would misread its line."""
    header = {
        "seed": manifest.seed,
        "ratios": list(manifest.ratios) if manifest.ratios is not None else None,
        "train_attacks": sorted(l.value for l in manifest.train_attack_labels),
    }
    lines = [f"# {json.dumps(header, sort_keys=True)}"]
    for item_id, split in manifest.assignment.items():
        if "\t" in item_id or "\n" in item_id:
            raise SplitError(f"manifest id {item_id!r} holds a tab or a line break")
        lines.append(f"{item_id}\t{split}")
    return "\n".join(lines) + "\n"


def load_manifest(text: str) -> SplitManifest:
    """The manifest ``dump_manifest`` wrote, its lines split by
    ``lines.split_lines``; a header unlike the one it writes
    (``_is_header``), a line that is not an id, a tab and a split name, or
    an id listed twice, is a SplitError naming its line."""
    lines = split_lines(text)
    if not lines[0].startswith("# "):
        raise SplitError("manifest line 1: missing header")
    try:
        header = json.loads(lines[0][2:])
    except ValueError:  # JSONDecodeError is a ValueError
        header = None
    if not _is_header(header):
        raise SplitError("manifest line 1: bad header")
    assignment = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        item_id, _, split = raw.partition("\t")
        if split not in SPLITS:
            raise SplitError(f"manifest line {line_no}: expected <id>\\t<split>, got {raw!r}")
        if item_id in assignment:
            raise SplitError(f"manifest line {line_no}: id {item_id!r} listed twice")
        assignment[item_id] = split
    ratios = header["ratios"]
    return SplitManifest(
        assignment=assignment, ratios=None if ratios is None else tuple(ratios),
        seed=header["seed"],
        train_attack_labels=frozenset(map(AttackLabel, header["train_attacks"])),
    )


_LABEL_VALUES = frozenset(label.value for label in AttackLabel)


def _is_header(header) -> bool:
    """Whether decoded JSON ``header`` is a manifest header as
    ``dump_manifest`` writes it: an object of an int ``seed`` (not a bool),
    ``ratios`` null or a list of numbers, and ``train_attacks`` a list of
    attack label values."""
    return (isinstance(header, dict) and type(header.get("seed")) is int
            and "ratios" in header
            and (header["ratios"] is None or isinstance(header["ratios"], list)
                 and all(type(ratio) in (int, float) for ratio in header["ratios"]))
            and isinstance(header.get("train_attacks"), list)
            and all(isinstance(v, str) and v in _LABEL_VALUES for v in header["train_attacks"]))


def dump_anonymization_maps(maps: AnonymizationMaps) -> str:
    return json.dumps(
        {"ip_map": maps.ip_map, "time_offsets": maps.time_offsets},
        sort_keys=True,
        indent=2,
    )
