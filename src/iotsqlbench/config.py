"""Run configuration: a documented key=value file plus flag overrides.

Every seed is explicit (defaults are constants, never wall clock), so a
run is a pure function of (config, inputs).  The config hash recorded in
run manifests is the sha256 of the canonical serialization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime

from .ingest.records import AttackLabel
from .lines import NotUtf8, read_text, split_lines

# key -> (default, help)
CONFIG_KEYS = {
    "seed": ("0", "master seed for every stage"),
    "synth.conn": ("2000", "synthetic conn.log record count"),
    "synth.dns": ("400", "synthetic dns.log record count"),
    "synth.http": ("300", "synthetic http.log record count"),
    "synth.files": ("200", "synthetic files.log record count"),
    "synth.ntp": ("150", "synthetic ntp.log record count"),
    "synth.weird": ("100", "synthetic weird.log record count"),
    "synth.sensors": ("250", "readings per sensor type"),
    "synth.devices": ("16", "device inventory size"),
    "synth.mix": (
        "Benign:0.6,Okiru:0.1,PartOfAHorizontalPortScan:0.1,DDoS:0.05,C&C:0.05,"
        "Attack:0.025,FileDownload:0.025,HeartBeat:0.025,Mirai:0.0,Torii:0.025",
        "attack label mix as Label:fraction pairs summing to 1",
    ),
    "synth.window": ("2021-03-01,2021-03-08", "time window (ISO dates, lo,hi)"),
    "synth.pool": ("24", "address pool size"),
    "corpus.n_pairs": ("10985", "text-SQL pairs to generate"),
    "corpus.temporal_floor": ("0.10", "minimum fraction of datetime-predicate pairs"),
    "split.ratios": ("0.6,0.2,0.2", "pair split ratios (train,dev,test)"),
    "split.train_attacks": (
        "PartOfAHorizontalPortScan,Okiru",
        "attack classes kept in training for the network split",
    ),
    "split.benign_fracs": ("0.5,0.25,0.25", "benign allocation across splits"),
    "split.totals": ("", "optional exact split totals (train,dev,test)"),
    "split.malicious_totals": ("", "optional exact malicious totals (train,dev,test)"),
    "split.max_offset_days": ("30", "anonymization timestamp offset bound"),
    "emit.instruction": (
        "Is the following network information Malicious?",
        "detection instruction prompt",
    ),
    "emit.separator": (" | ", "question/schema separator for SQL inputs"),
    "eval.timeout": ("5.0", "per-query execution budget in seconds"),
    "baseline.kind": ("random_forest", "stratified | uniform | random_forest | linear_svm"),
    "baseline.n_trees": ("100", "forest size"),
    "baseline.max_depth": ("16", "tree depth limit"),
    "baseline.svm_epochs": ("10", "SVM epochs"),
    "baseline.svm_lr": ("0.01", "SVM learning rate"),
    "baseline.svm_l2": ("0.0001", "SVM L2 penalty"),
}


class ConfigError(Exception):
    pass


def parse_kv_text(text: str) -> dict[str, str]:
    """``key = value`` lines, split by ``lines.split_lines``; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None = None, overrides: list[str] | None = None) -> "RunConfig":
        values = {k: default for k, (default, _) in CONFIG_KEYS.items()}
        if path:
            try:
                file_values = parse_kv_text(read_text(path))
            except (OSError, NotUtf8) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            for key, value in file_values.items():
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = value
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value.strip()
        return cls(values=values)

    # -- typed accessors

    def raw(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {self.values[key]!r}") from exc

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {self.values[key]!r}") from exc

    def get_floats(self, key: str) -> tuple[float, ...]:
        text = self.values[key]
        try:
            return tuple(float(p) for p in text.split(",")) if text else ()
        except ValueError as exc:
            raise ConfigError(f"{key} must be comma-separated numbers") from exc

    def get_ints(self, key: str) -> tuple[int, ...]:
        text = self.values[key]
        try:
            return tuple(int(p) for p in text.split(",")) if text else ()
        except ValueError as exc:
            raise ConfigError(f"{key} must be comma-separated integers") from exc

    def get_label_mix(self, key: str) -> dict:
        out = {}
        for part in self.values[key].split(","):
            if not part.strip():
                continue
            name, _, frac = part.partition(":")
            try:
                label = AttackLabel(name.strip())
            except ValueError as exc:
                raise ConfigError(f"{key}: unknown label {name!r}") from exc
            try:
                out[label] = float(frac)
            except ValueError as exc:
                raise ConfigError(f"{key}: bad fraction {frac!r}") from exc
        return out

    def get_labels(self, key: str) -> frozenset:
        out = set()
        for part in self.values[key].split(","):
            if not part.strip():
                continue
            try:
                out.add(AttackLabel(part.strip()))
            except ValueError as exc:
                raise ConfigError(f"{key}: unknown label {part!r}") from exc
        return frozenset(out)

    def get_window(self, key: str) -> tuple[datetime, datetime]:
        parts = self.values[key].split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key} must be lo,hi ISO dates")
        try:
            return datetime.fromisoformat(parts[0]), datetime.fromisoformat(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{key}: bad timestamp ({exc})") from exc

    def canonical(self) -> str:
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def default_config_text() -> str:
    """The documented config file with defaults, suitable as a starting point."""
    lines = ["# iotsqlbench run configuration (key = value; # comments)"]
    for key, (default, help_text) in CONFIG_KEYS.items():
        lines.append(f"# {help_text}")
        lines.append(f"{key} = {default}")
        lines.append("")
    return "\n".join(lines)
