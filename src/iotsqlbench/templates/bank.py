"""Slot-template model and the template-bank file format.

A template is a SQL pattern plus at least three natural-language surface
patterns over the same slots.  Placeholders are written ``$NAME`` or
``${NAME:mode}``; the mode selects an NL rendering (``pretty``/``short``
for tables, ``words`` for operators).  Slot kinds drive how values are
bound: table slots pick tables, column slots pick columns constrained by
datatype attributes, value slots sample observed cell values.
"""

from __future__ import annotations

import enum
import importlib.resources
import re
from dataclasses import dataclass, field

from ..lines import split_lines


class TemplateError(Exception):
    pass


class BankFormatError(TemplateError):
    pass


class UnboundPlaceholder(TemplateError):
    pass


class UnsatisfiableSlot(TemplateError):
    pass


class SlotKind(enum.Enum):
    AGG_OP = "AGG_OP"
    AGG_COLUMN = "AGG_COLUMN"
    TABLE = "TABLE"
    COND_COLUMN = "COND_COLUMN"
    COND_OP = "COND_OP"
    COND_VALUE = "COND_VALUE"
    JOIN_TABLE = "JOIN_TABLE"
    JOIN_KEY = "JOIN_KEY"
    LIMIT_N = "LIMIT_N"
    ORDER_COLUMN = "ORDER_COLUMN"
    TIME_LO = "TIME_LO"
    TIME_HI = "TIME_HI"


CATEGORIES = ("retrieval", "reasoning")

PLACEHOLDER_RE = re.compile(
    r"\$\{(?P<braced>[A-Z][A-Z0-9_]*)(?::(?P<mode>[a-z]+))?\}|\$(?P<bare>[A-Z][A-Z0-9_]*)"
)

_NL_MODES = ("raw", "pretty", "short", "words")


def slot_suffix(name: str) -> str:
    return re.search(r"\d*$", name).group()


def infer_kind(name: str) -> SlotKind | None:
    base = name[: len(name) - len(slot_suffix(name))].rstrip("_")
    try:
        return SlotKind(base)
    except ValueError:
        return None


@dataclass(frozen=True)
class SlotSpec:
    name: str
    kind: SlotKind
    attrs: tuple[str, ...] | None = None   # allowed column attributes
    ops: tuple[str, ...] | None = None     # allowed operators (AGG_OP / COND_OP)
    table_slot: str = "TABLE"              # owning table slot for column/value slots
    source: str | None = None              # column slot a value slot samples from
    lo: int = 1                            # LIMIT_N range
    hi: int = 20

    @property
    def suffix(self) -> str:
        return slot_suffix(self.name)


@dataclass(frozen=True)
class QueryTemplate:
    id: str
    category: str
    sql_pattern: str
    nl_patterns: tuple[str, ...]
    slots: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise BankFormatError(f"template {self.id}: bad category {self.category!r}")
        if len(self.nl_patterns) < 3:
            raise BankFormatError(f"template {self.id}: needs at least 3 nl patterns")
        sql_names = placeholder_names(self.sql_pattern)
        slots = dict(self.slots)
        for name in sql_names:
            if name not in slots:
                kind = infer_kind(name)
                if kind is None:
                    raise BankFormatError(
                        f"template {self.id}: slot {name} needs an explicit kind"
                    )
                slots[name] = SlotSpec(name=name, kind=kind)
        object.__setattr__(self, "slots", slots)
        for pattern in self.nl_patterns:
            extra = set(placeholder_names(pattern)) - set(slots)
            if extra:
                raise BankFormatError(
                    f"template {self.id}: nl pattern uses unknown slots {sorted(extra)}"
                )
            for match in PLACEHOLDER_RE.finditer(pattern):
                mode = match.group("mode")
                if mode is not None and mode not in _NL_MODES:
                    raise BankFormatError(
                        f"template {self.id}: unknown rendering mode {mode!r}"
                    )

    @property
    def is_temporal(self) -> bool:
        """Whether every instantiation carries a datetime predicate."""
        for spec in self.slots.values():
            if spec.kind in (SlotKind.TIME_LO, SlotKind.TIME_HI):
                return True
            if spec.kind is SlotKind.COND_COLUMN and spec.attrs == ("time",):
                return True
        return False


def placeholder_names(pattern: str) -> list[str]:
    """The slot names of ``pattern``, each once, in order of first use: so a
    template's inferred slots, and a bind's draws, never follow string hashing."""
    return list(dict.fromkeys(m.group("braced") or m.group("bare") for m in PLACEHOLDER_RE.finditer(pattern)))


def _parse_slot_line(parts: list[str], template_id: str) -> SlotSpec:
    if not parts:
        raise BankFormatError(f"template {template_id}: empty slot line")
    name = parts[0]
    options: dict = {}
    for item in parts[1:]:
        if "=" not in item:
            raise BankFormatError(f"template {template_id}: bad slot option {item!r}")
        key, value = item.split("=", 1)
        if key == "kind":
            options["kind"] = SlotKind(value)
        elif key == "attrs":
            options["attrs"] = tuple(value.split(","))
        elif key == "ops":
            options["ops"] = tuple(value.split(","))
        elif key == "table":
            options["table_slot"] = value
        elif key == "source":
            options["source"] = value
        elif key == "min":
            options["lo"] = int(value)
        elif key == "max":
            options["hi"] = int(value)
        else:
            raise BankFormatError(f"template {template_id}: unknown slot option {key!r}")
    if "kind" not in options:
        kind = infer_kind(name)
        if kind is None:
            raise BankFormatError(f"template {template_id}: cannot infer kind for {name}")
        options["kind"] = kind
    return SlotSpec(name=name, **options)


def parse_bank_text(text: str) -> list[QueryTemplate]:
    """Parse the block-structured template bank format, its lines split by
    ``lines.split_lines``."""
    templates: list[QueryTemplate] = []
    current_id: str | None = None
    category = None
    sql_pattern = None
    nl_patterns: list[str] = []
    slots: dict[str, SlotSpec] = {}

    def flush(line_no: int) -> None:
        nonlocal current_id, category, sql_pattern, nl_patterns, slots
        if current_id is None:
            return
        if sql_pattern is None or category is None:
            raise BankFormatError(f"template {current_id}: missing sql or category (line {line_no})")
        templates.append(
            QueryTemplate(
                id=current_id,
                category=category,
                sql_pattern=sql_pattern,
                nl_patterns=tuple(nl_patterns),
                slots=dict(slots),
            )
        )
        current_id, category, sql_pattern = None, None, None
        nl_patterns, slots = [], {}

    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "template":
            flush(line_no)
            current_id = rest
        elif keyword == "category":
            category = rest
        elif keyword == "sql":
            sql_pattern = rest
        elif keyword == "nl":
            nl_patterns.append(rest)
        elif keyword == "slot":
            spec = _parse_slot_line(rest.split(), current_id or "?")
            slots[spec.name] = spec
        elif keyword == "end":
            flush(line_no)
        else:
            raise BankFormatError(f"line {line_no}: unknown keyword {keyword!r}")
    flush(-1)
    seen: set[str] = set()
    for t in templates:
        if t.id in seen:
            raise BankFormatError(f"duplicate template id {t.id}")
        seen.add(t.id)
    return templates


def default_bank() -> list[QueryTemplate]:
    """The shipped 27-template bank (reconstructed, spans all construct classes)."""
    text = (
        importlib.resources.files("iotsqlbench.data")
        .joinpath("template_bank.txt")
        .read_text(encoding="utf-8")
    )
    return parse_bank_text(text)
