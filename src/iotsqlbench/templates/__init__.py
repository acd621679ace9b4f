"""Text-SQL pair generation from slot templates."""

from .bank import (
    BankFormatError,
    TemplateError,
    UnboundPlaceholder,
    UnsatisfiableSlot,
    default_bank,
)
from .generate import (
    CorpusConfig,
    ExhaustedResampling,
    TemplateBinder,
    TextSqlPair,
    construct_coverage,
    corpus_stats,
    generate_corpus,
    has_datetime_predicate,
    instantiate,
    pair_to_json,
    read_corpus,
)

__all__ = [
    "BankFormatError",
    "CorpusConfig",
    "ExhaustedResampling",
    "TemplateBinder",
    "TemplateError",
    "TextSqlPair",
    "UnboundPlaceholder",
    "UnsatisfiableSlot",
    "construct_coverage",
    "corpus_stats",
    "default_bank",
    "generate_corpus",
    "has_datetime_predicate",
    "instantiate",
    "pair_to_json",
    "read_corpus",
]
