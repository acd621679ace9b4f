#!/usr/bin/env python3
"""Summarise a generated corpus: the stats.json gen-pairs wrote next to it
(question and SQL token lengths, reported separately, construct coverage
and temporal pairs), plus the number of pairs in each template category.

    python scripts/corpus_report.py out/corpus/corpus.jsonl
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from iotsqlbench.templates import read_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", help="corpus.jsonl path; stats.json is read from its directory")
    args = parser.parse_args()

    corpus = Path(args.corpus)
    with open(corpus.parent / "stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    print(json.dumps(stats, indent=2, sort_keys=True))

    pairs = read_corpus(args.corpus)
    # None: the corpus line held null, or no such key
    categories = Counter(pair.category or "(none)" for pair in pairs)
    print("categories:", json.dumps(categories, sort_keys=True))

    temporal, n = stats["temporal_pairs"], stats["n_pairs"]
    print(f"temporal pairs: {temporal}/{n} ({temporal / max(n, 1):.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
