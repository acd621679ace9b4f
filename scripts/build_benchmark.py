#!/usr/bin/env python3
"""End-to-end benchmark build on synthetic data.

Chains the CLI stages (synth -> gen-pairs -> split -> emit) into one
reproducible run, then runs the CLI's baseline stage once per kind in
baselines.KINDS, each under --out/baselines/KIND, so the four-baseline
table is the lines that stage prints. Everything lands under --out;
re-running with the same seed produces a byte-identical tree.
"""

import argparse
import os
import sys

from iotsqlbench.baselines import KINDS
from iotsqlbench.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/benchmark")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-pairs", type=int, default=10_985)
    parser.add_argument("--conn", type=int, default=2000, help="synthetic conn.log rows")
    args = parser.parse_args()

    # every stage runs inside the build, so that each manifest names its
    # inputs relative to it wherever --out is
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    base = ["--seed", str(args.seed), "--out", ".",
            "--set", f"synth.conn={args.conn}",
            "--set", f"corpus.n_pairs={args.n_pairs}"]
    network = ["--anonymized", "splits/conn.anonymized.tsv", "--network-manifest", "splits/network_manifest.txt"]
    stages = [
        base + ["synth"],
        base + ["gen-pairs", "--db", "synth"],
        base + ["split", "--corpus", "corpus/corpus.jsonl", "--db", "synth"],
        base + ["emit", "--corpus", "corpus/corpus.jsonl", "--pairs-manifest", "splits/pairs_manifest.txt",
                *network],
        *(["--seed", str(args.seed), "--out", f"baselines/{kind}", "--set", f"baseline.kind={kind}",
           "baseline", *network] for kind in KINDS),
    ]
    for stage in stages:
        code = cli(stage)
        if code != 0:
            return code
    print(f"benchmark built under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
