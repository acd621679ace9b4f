#!/usr/bin/env python3
"""Train and score all four traffic baselines on an attack-disjoint split.

Builds a synthetic labeled corpus, anonymizes it, splits it so the
training attack classes never appear in dev/test, then reports macro
precision/recall/F1 per baseline on both held-out splits.
"""

import argparse
import sys

import numpy as np

from iotsqlbench import baselines as bl
from iotsqlbench import splitter
from iotsqlbench.evaluation import detection_metrics
from iotsqlbench.ingest import AttackLabel, SynthSpec, synthesize_logs

MIX = {
    AttackLabel.Benign: 0.5,
    AttackLabel.Okiru: 0.15,
    AttackLabel.PartOfAHorizontalPortScan: 0.15,
    AttackLabel.DDoS: 0.07,
    AttackLabel.CandC: 0.05,
    AttackLabel.Attack: 0.03,
    AttackLabel.FileDownload: 0.02,
    AttackLabel.HeartBeat: 0.01,
    AttackLabel.Mirai: 0.01,
    AttackLabel.Torii: 0.01,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6000, help="synthetic conn.log rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trees", type=int, default=100)
    args = parser.parse_args()

    table = synthesize_logs(SynthSpec(counts={"conn": args.n}, label_mix=MIX, seed=args.seed))["conn"]
    anonymized, _ = splitter.anonymize(table, seed=args.seed)
    manifest = splitter.split_network(anonymized, seed=args.seed)
    subsets = splitter.take_splits(anonymized, manifest)
    y = {s: np.array(splitter.malicious(subsets[s])) for s in splitter.SPLITS}
    for split, subset in subsets.items():
        print(f"{split}: {len(subset)} records ({y[split].sum()} malicious)")

    featurizer = bl.fit_featurizer(subsets["train"])
    X = {s: featurizer.transform(subsets[s]) for s in splitter.SPLITS}

    print(f"\n{'baseline':<16} {'dev P':>7} {'dev R':>7} {'dev F1':>7} {'test P':>7} {'test R':>7} {'test F1':>8}")
    hp = bl.Hyperparams(n_trees=args.trees)
    for kind in bl.KINDS:
        model = bl.train(kind, X["train"], y["train"], hyperparams=hp, seed=args.seed, featurizer=featurizer)
        row = [f"{kind:<16}"]
        for split in ("dev", "test"):
            preds = bl.predict(model, X[split], seed=args.seed + 1)
            rep = detection_metrics(list(y[split]), list(preds))
            row.append(f"{rep.macro_precision:7.3f} {rep.macro_recall:7.3f} {rep.macro_f1:7.3f}")
        print(" ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
