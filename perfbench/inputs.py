"""Input generation, run in its own process before any timing starts.

    python3 perfbench/inputs.py --workload score-sql --variant 3 --out DIR

First it makes sure the reference inputs exist: the seed-7 default synthetic
database and the seed-7 default corpus (10,985 pairs) with its test split.
They are built once per checkout and source tree, under
``.perfbench_cache/reference-<src digest>/``, and the corpus sha256 is
checked against the published reference.  Then it writes the workload's
own seeded inputs into DIR:

- gen-corpus: a default-size synthetic database synthesized with the variant
  as its seed;
- score-sql: two prediction files for every SCORE_STRIDE-th test example,
  and their class labels;
- detect-pipeline: a labeled synthetic conn.log of DETECT_CONN_ROWS rows.

Running it in a child process keeps its memory out of the measured
process's peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CACHE, SRC, WORKLOADS, file_sha256, require_package, src_digest  # noqa: E402

REFERENCE_SEED = 7
REFERENCE_CORPUS_SHA256 = "9868f84f553944fd61dcc5e349f7928ee387990365926cfde8ffca6ae7a5096c"
DETECT_CONN_ROWS = 4_000
PREDICTION_FILES = ("a", "b")
# score-sql scores every SCORE_STRIDE-th test example (367 of 2,197), so that
# one scoring pass is short enough to repeat in a run; see workloads.ScoreSql
SCORE_STRIDE = 6


def reference_dir() -> Path:
    return CACHE / f"reference-{src_digest()[:16]}"


def prepare(workload: str, variant: int, out: Path) -> None:
    """Generate the inputs in a child process; raises if it fails.  The first
    call in a checkout also builds the reference inputs, hence the long
    timeout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--variant", str(variant), "--out", str(out)],
        env=env, check=True, timeout=900, stdout=sys.stderr,
    )


def _stage(argv: list[str]) -> float:
    from iotsqlbench import cli

    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"stage {argv} exited {rc}")
    return time.perf_counter() - t


def ensure_reference() -> Path:
    final = reference_dir()
    if (final / "reference.json").is_file():
        return final
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = CACHE / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    out = str(tmp)
    base = ["--seed", str(REFERENCE_SEED), "--out", out]
    seconds = {
        "synth": _stage(base + ["synth"]),
        "gen-pairs": _stage(base + ["gen-pairs", "--db", f"{out}/synth"]),
        "split": _stage(base + ["split", "--corpus", f"{out}/corpus/corpus.jsonl"]),
        "emit": _stage(base + ["emit", "--corpus", f"{out}/corpus/corpus.jsonl",
                               "--pairs-manifest", f"{out}/splits/pairs_manifest.txt"]),
    }
    corpus_sha = file_sha256(tmp / "corpus" / "corpus.jsonl")
    meta = {
        "stage_seconds": seconds,
        "corpus_sha256": corpus_sha,
        "corpus_ok": corpus_sha == REFERENCE_CORPUS_SHA256,
    }
    (tmp / "reference.json").write_text(json.dumps(meta, indent=2) + "\n")
    try:
        os.rename(tmp, final)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def write_score_inputs(ref: Path, variant: int, out: Path) -> None:
    from iotsqlbench import modelio
    from predictions import make_predictions

    examples = modelio.read_sql_examples(ref / "model_io" / "sql_test.jsonl")[::SCORE_STRIDE]
    golds = [ex.gold_sql for ex in examples]
    classes = {}
    for index, name in enumerate(PREDICTION_FILES):
        payloads, classes[name] = make_predictions(golds, variant, index)
        with open(out / f"pred_{name}.jsonl", "w", encoding="utf-8") as fh:
            for ex, payload in zip(examples, payloads):
                fh.write(json.dumps({"id": ex.id, "payload": payload}) + "\n")
    (out / "classes.json").write_text(json.dumps(classes) + "\n")


def write_gen_inputs(variant: int, out: Path) -> None:
    _stage(["--seed", str(variant), "--out", str(out), "synth"])


def write_detect_inputs(variant: int, out: Path) -> None:
    from iotsqlbench.config import RunConfig
    from iotsqlbench.ingest import SynthSpec, serialize_zeek, synthesize_logs

    cfg = RunConfig.load(None)
    spec = SynthSpec(
        counts={"conn": DETECT_CONN_ROWS},
        label_mix=cfg.get_label_mix("synth.mix"),
        window=cfg.get_window("synth.window"),
        address_pool_size=cfg.get_int("synth.pool"),
        seed=variant,
    )
    logs = out / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    (logs / "conn.log").write_text(serialize_zeek(synthesize_logs(spec)["conn"], "conn"), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    require_package()
    ref = ensure_reference()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "gen-corpus":
        write_gen_inputs(args.variant, args.out)
    elif args.workload == "score-sql":
        write_score_inputs(ref, args.variant, args.out)
    elif args.workload == "detect-pipeline":
        write_detect_inputs(args.variant, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
