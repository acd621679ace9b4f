"""Record the outputs every input variant produces, into expected.json.

    python3 perfbench/record.py [--workload NAME ...] [--variants 0,1,...]

Run at a commit whose outputs are known good (the seed commit of the
benchmark); run.py then checks every unit of work against them.  Only a
change that is meant to alter outputs should re-record them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import VARIANTS, WORK, WORKLOADS, require_package  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def record(name: str, variant: int) -> dict:
    import workloads
    from inputs import prepare

    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"record-{name}-{variant}-", dir=WORK))
    try:
        prepare(name, variant, run_dir)
        workload = workloads.make(name, variant, run_dir)
        workload.setup()
        _, observed = workload.rep(workloads.Timer(), run_dir / "rep")
        if name == "score-sql":
            # the verdicts each class must score hold at the seed commit too
            if workload.check(observed, observed):
                raise SystemExit(f"score-sql variant {variant}: a prediction class scored off-rule")
            del observed["corpus_ok"]
            observed["class_shares"] = workload.class_shares()
        if name == "detect-pipeline":
            del observed["codes"]
        if name == "gen-corpus":
            del observed["rc"]
        return observed
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--variants", default=",".join(str(v) for v in range(VARIANTS)))
    args = parser.parse_args()
    require_package()
    for name in args.workload or WORKLOADS:
        for variant in (int(v) for v in args.variants.split(",")):
            observed = record(name, variant)
            # re-read just before writing, so recorders of other workloads
            # running at the same time keep their entries
            expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
            expected.setdefault(name, {})[str(variant)] = observed
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
            print(f"recorded {name} variant {variant}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
