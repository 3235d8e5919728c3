"""Regenerate the committed seed-walk digests under ``perfbench/expected``.

Usage (from the repository root)::

    python3 perfbench/make_expected.py [--smoke] [--workload NAME] [--seed 42]

For each workload this answers every query of the seed's pool with the
reference seed walk (``RSTkNNSearcher(tree, engine="seed")``) over a
fresh build; for ``live-churn`` it replays the writes and answers each
of the first ``pool`` reads over a tree freshly built from the dataset
as it stands at that read.  It takes minutes, and is needed only when a
workload's inputs change (the benchmark refuses digests whose
parameters differ from the workload's).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.perf import kernels  # noqa: E402

import workloads as wls  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    kernels.set_backend("auto")
    names = [args.workload] if args.workload else list(wls.WORKLOADS)
    for name in names:
        wl = wls.WORKLOADS[name](smoke=args.smoke)
        path = wls.expected_path(name, args.seed, args.smoke)
        path.parent.mkdir(exist_ok=True)
        data = {
            "workload": name,
            "seed": args.seed,
            "params": wl.params(),
            "oracle": "seed walk over a fresh IURTree.build",
            "digests": wl.reference(args.seed),
        }
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path} ({len(data['digests'])} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
