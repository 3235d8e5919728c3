#!/usr/bin/env python
"""Regenerate every experiment table into a JSONL result log + markdown.

The reproducibility driver behind EXPERIMENTS.md:

    python tools/run_all_experiments.py results/  [--scale N] [--only E4,E12]

writes ``results/runs.jsonl`` (append-only, re-renderable with
``repro-rstknn show``) and ``results/EXPERIMENTS_RAW.md`` with every
table, stamped.  Experiments run in id order; a failure in one is
reported and the rest still run.
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, run_experiment, scale_kwargs
from repro.bench.report import format_table
from repro.bench.results import ResultLog


def main() -> int:
    """Run the sweep; returns non-zero when any experiment failed."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", help="directory for runs.jsonl + markdown")
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--only", default=None, help="comma-separated experiment ids"
    )
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log = ResultLog(outdir / "runs.jsonl")
    md_path = outdir / "EXPERIMENTS_RAW.md"

    wanted = (
        [e.strip().upper() for e in args.only.split(",")]
        if args.only
        else sorted(EXPERIMENTS, key=lambda e: int(e[1:]))
    )

    sections = [f"# Raw experiment tables ({datetime.now(timezone.utc).isoformat()})\n"]
    failures = 0
    for exp in wanted:
        kwargs = {} if args.scale is None else scale_kwargs(exp, args.scale)
        print(f"running {exp} ...", flush=True)
        started = time.perf_counter()
        try:
            headers, rows = run_experiment(exp, **kwargs)
        except Exception as exc:  # keep sweeping past one bad experiment
            failures += 1
            print(f"  FAILED: {exc}")
            sections.append(f"## {exp}\n\nFAILED: {exc}\n")
            continue
        elapsed = time.perf_counter() - started
        stamp = datetime.now(timezone.utc).isoformat()
        log.append(exp, headers, rows, params=kwargs, stamp=stamp)
        _, desc = EXPERIMENTS[exp]
        table = format_table(headers, rows, title=f"{exp} — {desc}")
        sections.append(f"## {exp} ({elapsed:.1f}s)\n\n```\n{table}\n```\n")
        print(f"  done in {elapsed:.1f}s")
    md_path.write_text("\n".join(sections) + "\n")
    print(f"wrote {md_path} and {log.path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
