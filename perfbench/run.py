"""Benchmark runner: every workload in its own cold subprocess.

Usage (from the repository root)::

    python3 perfbench/run.py                      # all workloads, seed 42
    python3 perfbench/run.py --workload point-spatial --seed 7 \\
        --seconds 10 --trace 0                    # one workload, one run
    python3 perfbench/run.py --trace              # per-layer split
    python3 perfbench/run.py --repeat 5           # seeds 42..46, spreads
    python3 perfbench/run.py --smoke              # n~300, minimum traffic

Each workload runs in ``perfbench/measure.py`` under a fresh interpreter
whose environment has every ``REPRO_*`` variable removed, with
``PYTHONHASHSEED=0`` and ``src/`` on the path.  Reports land in
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; for
a single workload and run it is that run's result, otherwise metrics
are keyed ``<workload>.<metric>`` and hold the median over the runs.
The exit code is non-zero when any answer is wrong, any run fails, or
(with ``--repeat``) an end-to-end metric spreads wider than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A workload process still running after this long is killed with its
#: pool workers (the run must end within 180 s).
CHILD_TIMEOUT = 170.0

#: Seconds the rest of a workload's session may take to exit after it.
GROUP_GRACE = 5.0


def child_env() -> Dict[str, str]:
    """The scrubbed environment every workload process starts from."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    # Keeps git (asked for the commit by the report metadata) from
    # searching for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def reap_group(pgid: int) -> None:
    """Return once no process of the workload's session is left.

    Pool workers and multiprocessing's resource tracker can outlive the
    workload process by a moment; whatever is still there after
    GROUP_GRACE seconds is killed.
    """
    for _ in range(2):
        deadline = time.monotonic() + GROUP_GRACE
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool,
    expected_dir: Optional[Path],
) -> Tuple[Optional[dict], int]:
    """Run one workload process; ``(result line or None, exit code)``."""
    tag = "-smoke" if smoke else ""
    report = OUT / f"{workload}-seed{seed}-trace{trace}{tag}.json"
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--report", str(report),
    ]
    if smoke:
        cmd.append("--smoke")
    if expected_dir is not None:
        cmd += ["--expected-dir", str(expected_dir)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: killed after {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        out = ""
    finally:
        reap_group(proc.pid)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        return None, proc.returncode


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, IQR/median and (max - min)/median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) or 1.0
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_ratio": (q3 - q1) / scale,
        "range_ratio": (max(values) - min(values)) / scale,
    }


def check_spreads(runs: Dict[str, List[dict]], bounds: Dict[str, float]) -> bool:
    """Print every metric's spread; False if an end-to-end one is too wide.

    The spread checked is IQR/median, the one the bounds were set from;
    (max - min)/median is printed beside it.
    """
    ok = True
    for name, results in runs.items():
        if len(results) < 2:
            continue
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            st = spread(values)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and st["iqr_ratio"] > bound:
                flag = f"  SPREAD > bound {bound}"
                ok = False
            print(
                f"{name:14s} {metric:36s} median {st['median']:.6g}  "
                f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  "
                f"iqr/med {st['iqr_ratio']:.3f}  range/med {st['range_ratio']:.3f}{flag}"
            )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, help="traffic per run (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced replay",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--smoke", action="store_true", help="n~300 self-test sizes")
    parser.add_argument("--expected-dir", type=Path, help="committed digests to check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    ok = True
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for name in names:
        for i in range(args.repeat):
            seed = args.seed + i
            result, code = run_child(
                name, seed, seconds, args.trace, args.smoke, args.expected_dir
            )
            if result is None:
                print(f"{name} seed {seed}: no result (exit {code})", file=sys.stderr)
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            runs[name].append(result)
            shown = "  ".join(
                f"{m}={v['value']:.6g}{v['unit']}" for m, v in result["metrics"].items()
            )
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']}  {shown}")

    if args.repeat > 1:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        ok = check_spreads(runs, bounds) and ok
    results = [r for rs in runs.values() for r in rs]
    if not results:
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        metrics = {}
        for name, rs in runs.items():
            for metric in (rs[0]["metrics"] if rs else {}):
                values = [r["metrics"][metric]["value"] for r in rs]
                metrics[f"{name}.{metric}"] = {
                    "value": statistics.median(values),
                    "unit": rs[0]["metrics"][metric]["unit"],
                }
        print(json.dumps({
            "correct": ok and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
