"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lookup --seeds 1-10

For every end-to-end metric it prints the median of the per-seed values
and the distance between their first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  A benchmark is steady when every
spread is below a third of its bound.  ``setup_s`` is exempt: it is one
short interval per process, which the speed probe corrects poorly, so a
host slowdown that lasts a whole run moves its median of 21 samples; only
its median's drift between two sets of runs is held to its bound.  The
table is also written to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)

    table = {}
    for name in runs[0]:
        if name in ("seed", "correct", "attempted", "failed"):
            continue
        values = [r[name] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        bound = bounds[name]
        table[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{args.workload:<20} {name:<40} median {q2:>12.6g}  spread {spread:7.4f}"
              f"  bound {bound}  {flag}")
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "spread": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
