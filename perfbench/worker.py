"""One benchmark round in a fresh process.

Sets up (imports the package, builds the round's inputs, warms up), notes
the moment it is ready on the system-wide monotonic clock, runs the round
once, checks the outputs outside the timed region and prints one JSON
object.  ``run.py`` starts it; the set-up time is the interval from the
spawn to the ready moment, scaled by the speed probes taken at the start
and at the ready moment (probe.py).

    python3 perfbench/worker.py --workload lookup --seed 1 --round 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    from probe import probe

    first_probe = probe()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-n", type=int, required=True)
    ap.add_argument("--calls", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fakedegrees
    import fakedegrees.cli  # noqa: F401  off the measured path, but set-up pays for it
    import fakedegrees.verify  # noqa: F401

    if not Path(fakedegrees.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fakedegrees imported from {fakedegrees.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed, args.round, args.max_n, args.calls)
    workloads.warm_up(args.workload)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # the set-up's probe: the mean of one at the start and one when ready
    setup_probe = (first_probe + probe()) / 2
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    out = workloads.run(ops, tracer)
    # the program's peak, before the digest and the gates add the checker's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = out["scaled"]
    percentile, tail_s, beyond = workloads.tail(latencies)
    digest = workloads.digest(ops, out["values"])
    if args.workload == "lookup":
        problems = workloads.gate_lookup(ops, out["values"])
        problems += [f"failed: {f['op']}" for f in out["failures"]]
    else:
        problems = workloads.gate_sweep(args.workload, args.max_n, digest, out["failures"])
    result = {
        "ready": ready,
        "setup_probe_s": setup_probe,
        "wall_s": out["wall_s"],
        "raw_wall_s": out["raw_wall_s"],
        "raw_ops_s": out["raw_ops_s"],
        "probe_s": out["probe_s"],
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
        "tail": {"percentile": percentile, "samples": len(latencies), "beyond": beyond},
        "attempted": len(ops),
        "failed": len(out["failures"]),
        "failures": out["failures"],
        "digest": digest,
        "problems": problems,
        "correct": not problems,
        "properties": workloads.properties(args.workload, ops, args.max_n),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(out["raw_ops_s"], out["wall_s"] / out["raw_ops_s"])
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = peak_rss_mb
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
