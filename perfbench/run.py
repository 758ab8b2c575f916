"""Benchmark of the fake-degree certificate: route sweeps, bijection
certification and library lookups, timed end to end and per layer.

    python3 perfbench/run.py --workload certify-routes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one command

Each round runs in a fresh single-threaded worker process (worker.py),
one at a time.  Rounds repeat until ``--seconds`` have passed (at least
one), and each metric is the median over rounds.  Times are scaled to a
fixed interpreter speed by a probe taken around every operation, because
the shared host's speed swings by up to 2x (probe.py); the raw times are
in the results file.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: the time in the operations of one round;
* ``query_p50_ms``: median latency of one operation;
* ``query_tail_ms``: the highest percentile of 50/90/99/99.9/99.99 with at
  least ten operations beyond it, printed with that percentile and the
  sample count;
* ``setup_s``: spawn of a fresh worker to its first timed operation,
  including ``import fakedegrees`` (with ``verify`` and ``cli``), input
  generation and warm-up; the median over at least 21 processes;
* ``peak_rss_mb``: the worker's peak resident set;
* ``fail_frac``: failed over attempted operations.  It is printed but not
  bounded, being 0 on two workloads; the final line carries the counts.

``--trace 1`` runs pairs of rounds on the same inputs, one untraced and
one traced (tracer.py), and prints the per-layer metrics, the tracing
overhead (traced minus untraced ``wall_s``) and the untraced figures.

Every run checks the outputs (workloads.py) and writes a results file to
``perfbench/out/`` with the workload's properties and every failure with
its input.  The last line of standard output is one JSON object.  The exit
code is 1 when an output is wrong (a digest differs from reference.json,
a lookup answer differs from an independent route, or an operation fails
that is not a known failure), and 1 with no JSON line when a worker
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("certify-routes", "certify-bijections", "lookup")
E2E_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 21
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = now() + DEADLINE_S

    def spawn(self, workload: str, round_index: int, trace: int = 0,
              setup_only: bool = False, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--round", str(round_index),
               "--trace", str(trace), "--max-n", str(self.args.max_n),
               "--calls", str(self.args.calls)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = now()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=HERE.parent)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"{workload} round {round_index} ran out of time") from None
        if proc.returncode != 0:
            raise WorkerError(f"{workload} worker exited with code {proc.returncode}")
        result = json.loads(stdout.decode().strip().splitlines()[-1])
        result["raw_setup_s"] = result["ready"] - t0
        result["setup_s"] = result["raw_setup_s"] * REFERENCE_S / result["setup_probe_s"]
        return result

    def measure(self, workload: str) -> dict:
        """Untraced rounds until the time is up, then set-up probes."""
        start = now()
        rounds = []
        while not rounds or now() - start < self.args.seconds:
            rounds.append(self.spawn(workload, len(rounds)))
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn(workload, 0, setup_only=True)["setup_s"])
        return summarise(workload, rounds, setups)

    def measure_traced(self, workload: str) -> dict:
        """Pairs of untraced and traced rounds on the same inputs."""
        start = now()
        plain, traced = [], []
        OUT.mkdir(exist_ok=True)
        while not traced or now() - start < self.args.seconds:
            plain.append(self.spawn(workload, len(traced)))
            traced.append(self.spawn(workload, len(traced), trace=1,
                                     spans=OUT / f"{workload}.spans"))
        summary = summarise(workload, plain, [r["setup_s"] for r in plain])
        layers = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        summary["layers"] = layers
        summary["properties"]["tableaux_enumerated"] = (
            layers["tableaux.enumerate.items"] + layers["dominoes.enumerate.items"])
        summary["correct"] = summary["correct"] and all(r["correct"] for r in traced)
        summary["traced_rounds"] = [round_record(r) for r in traced]
        return summary


def round_record(r: dict) -> dict:
    keys = ("wall_s", "raw_wall_s", "raw_ops_s", "probe_s", "p50_ms", "tail_ms",
            "setup_s", "raw_setup_s", "peak_rss_mb", "attempted", "failed", "digest",
            "problems")
    return {k: r[k] for k in keys}


def summarise(workload: str, rounds: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = {}
    for r in rounds:
        for f in r["failures"]:
            failures.setdefault(f["op"], {**f, "rounds": 0})["rounds"] += 1
    properties = rounds[0]["properties"]
    properties["repeat_frac"] = med(r["properties"]["repeat_frac"] for r in rounds)
    return {
        "workload": workload,
        "correct": all(r["correct"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {
            "wall_s": med(r["wall_s"] for r in rounds),
            "query_p50_ms": med(r["p50_ms"] for r in rounds),
            "query_tail_ms": med(r["tail_ms"] for r in rounds),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        },
        "tail": rounds[0]["tail"],
        "setup_samples": setups,
        "properties": properties,
        "rounds": [round_record(r) for r in rounds],
        "failures": list(failures.values()),
    }


def report(summary: dict, trace: int) -> dict[str, dict]:
    """Print every metric by name with its unit; return the final metrics."""
    w = summary["workload"]
    m = summary["metrics"]
    tail = summary["tail"]
    lines = [(name, m[name], unit) for name, unit in E2E_UNITS.items()]
    lines.append(("fail_frac", summary["fail_frac"], "ratio"))
    for name, value, unit in lines:
        note = ""
        if name == "query_tail_ms":
            note = (f"  (p{tail['percentile']:g} of {tail['samples']} samples, "
                    f"{tail['beyond']} beyond)")
        elif name == "fail_frac":
            note = f"  ({summary['failed']}/{summary['attempted']} operations)"
        print(f"{w:<20} {name:<40} {value:>14.6g} {unit}{note}")
    for f in summary["failures"]:
        print(f"{w:<20} failed: {f['op']}: {f['error'][:100]}")
    problems = [p for r in summary["rounds"] + summary.get("traced_rounds", [])
                for p in r["problems"]]
    for p in sorted(set(problems)):
        print(f"{w:<20} INCORRECT: {p}")
    if not trace:
        return {name: {"value": m[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    from tracer import LAYER_METRICS

    layers = summary["layers"]
    for name, unit in LAYER_METRICS.items():
        print(f"{w:<20} {name:<40} {layers.get(name, 0.0):>14.6g} {unit}")
    return {name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-n", type=int, default=7, help="rank of the two sweeps")
    ap.add_argument("--calls", type=int, default=3000, help="lookup calls per round")
    args = ap.parse_args(argv)

    runner = Runner(args)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in workloads:
            summary = runner.measure_traced(w) if args.trace else runner.measure(w)
            summary.update(seed=args.seed, trace=args.trace, max_n=args.max_n,
                           calls=args.calls, seconds=args.seconds)
            summary["properties"].update(host())
            path = OUT / f"{w}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(summary, indent=1) + "\n")
            metrics = report(summary, args.trace)
            prefix = f"{w}." if len(workloads) > 1 else ""
            final["metrics"].update({prefix + k: v for k, v in metrics.items()})
            final["correct"] = final["correct"] and summary["correct"]
            final["attempted"] += summary["attempted"]
            final["failed"] += summary["failed"]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def host() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model}


if __name__ == "__main__":
    sys.exit(main())
