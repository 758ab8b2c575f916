"""The three benchmark workloads: inputs from a seed, one timed round, gates.

Every workload calls the package's public functions from outside, one
operation at a time, and times each operation.  An operation that raises,
or whose routes disagree, is a failed operation: it is recorded with its
input and the round goes on.

* ``certify-routes``: every route-agreement check of thm1 (d = 1, 2, 3),
  thm2, thm5, poincare and cor1 for ranks n <= max_n.  The enumeration half
  of the certificate; it never calls the bijections and no input repeats.
* ``certify-bijections``: certification of both maj-preserving bijections
  for every pair shape with n <= max_n, plus the thm4 domino-vs-tuple check
  on every type-D label.  Insertion, flips, the Lusztig inverses and domino
  enumeration dominate.  At n = 7 the flip procedure is ambiguous for two
  tableaux, so four operations fail at this commit; they are recorded as
  known failures, never hidden.
* ``lookup``: one caller in a closed loop, single library calls at the
  default routes.  About half of the calls repeat an earlier label, so a
  cache would show here and not on the sweeps.

Labels are generated here, not by the package, so that the program only
receives inputs.  The sweeps use the seed to shuffle their order; the
lookup stream is drawn from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from functools import lru_cache
from pathlib import Path

from fakedegrees import bijections, dominoes, fakedeg, shapes, tableaux
from probe import REFERENCE_S, probe

LOOKUP_RANKS = {"bc": range(4, 9), "d": range(4, 9), "wreath3": range(8, 13)}
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
REFERENCE = Path(__file__).with_name("reference.json")


# ---------------------------------------------------------------------------
# Labels, generated independently of the package


def partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def multipartitions(n: int, d: int):
    if d == 1:
        for p in partitions(n):
            yield (p,)
        return
    for k in range(n, -1, -1):
        for head in partitions(k):
            for tail in multipartitions(n - k, d - 1):
                yield (head,) + tail


def d_labels(n: int):
    """(pair, marker) of every type-D irreducible of rank n."""
    for a, b in multipartitions(n, 2):
        if a > b:
            yield (a, b), 1
        elif a == b:
            yield (a, b), 1
            yield (a, b), 2


def fmt(mp) -> str:
    return "|".join(",".join(map(str, p)) for p in mp)


# ---------------------------------------------------------------------------
# Operations.  Each returns (value folded into the digest, failure or None).


def _compare(reference, others) -> tuple:
    """Compute every other route and compare it with the reference route."""
    ref_name, ref_fn = reference
    ref = ref_fn()
    polys = {ref_name: ref}
    errors = {}
    for name, fn in others:
        try:
            polys[name] = fn()
        except Exception as exc:  # a failing route is a failed check, not a crash
            errors[name] = f"{type(exc).__name__}: {exc}"
    failure = None
    if errors:
        failure = {"error": "; ".join(f"{k}: {v}" for k, v in errors.items())}
    elif any(p != ref for p in polys.values()):
        failure = {
            "error": "routes disagree",
            "routes": {k: list(p.coeffs) for k, p in polys.items()},
        }
    return ref.coeffs, failure


def op_thm1(mp, d):
    fd = fakedeg.fake_degree_wreath
    return _compare(
        ("formula", lambda: fd(mp, d, "formula")),
        [("enumeration", lambda: fd(mp, d, "enumeration"))],
    )


def op_thm2(pair):
    bc = fakedeg.fake_degree_bc
    return _compare(
        ("hook_formula", lambda: fakedeg.fake_degree_wreath(pair, 2, "formula")),
        [(r, lambda r=r: bc(pair, r)) for r in ("domino_even", "domino_odd", "tuple")],
    )


def _type_d(pair, marker, other):
    rep = fakedeg.d_rep(pair, marker)
    fd = fakedeg.fake_degree_d
    return _compare(("tuple", lambda: fd(rep, "tuple")), [(other, lambda: fd(rep, other))])


def op_thm5(pair, marker):
    return _type_d(pair, marker, "shifted")


def op_thm4(pair, marker):
    return _type_d(pair, marker, "domino")


def op_poincare(group, d, n):
    if group == "wreath":
        product = lambda: fakedeg.poincare_wreath(d, n)  # noqa: E731
    else:
        product = lambda: fakedeg.poincare_d(n)  # noqa: E731
    return _compare(
        ("poincare", product),
        [("regular_sum", lambda: fakedeg.regular_representation_sum(group, n, d))],
    )


def op_cor1(group, n):
    if group == "bc":
        records = fakedeg.check_corollary1_bc(n)
        value = tuple(
            (fmt(r["label"]), fmt(r["special"]), tuple(r["exponents"]), r["ok"])
            for r in records
        )
    else:
        records = fakedeg.check_corollary1_d(n)
        value = tuple(
            (fmt(r["label"]), fmt(r["special"]), tuple(map(tuple, r["parts"])), r["ok"])
            for r in records
        )
    bad = [fmt(r["label"]) for r in records if not r["ok"]]
    failure = {"error": "exponents do not embed", "labels": bad} if bad else None
    return value, failure


def op_bijection(kind, pair):
    """Certify one map on one pair shape: every image is a tuple tableau of
    the shape with the same maj, and the images are exactly the tuple
    tableaux of the shape."""
    if kind == "even":
        shape, prime = shapes.lusztig_rho1(pair), bijections.pi_c_prime
    else:
        shape, prime = shapes.lusztig_rho2(pair), bijections.pi_b_prime
    majs, images, errors = [], [], []
    maj_ok = True
    for t in dominoes.enumerate_sdt(shape):
        m = dominoes.maj_domino(t)
        majs.append(m)
        try:
            z = prime(t)
        except bijections.RuleError as exc:
            errors.append({"tableau": [list(map(list, c)) for c in t.dominoes],
                           "error": f"RuleError: {exc}"})
            continue
        if tableaux.maj_tuple(z) != m:
            maj_ok = False
        images.append(z)
    # the tableaux that do map are checked whether or not others raised
    universe = set(tableaux.enumerate_tuple_tableaux(pair))
    problems = []
    if not maj_ok:
        problems.append("an image has another maj")
    if len(set(images)) != len(images):
        problems.append("two tableaux have the same image")
    if not set(images) <= universe:
        problems.append("an image is not a tuple tableau of the shape")
    if not errors and len(images) != len(universe):
        problems.append("a tuple tableau of the shape is not an image")
    if not (errors or problems):
        return tuple(sorted(majs)), None
    failure = {"error": "; ".join([e["error"] for e in errors] + problems)}
    if errors:
        failure["tableaux"] = errors
    return tuple(sorted(majs)), failure


def op_lookup(kind, label):
    if kind == "bc":
        return fakedeg.fake_degree_bc(label), None
    if kind == "d":
        return fakedeg.fake_degree_d(fakedeg.d_rep(*label)), None
    return fakedeg.fake_degree_wreath(label, 3), None


# ---------------------------------------------------------------------------
# Inputs


def sweep_ops(workload: str, max_n: int) -> list[tuple]:
    """(key, function, args) of every check of a sweep, in a fixed order."""
    ops = []
    if workload == "certify-routes":
        for d in (1, 2, 3):
            for n in range(max_n + 1):
                ops += [(f"thm1 d={d} {fmt(mp)}", op_thm1, (mp, d))
                        for mp in multipartitions(n, d)]
        for n in range(max_n + 1):
            ops += [(f"thm2 {fmt(p)}", op_thm2, (p,)) for p in multipartitions(n, 2)]
        for n in range(2, max_n + 1):
            ops += [(f"thm5 {fmt(p)};c={c}", op_thm5, (p, c)) for p, c in d_labels(n)]
        for d in (2, 3):
            ops += [(f"poincare wreath({d},{n})", op_poincare, ("wreath", d, n))
                    for n in range(max_n + 1)]
        ops += [(f"poincare typeD({n})", op_poincare, ("d", 2, n))
                for n in range(2, max_n + 1)]
        ops += [(f"cor1 typeBC({n})", op_cor1, ("bc", n)) for n in range(max_n + 1)]
        ops += [(f"cor1 typeD({n})", op_cor1, ("d", n)) for n in range(2, max_n + 1)]
    elif workload == "certify-bijections":
        for n in range(max_n + 1):
            for p in multipartitions(n, 2):
                ops += [(f"bijection-{k} {fmt(p)}", op_bijection, (k, p))
                        for k in ("even", "odd")]
        for n in range(2, max_n + 1):
            ops += [(f"thm4 {fmt(p)};c={c}", op_thm4, (p, c)) for p, c in d_labels(n)]
    else:
        raise ValueError(f"not a sweep: {workload!r}")
    return ops


def lookup_ops(seed: int, round_index: int, calls: int) -> list[tuple]:
    """A seeded stream of single library calls.

    Kind and rank are dealt in shuffled blocks holding each (kind, rank)
    once, so each third of the stream and each rank get exactly their
    share; that keeps the seed-to-seed spread of a round's cost small.
    Labels are drawn uniformly with replacement from all labels of the
    rank, so about half of the calls repeat an earlier label.
    """
    universe = {
        **{("bc", n): list(multipartitions(n, 2)) for n in LOOKUP_RANKS["bc"]},
        **{("d", n): list(d_labels(n)) for n in LOOKUP_RANKS["d"]},
        **{("wreath3", n): list(multipartitions(n, 3)) for n in LOOKUP_RANKS["wreath3"]},
    }
    cells = list(universe)
    rng = random.Random(f"lookup:{seed}:{round_index}")
    ops = []
    while len(ops) < calls:
        block = cells[:]
        rng.shuffle(block)
        for kind, n in block[: calls - len(ops)]:
            label = rng.choice(universe[kind, n])
            key = f"d {fmt(label[0])};c={label[1]}" if kind == "d" else f"{kind} {fmt(label)}"
            ops.append((key, op_lookup, (kind, label)))
    return ops


def build(workload: str, seed: int, round_index: int, max_n: int, calls: int) -> list[tuple]:
    """The ops of one round: the sweep in a seeded order, or a lookup stream."""
    if workload == "lookup":
        return lookup_ops(seed, round_index, calls)
    ops = sweep_ops(workload, max_n)
    random.Random(f"{workload}:{seed}:{round_index}").shuffle(ops)
    return ops


def warm_up(workload: str) -> None:
    """Run each kind of operation once on a rank-2 input, untimed, so that
    lazy imports and first-call costs fall into set-up."""
    if workload == "lookup":
        for kind, label in (("bc", ((1,), (1,))), ("d", (((1,), (1,)), 1)),
                            ("wreath3", ((1,), (1,), ()))):
            op_lookup(kind, label)
        return
    seen = set()
    for key, fn, args in sweep_ops(workload, 2):
        if fn not in seen:
            seen.add(fn)
            fn(*args)


# ---------------------------------------------------------------------------
# One round


def run(ops: list[tuple], tracer=None) -> dict:
    """Run every op once, timing each; tracing covers only this loop.

    The speed probe runs before the first op and after each one; an op's
    scaled latency is its raw latency times ``REFERENCE_S`` over the mean
    of the probes on either side of it.
    """
    values, failures, latencies = [], [], []
    clock = time.perf_counter
    probes = [probe()]
    if tracer is not None:
        tracer.install()
    start = clock()
    try:
        for i, (key, fn, args) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                value, failure = fn(*args)
            except Exception as exc:  # the round must go on; the digest records it
                value, failure = f"error {type(exc).__name__}", {
                    "error": f"{type(exc).__name__}: {exc}"}
            latencies.append(clock() - t)
            probes.append(probe())
            values.append(value)
            if failure is not None:
                failures.append({"op": key, **failure})
    finally:
        wall = clock() - start
        if tracer is not None:
            tracer.uninstall()
    scaled = [lat * REFERENCE_S * 2 / (probes[i] + probes[i + 1])
              for i, lat in enumerate(latencies)]
    return {"raw_wall_s": wall, "raw_ops_s": sum(latencies), "wall_s": sum(scaled),
            "scaled": scaled, "probe_s": statistics.median(probes),
            "values": values, "failures": failures}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile of the
    ladder with at least ten samples beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100 - 1e-9))
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def digest(ops: list[tuple], values: list) -> str:
    """Order-independent digest of every (input, output) pair."""
    lines = sorted(f"{key}\t{_plain(v)!r}" for (key, _, _), v in zip(ops, values))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _plain(value):
    return value.coeffs if hasattr(value, "coeffs") else value


def gate_sweep(workload: str, max_n: int, round_digest: str, failures: list) -> list[str]:
    """Problems with a sweep's outputs: a digest that differs from the
    stored one, or a failure that is not a known failure of this commit
    recorded exactly as stored (error and offending inputs).  A known
    failure that no longer occurs is not a problem."""
    stored = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(max_n))
    if stored is None:
        return [f"no stored digest for {workload} at max_n={max_n}"]
    problems = []
    if round_digest != stored["digest"]:
        problems.append(f"digest {round_digest} differs from stored {stored['digest']}")
    known = stored["known_failures"]
    for f in failures:
        record = json.loads(json.dumps({k: v for k, v in f.items() if k != "op"}))
        if f["op"] not in known:
            problems.append(f"unexpected failure: {f['op']}")
        elif record != known[f["op"]]:
            problems.append(f"known failure changed: {f['op']}: {f['error']}")
    return problems


def gate_lookup(ops: list[tuple], values: list) -> list[str]:
    """Check every lookup answer, repeats included, against an independent
    route computed once per label: the hook formula for B/C, the shifted
    sum for D, and for G(3,1,n) a q-Pascal multinomial times SYT
    enumeration, coded here."""
    problems = []
    expected = {}
    for (key, _, (kind, label)), answer in zip(ops, values):
        if key not in expected:
            if kind == "bc":
                expected[key] = fakedeg.fake_degree_wreath(label, 2, "formula").coeffs
            elif kind == "d":
                expected[key] = fakedeg.fake_degree_d(fakedeg.d_rep(*label), "shifted").coeffs
            else:
                expected[key] = _wreath_by_enumeration(label, 3)
        if getattr(answer, "coeffs", None) != expected[key]:
            problems.append(f"{key}: answer differs from the independent route")
    return problems


def _wreath_by_enumeration(mp, d: int) -> tuple:
    sizes = [sum(p) for p in mp]
    inner = [1]
    total = 0
    for k in sizes:
        total += k
        inner = _poly_mul(inner, _q_binomial(total, k))
    for p in mp:
        inner = _poly_mul(inner, _syt_gf(p))
    b = sum(i * k for i, k in enumerate(sizes))
    out = [0] * (b + d * (len(inner) - 1) + 1)
    for k, c in enumerate(inner):
        out[b + d * k] = c
    return tuple(out)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> list:
    """Gaussian binomial by the q-Pascal rule, no division."""
    if k == 0 or k == n:
        return [1]
    a = _q_binomial(n - 1, k - 1)
    b = [0] * k + _q_binomial(n - 1, k)
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


@lru_cache(maxsize=None)
def _syt_gf(p) -> list:
    return list(tableaux.syt_maj_gf(p).coeffs)


def properties(workload: str, ops: list[tuple], max_n: int) -> dict:
    """What the inputs of one round are, for the results file."""
    seen = set()
    repeats = 0
    for key, _, _ in ops:
        repeats += key in seen
        seen.add(key)
    if workload == "lookup":
        ranks = {k: [r.start, r.stop - 1] for k, r in LOOKUP_RANKS.items()}
    else:
        ranks = [0, max_n]
    return {
        "ops": len(ops),
        "distinct_inputs": len(seen),
        "repeat_frac": repeats / len(ops),
        "ranks": ranks,
    }

