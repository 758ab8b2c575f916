"""Command-line interface.

Exit codes: 0 success, 1 verification or route-agreement failure, 2 usage
error (malformed input, unknown names, out-of-range indices, a sweep with
no checks), 3 an internal rule broke (a bijection or flip step raised
RuleError; `verify` reports it as a failing record with an "error" field
and goes on with the sweep), 141 (128 + SIGPIPE) the reader of stdout
closed it early, as `head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain

from .bijections import RuleError, Trace, flip_b, flip_c, pair_maj_b, pair_maj_c, pi_b, pi_c
from .dominoes import enumerate_sdt, maj_domino, sdt_at, sdt_maj_gf
from .fakedeg import DEFAULT_ROUTE, ROUTES, fake_degree, poincare, representation
from .qpoly import QPolynomial
from .shapes import (
    format_partition,
    lusztig_rho1,
    lusztig_rho2,
    parse_multipartition,
    parse_partition,
)
from .tableaux import (
    enumerate_syt,
    enumerate_tuple_tableaux,
    format_tableau,
    format_tuple_tableau,
    label_positions,
    maj_syt,
    maj_tuple,
)
from .verify import SUITES, run_suite


class UsageError(Exception):
    pass


def _poly_json(p: QPolynomial) -> dict:
    return {"coeffs": list(p.coeffs), "pretty": p.pretty()}


def _cmd_compute(args) -> int:
    rep = representation(args.group, parse_multipartition(args.label), args.d, args.marker)
    route = args.route or DEFAULT_ROUTE[args.group]
    names = ROUTES[args.group] if route == "all" else (route,)
    results = {name: fake_degree(rep, name) for name in names}

    polys = list(results.values())
    agree = all(p == polys[0] for p in polys)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": args.group,
                    "routes": {name: _poly_json(p) for name, p in results.items()},
                    "agree": agree,
                },
                sort_keys=True,
            )
        )
    else:
        if len(results) == 1:
            print(polys[0].pretty())
        else:
            for name, p in results.items():
                print(f"{name}: {p.pretty()}")
            print("verdict:", "agree" if agree else "DISAGREE")
    return 0 if agree else 1


def _format_sdt(t) -> str:
    return " / ".join(
        "[" + ",".join(f"({r},{c})" for (r, c) in cells) + "]" for cells in t.dominoes
    )


# --kind -> (shape parser, enumerator, formatter, major index)
_KINDS = {
    "syt": (parse_partition, enumerate_syt, format_tableau, maj_syt),
    "sdt": (parse_partition, enumerate_sdt, _format_sdt, maj_domino),
    "tuple": (parse_multipartition, enumerate_tuple_tableaux, format_tuple_tableau, maj_tuple),
}


@contextmanager
def _batched(out):
    """A function that writes a line to out, 256 lines to a write, as
    stdout may be unbuffered (PYTHONUNBUFFERED): a `print` a line costs
    two system calls there.  The lines still pending are written on the
    way out, an exception's too, so a sweep that dies keeps every record
    it finished."""
    lines = []

    def write_batch():
        text = "".join(lines)
        lines.clear()  # before the write, so a failed batch is not retried
        if text:
            out.write(text)

    def write(line: str) -> None:
        lines.append(line)
        if len(lines) == 256:
            write_batch()

    try:
        yield write
    finally:
        write_batch()


def _cmd_enumerate(args) -> int:
    parse, tableaux, fmt, maj = _KINDS[args.kind]
    count = 0
    with _batched(sys.stdout) as write:
        for count, t in enumerate(tableaux(parse(args.shape)), start=1):
            write(fmt(t) + (f"  maj={maj(t)}" if args.with_maj else "") + "\n")
        write(f"count: {count}\n")
    return 0


def _cmd_map(args) -> int:
    pair = parse_multipartition(args.pair)
    print("rho1:", format_partition(lusztig_rho1(pair)) or "-")
    print("rho2:", format_partition(lusztig_rho2(pair)))
    return 0


def _case_name(prefix: str, domino: tuple[tuple[int, int], tuple[int, int]]) -> str:
    """Descriptive case label of an insertion step: orientation plus
    row/column and extreme-square parities of the domino, whose second
    cell is its extreme square (`DominoTableau` stores its cells in
    increasing order)."""
    (r1, c1), (r2, c2) = domino
    kind, line, extreme = ("H", r1, c2) if r1 == r2 else ("V", c1, r2)
    return f"{prefix}-{kind}{'eo'[line % 2]}{'eo'[extreme % 2]}"


def _cmd_explain(args) -> int:
    shape = parse_partition(args.shape)
    count = sum(sdt_maj_gf(shape).coeffs)
    if not count:
        raise UsageError(f"shape {args.shape!r} supports no standard domino tableaux")
    if not 0 <= args.index < count:
        raise UsageError(f"index {args.index} out of range (0..{count - 1})")
    t = sdt_at(shape, args.index)
    insert, pair_maj, flip, prefix, kind = (
        (pi_b, pair_maj_b, flip_b, "piB", "odd (size 2n+1)") if t.size % 2
        else (pi_c, pair_maj_c, flip_c, "piC", "even (size 2n)")
    )
    trace = Trace()
    pair = insert(t)
    final = flip(pair, trace)

    print(f"standard domino tableau #{args.index} of shape {args.shape}:")
    print(t.render())
    print(f"map: {kind}")
    for label, (target, row, col) in sorted(label_positions(pair).items()):
        print(
            f"  label {label}: rule {_case_name(prefix, t.cells_of(label))} -> "
            f"tableau {target}, cell {(row, col)}"
        )
    print("intermediate pair:", format_tuple_tableau(pair))
    print("pair descent major index:", pair_maj(pair))
    if trace.swaps:
        print("flips:", ", ".join(f"({i},{i + 1})" for i in trace.swaps))
    else:
        print("flips: none")
    print("final pair:", format_tuple_tableau(final))
    print("maj(domino):", maj_domino(t))
    print("maj(tuple):", maj_tuple(final))
    print("maj preserved:", "true" if maj_tuple(final) == maj_domino(t) else "false")
    return 0 if maj_tuple(final) == maj_domino(t) else 1


def _cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"invalid suite {args.suite!r}")
    created = args.out and not os.path.exists(args.out)  # by the probe below
    if args.out:
        try:
            open(args.out, "a").close()  # writable, checked before the sweep without emptying it
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    records = run_suite(args.suite, args.max_n)
    first = next(records, None)
    if first is None:
        if created:
            os.remove(args.out)
        raise UsageError(f"suite {args.suite} has no checks up to --max-n {args.max_n}")
    bad, broken = 0, 0
    with (
        open(args.out, "w") if args.out else nullcontext(sys.stdout) as out,
        _batched(out) as write,
    ):
        for checks, record in enumerate(chain((first,), records), start=1):
            write(json.dumps(record, sort_keys=True) + "\n")
            bad += not record["agree"]
            broken += "error" in record
    summary = f"suite {args.suite}: {checks} checks, {bad} failures"
    if broken:
        summary += f" ({broken} internal rule errors)"
    print(summary, file=sys.stderr)
    if broken:
        return 3
    return 0 if not bad else 1


def _cmd_poincare(args) -> int:
    p = poincare(args.group, args.n, args.d)
    if args.format == "json":
        print(json.dumps(_poly_json(p), sort_keys=True))
    else:
        print(p.pretty())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fakedegrees",
        description="Fake degree polynomials of classical Weyl groups and "
        "wreath products, with cross-validating routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a fake degree polynomial")
    p.add_argument("--group", choices=tuple(ROUTES), required=True)
    p.add_argument("--d", type=int, default=2, help="cyclic order for wreath")
    label = p.add_mutually_exclusive_group(required=True)
    label.add_argument(
        "--pair", dest="label", metavar="PAIR", help='ordered pair "p1|p2", e.g. "1,1|1"'
    )
    label.add_argument(
        "--multi", dest="label", metavar="MULTI", help='d-multipartition "p1|...|pd"'
    )
    p.add_argument("--marker", type=int, default=1, choices=(1, 2))
    p.add_argument("--route", default=None, help="route name or 'all' (default: one canonical route)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("enumerate", help="list tableaux of a shape")
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--with-maj", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="print both associated partitions of a pair")
    p.add_argument("--pair", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("explain", help="trace the bijection on one tableau")
    p.add_argument("--shape", required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("poincare", help="Poincaré polynomial of a group")
    p.add_argument("--group", choices=tuple(ROUTES), required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_poincare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone: stdout to devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
