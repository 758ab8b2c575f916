"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer in every
``fakedegrees`` module namespace that binds them (``from .x import y``
copies bindings), and the two hot ``QPolynomial`` methods on the class.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is one call of a wrapped function, or one resumption of a wrapped
generator, so an enumerator is timed across its iteration and counts the
items it yields.  A recursive call of a wrapped function is not wrapped
again.  Spans stay in memory and are written out at the end.  The self
time of a span is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, group).  A group is named <module>.<group>.
FUNCTIONS = (
    ("tableaux", "enumerate_syt", "tableaux.enumerate"),
    ("tableaux", "enumerate_tuple_tableaux", "tableaux.enumerate"),
    ("tableaux", "maj_syt", "tableaux.maj"),
    ("tableaux", "maj_tuple", "tableaux.maj"),
    ("tableaux", "syt_maj_gf", "tableaux.gf"),
    ("tableaux", "tuple_maj_gf", "tableaux.gf"),
    ("tableaux", "tuple_maj_gf_restricted", "tableaux.gf"),
    ("tableaux", "largest_label_component", "tableaux.other"),
    ("dominoes", "enumerate_sdt", "dominoes.enumerate"),
    ("dominoes", "maj_domino", "dominoes.maj"),
    ("dominoes", "sdt_maj_gf", "dominoes.gf"),
    ("bijections", "pi_c", "bijections.insert"),
    ("bijections", "pi_b", "bijections.insert"),
    ("bijections", "pi_c_prime", "bijections.prime"),
    ("bijections", "pi_b_prime", "bijections.prime"),
    ("shapes", "lusztig_rho1_inverse", "shapes.lusztig_inverse"),
    ("shapes", "lusztig_rho2_inverse", "shapes.lusztig_inverse"),
    ("shapes", "lusztig_rho1", "shapes.lusztig"),
    ("shapes", "lusztig_rho2", "shapes.lusztig"),
    ("qpoly", "q_factorial", "qpoly.q_factorial"),
    ("qpoly", "q_multinomial", "qpoly.formula"),
    ("qpoly", "hook_syt_gf", "qpoly.formula"),
    ("fakedeg", "regular_representation_sum", "fakedeg.regular_sum"),
    ("fakedeg", "check_corollary1_bc", "fakedeg.cor1"),
    ("fakedeg", "check_corollary1_d", "fakedeg.cor1"),
    ("fakedeg", "special_partner_bc", "fakedeg.other"),
    ("fakedeg", "is_shifted_submultiset", "fakedeg.other"),
)
FLIPS = ("flip_c", "flip_b")
ROUTED = ("fake_degree_wreath", "fake_degree_bc", "fake_degree_d")
ROUTES = ("formula", "enumeration", "tuple", "domino_even", "domino_odd", "domino", "shifted")
METHODS = (("__mul__", "qpoly.mul"), ("exact_div", "qpoly.exact_div"))
MODULES = ("tableaux", "dominoes", "bijections", "shapes", "qpoly", "fakedeg")

# name -> unit of every per-layer metric, in the order they are printed.
LAYER_METRICS = {
    "tableaux.enumerate.items": "count",
    "tableaux.enumerate.self_s": "s",
    "tableaux.maj.calls": "count",
    "tableaux.maj.self_s": "s",
    "tableaux.gf.self_s": "s",
    "dominoes.enumerate.items": "count",
    "dominoes.enumerate.self_s": "s",
    "dominoes.maj.self_s": "s",
    "dominoes.gf.self_s": "s",
    "bijections.insert.calls": "count",
    "bijections.insert.self_s": "s",
    "bijections.flip.calls": "count",
    "bijections.flip.self_s": "s",
    "bijections.flip.swaps": "count",
    "bijections.flip.rule_errors": "count",
    "shapes.lusztig_inverse.calls": "count",
    "shapes.lusztig_inverse.self_s": "s",
    "shapes.lusztig_inverse.distinct_ratio": "ratio",
    "shapes.lusztig.self_s": "s",
    "qpoly.mul.calls": "count",
    "qpoly.mul.self_s": "s",
    "qpoly.mul.coeff_ops": "count",
    "qpoly.exact_div.calls": "count",
    "qpoly.exact_div.self_s": "s",
    "qpoly.q_factorial.distinct_ratio": "ratio",
    **{f"fakedeg.route.{r}.{s}": u for r in ROUTES for s, u in (("calls", "count"), ("self_s", "s"))},
    "fakedeg.regular_sum.self_s": "s",
    "fakedeg.cor1.self_s": "s",
    **{f"{m}.total.self_s": "s" for m in MODULES},
    "bench.unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in flat arrays: group, parent span, op index, start, end."""

    def __init__(self):
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.group = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.seen: defaultdict = defaultdict(set)
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _gid(self, name: str) -> int:
        gid = self._ids.get(name)
        if gid is None:
            gid = self._ids[name] = len(self.groups)
            self.groups.append(name)
        return gid

    def _begin(self, gid: int) -> int:
        idx = len(self.group)
        self.group.append(gid)
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _function(self, fn, group: str, note=None):
        gid = self._gid(group)
        calls = group + ".calls"
        inside = False

        def wrapper(*args, **kwargs):
            nonlocal inside
            if inside:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            if note is not None:
                note(args)
            inside = True
            idx = self._begin(gid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)
                inside = False

        return wrapper

    def _generator(self, fn, group: str):
        gid = self._gid(group)
        calls, items = group + ".calls", group + ".items"
        inside = False

        def resume(gen):
            nonlocal inside
            while True:
                inside = True
                idx = self._begin(gid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._finish(idx)
                    inside = False
                self.counts[items] += 1
                yield item

        def wrapper(*args, **kwargs):
            if inside:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            return resume(fn(*args, **kwargs))

        return wrapper

    def _routed(self, fn):
        signature = inspect.signature(fn)
        wrapped = {r: self._function(fn, f"fakedeg.route.{r}") for r in ROUTES}

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return wrapped[bound.arguments["route"]](*args, **kwargs)

        return wrapper

    def _flip(self, fn, bijections):
        gid = self._gid("bijections.flip")

        def wrapper(pair, trace=None):
            if trace is None:
                trace = bijections.Trace()
            before = len(trace.swaps)
            self.counts["bijections.flip.calls"] += 1
            idx = self._begin(gid)
            try:
                return fn(pair, trace)
            except bijections.RuleError:
                self.counts["bijections.flip.rule_errors"] += 1
                raise
            finally:
                self._finish(idx)
                self.counts["bijections.flip.swaps"] += len(trace.swaps) - before

        return wrapper

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        def module(name):
            return importlib.import_module("fakedegrees." + name)

        bijections, fakedeg, qpoly = module("bijections"), module("fakedeg"), module("qpoly")
        wrappers = {}
        for modname, name, group in FUNCTIONS:
            fn = getattr(module(modname), name)
            if inspect.isgeneratorfunction(fn):
                wrappers[fn] = self._generator(fn, group)
            elif group in ("shapes.lusztig_inverse", "qpoly.q_factorial"):
                # distinct inputs over calls: the share a memo would save
                seen = self.seen[group]
                wrappers[fn] = self._function(
                    fn, group, lambda a, name=name, seen=seen: seen.add((name, a[0])))
            else:
                wrappers[fn] = self._function(fn, group)
        for name in FLIPS:
            fn = getattr(bijections, name)
            wrappers[fn] = self._flip(fn, bijections)
        for name in ROUTED:
            fn = getattr(fakedeg, name)
            wrappers[fn] = self._routed(fn)

        for modname, mod in list(sys.modules.items()):
            if modname != "fakedegrees" and not modname.startswith("fakedegrees."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        cls = qpoly.QPolynomial

        def note_mul(args):
            self.counts["qpoly.mul.coeff_ops"] += len(args[0].coeffs) * len(args[1].coeffs)

        for attr, group in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            note = note_mul if attr == "__mul__" else None
            setattr(cls, attr, self._function(original, group, note))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self, ops_s: float, scale: float) -> dict[str, float]:
        """Per-group self time, calls and items, per-module totals, and the
        time inside operations that no wrapped call covers.  Times are
        multiplied by ``scale``, the round's speed-probe factor."""
        n = len(self.group)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        top = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        self_s = [0.0] * len(self.groups)
        for i in range(n):
            self_s[self.group[i]] += end[i] - start[i] - child[i]

        out = {name: 0.0 for name in LAYER_METRICS}
        for gid, name in enumerate(self.groups):
            out[name + ".self_s"] = self_s[gid] * scale
            total = name.split(".", 1)[0] + ".total.self_s"
            out[total] = out.get(total, 0.0) + self_s[gid] * scale
        out.update(self.counts)
        for group in ("shapes.lusztig_inverse", "qpoly.q_factorial"):
            calls = self.counts[group + ".calls"]
            out[group + ".distinct_ratio"] = len(self.seen[group]) / calls if calls else 0.0
        out["bench.unattributed.self_s"] = (ops_s - top) * scale
        out["trace.wall_s"] = ops_s * scale
        return out

    def write(self, path) -> None:
        """Header line (JSON), then the span arrays back to back."""
        header = {
            "groups": self.groups,
            "spans": len(self.group),
            "arrays": [["group", "i"], ["parent", "i"], ["op", "i"],
                       ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.group, self.parent, self.op_of, self.start, self.end):
                arr.tofile(f)
