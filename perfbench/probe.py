"""Speed probe: scales measured times to a fixed interpreter speed.

The benchmark runs on shared hosts whose speed swings by up to 2x over a
few seconds, which moves every time alike.  Before and after every timed
operation the benchmark times a fixed pure-Python snippet (tuples, a dict,
integer arithmetic, like the package's own code) and reports each time
multiplied by ``REFERENCE_S / probe``: the time the operation would have
taken while the snippet takes ``REFERENCE_S``.  More work in the program
still shows in full; only the host's swings cancel.  Raw times are kept in
the results files.
"""

from __future__ import annotations

from time import perf_counter

# The snippet's time on a shared 2-vCPU Intel Xeon VM with Python 3.11, fast phase.
REFERENCE_S = 20e-6


def _snippet() -> int:
    d = {}
    acc = 0
    for i in range(64):
        t = (i, i + 1, (i * 7) % 13)
        d[t] = i
        acc += d[t] * t[2]
    return acc + len([x for x in range(48) if x % 3])


def probe() -> float:
    """Time of the snippet, the least of three tries (an interrupt or a
    context switch only ever adds time)."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        _snippet()
        best = min(best, perf_counter() - t)
    return best
