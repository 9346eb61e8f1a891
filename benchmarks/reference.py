"""Machine-speed reference: a fixed pure-Python kernel timed inside each run.

The reference machine's speed drifts by up to ~1.7x over minutes, because of
load outside the process, and CPU time drifts with wall time.  Run-to-run
spread of the raw timings is therefore wider than any useful regression
bound.  A benchmark run times this kernel between its timed calls and
rescales each raw time to a machine on which the kernel takes
``REFERENCE_KERNEL_S``:

    reference time = raw time * REFERENCE_KERNEL_S / kernel time nearby

The kernel does the kind of work merocon does (complex arithmetic in Python
loops, small calls, tuples, dicts, JSON) and uses no merocon code, so a change
to merocon moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import cmath
import gc
import json
import statistics
import time

REFERENCE_KERNEL_S = 0.002

_COEFFS = tuple(complex(k % 7 - 3, k % 5 - 2) * 0.1 for k in range(12))


def _horner(z: complex) -> complex:
    acc = 0j
    for c in reversed(_COEFFS):
        acc = acc * z + c
    return acc


def kernel() -> complex:
    total = 0j
    table = {}
    for i in range(750):
        z = complex((i % 17) * 0.05, (i % 13) * -0.04)
        v = _horner(z)
        total += v * cmath.exp(-abs(z))
        table[i % 97] = (z, v)
    text = json.dumps({str(k): [z.real, v.imag] for k, (z, v) in table.items()})
    return total + len(json.loads(text))


def scale() -> float:
    """Factor that turns a raw time measured now into reference time.

    The median of three runs: the first run after a long timed call often
    finds the kernel's code and data evicted from the caches.
    """
    times = []
    gc.disable()  # a collection would charge the program's heap to the kernel
    try:
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return REFERENCE_KERNEL_S / statistics.median(times)
