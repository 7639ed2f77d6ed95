"""Host-speed calibration: fixed kernels timed next to the work they scale.

On a shared 2-core x86-64 VM the processor's speed changes by up to 2x for
seconds to minutes at a time, and a plain timing measures that mix as much
as the program. The benchmark therefore times fixed kernels next to its timings
and divides each timing by the slowdown they show: kernel time as a
multiple of its time on the reference host in its fast state. The kernels
use none of the program's code, so a change to the program moves only the
timings being scaled.

`slowdown()` is the mean over five kinds of interpreted and small-array
work (calls with dict stores and tuple appends, small BLAS products, JSON
encoding, sorting, small-array ufuncs), run with the garbage collector off
so the program's heap cannot reach into them. No single one of the five
followed both episode workloads; their mean did. Each workload declares
how strongly its timings follow the slowdown (`host_exponent`, the slope of
log time on log slowdown measured on the reference host), and the run
divides by slowdown ** host_exponent.
"""

import functools
import gc
import json
import time


@functools.lru_cache(maxsize=None)
def _data():
    # numpy is imported here, not at module level: set-up children import
    # this module before they time the program's own imports.
    import numpy as np

    rng = np.random.default_rng(12345)
    table = {str(i): [i, float(i), "x" * (i % 7)] for i in range(300)}
    return np, rng.random((80, 80)), rng.random(20000), table


def _f(a, b):
    return a * 0.5 + b


def calls():
    d, out = {}, []
    for i in range(9000):
        d[i & 255] = _f(float(i), 1.0)
        out.append((i, d[i & 255]))
    return len(out)


def matmul():
    np, a, _, _ = _data()
    x = a
    for _ in range(60):
        x = np.tanh(x @ a * 0.01)
    return x


def encode():
    table = _data()[3]
    return [json.dumps(table, sort_keys=True) for _ in range(10)]


def sort():
    np, _, v, _ = _data()
    return [np.sort(v) for _ in range(15)]


def ufuncs():
    np = _data()[0]
    x = np.zeros(50)
    for _ in range(750):
        x = x + np.sqrt(x[::-1] + 1.0) * 0.5
    return x


# kernel -> its median time (s) on the reference host in its fast state
KERNELS = [(calls, 2.0e-3), (matmul, 2.0e-3), (encode, 2.1e-3), (sort, 2.1e-3),
           (ufuncs, 1.9e-3)]


def slowdown(reps=1):
    """Mean of kernel time / reference time, each kernel's time the median
    of `reps` runs, garbage collector off."""
    _data()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = []
        for kernel, ref in KERNELS:
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t)
            times.sort()
            ratios.append(times[len(times) // 2] / ref)
    finally:
        if enabled:
            gc.enable()
    return sum(ratios) / len(ratios)
