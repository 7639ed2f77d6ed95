"""One benchmark child process: `python3 child.py <spec.json>`.

Modes (spec["mode"]):
  probe    import the program and report the environment record;
  setup    set up once and exit (one set-up time sample);
  measure  set up, then run work units untraced for spec["seconds"];
  trace    the same with the tracer installed, at least one unit.

The child writes its result as JSON to spec["result"]. Set-up end is
reported on the system-wide monotonic clock, so the parent can time set-up
from the moment it spawned the child.
"""

import gc
import json
import os
import resource
import sys
import time
import traceback


def blas_record():
    """OpenBLAS version string and thread count of the loaded numpy."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({ln.split()[-1] for ln in f
                       if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": None, "blas_threads": None}


def probe():
    import numpy
    import scipy

    import gridmarket.cli

    # The program under test is the tree's own src/, never an installed copy.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(gridmarket.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"gridmarket imported from {gridmarket.cli.__file__}, not {src}")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_record()}


def run(spec):
    mode = spec["mode"]
    if mode == "probe":
        return {"env": probe()}

    import calibrate
    from workloads import WORKLOADS, SetupDone, percentile

    wl = WORKLOADS[spec["workload"]]
    marks = {}
    t = time.perf_counter()
    import gridmarket.cli  # noqa: F401
    marks["import_s"] = time.perf_counter() - t

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    st = wl.setup(spec, marks, stop_at_setup=(mode == "setup"))
    if mode == "setup":
        if "setup_end" not in marks:
            try:
                wl.unit(st, None)
            except SetupDone:
                pass
        marks["slowdown"] = calibrate.slowdown(15)
        return marks

    ref = spec.get("ref")
    units, samples = [], []
    attempted = failed = 0
    failures = {}
    t_start = time.perf_counter()
    while True:
        # Start every unit from the same heap: the episode environment holds
        # reference cycles, so the previous unit's records would otherwise
        # linger until a full collection at a time that depends on the run.
        gc.collect()
        i = tracer.begin_unit() if tracer else None
        t0 = time.perf_counter()
        try:
            res = wl.unit(st, tracer)
        except Exception:
            traceback.print_exc()
            res = None
        wall = time.perf_counter() - t0 - (res or {}).get("paused", 0.0)
        if tracer:
            tracer.finish(i)
        attempted += wl.ops_per_unit
        if res is None:
            failed += wl.ops_per_unit
            failures["exception"] = failures.get("exception", 0) + 1
            res = {"samples_ms": [wall * 1e3],      # time until the failure
                   "windows": [(1, wall, wall * 1e3, calibrate.slowdown())]}
            unit = {}
        else:
            op_failures, observed, log_bytes = wl.check(st, res, ref)
            for names in op_failures:
                failed += bool(names)
                for name in names:
                    failures[name] = failures.get(name, 0) + 1
            unit = {"observed": observed}
            for key in ("clear_s", "dlmp_s"):
                if key in res:
                    unit[key] = res[key]
            if tracer:
                tracer.counters[-1]["env.log_bytes"] = log_bytes
        own = sorted(res["samples_ms"])
        samples.extend(own)
        unit.update(wall_s=wall, steps=len(own), p50_ms=percentile(own, 50),
                    windows=res["windows"] or [(1, wall, wall * 1e3, calibrate.slowdown())])
        units.append(unit)
        elapsed = time.perf_counter() - t_start
        if elapsed >= spec["hard_seconds"]:
            break
        if elapsed >= spec["seconds"] and len(samples) >= spec["min_steps"]:
            break

    samples.sort()
    out = {**marks, "units": units, "attempted": attempted, "failed": failed,
           "failures": failures, "n_samples": len(samples),
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if samples:
        out["step_ms.p99"] = percentile(samples, 99)
    if tracer:
        out["layers"] = [tracer.unit_metrics(u) for u in range(len(units))]
        out["unwrapped"] = tracer.unwrapped
        tracer.dump(spec["spans"])
    return out


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    out = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
