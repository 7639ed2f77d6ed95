"""The benchmark's workloads: inputs, set-up and one unit of timed work.

`prepare` runs in the benchmark's parent process, outside all timing, and
writes the inputs. `setup` and `unit` run in a child process: `setup` does
what every CLI call pays before its first solve or step, and `unit` does one
unit of work (one market step of the feeder, or one whole episode) and
returns its step latencies. Untraced, `unit` also measures the host
slowdown (calibrate.py) next to every window and leaves that time out of
the unit's timings. `check` verifies a unit's outputs afterwards,
outside its timing.

Inputs come from a pool of POOL seeded instances (input seed = seed % POOL
on the episodes, always 0 on feeder1000) so that every run can be checked
against a reference recorded in refs.json.
"""

import math
import os
import time

import calibrate
import checks
import feeder

POOL = 32


class SetupDone(BaseException):
    """Raised at the end of set-up in a set-up-only child. It derives from
    BaseException so the CLI's `except Exception` does not swallow it."""


def percentile(sorted_samples, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[k - 1]


def _span(tracer, name):
    return tracer.begin(name) if tracer is not None else None


def _end(tracer, i):
    if tracer is not None:
        tracer.finish(i)


class Feeder1000:
    """One clear and one DLMP solve per market step on a 1000-bus feeder."""

    name = "feeder1000"
    ops_per_unit = 2          # a clear and a DLMP solve, checked separately
    # A step is mostly 2-thread BLAS sweeps over a 132 MB matrix, bound by
    # memory bandwidth: across 16 processes running the same feeder, log
    # step time rose by 0.53 per unit of log slowdown (correlation 0.89).
    host_exponent = 0.5
    min_steps = 3

    def input_seed(self, seed):
        # One feeder for every seed: at one host speed, the clears of five
        # pool instances took 5.2-6.3 s, 1.7-2.7 s of it in HiGHS, a spread
        # across seeds that the host's own drift then adds to.
        return 0

    def prepare(self, root, input_seed, work_dir):
        paths, stats = feeder.write(input_seed, os.path.join(work_dir, "inputs"))
        return {"paths": paths, "stats": stats}

    def setup(self, spec, marks, stop_at_setup):
        from gridmarket import clearing, dlmp, network

        paths = spec["prepared"]["paths"]
        t = time.perf_counter()
        net = network.load_case(paths["case"])
        marks["load_case_s"] = time.perf_counter() - t
        with open(paths["bids"], encoding="utf-8") as f:
            bids, offers = clearing.parse_bids(f.read())
        market_input = clearing.MarketInput(bids=bids, offers=offers, network=net)
        with open(paths["offers"], encoding="utf-8") as f:
            gens, drs = dlmp.parse_offers(f.read())
        scopf_input = dlmp.ScopfInput(lmp_source=feeder.LMP_SOURCE, gen_offers=gens,
                                      dr_offers=drs, network=net)
        marks["setup_end"] = time.monotonic()
        return {"clearing": clearing, "dlmp": dlmp, "market_input": market_input,
                "scopf_input": scopf_input}

    def unit(self, st, tracer):
        # Untraced, the host slowdown is measured before the clear, between
        # the two calls and after the DLMP solve; each call gets the mean of
        # the two around it, and the step their time-weighted mean.
        slows, paused = [], 0.0

        def calibrate_now():
            nonlocal paused
            if tracer is None:
                t = time.perf_counter()
                slows.append(calibrate.slowdown(3))
                paused += time.perf_counter() - t

        calibrate_now()
        t0 = time.perf_counter()
        i = _span(tracer, "clearing.clear")
        dispatch = st["clearing"].clear(st["market_input"], segments=feeder.SEGMENTS)
        _end(tracer, i)
        t1 = time.perf_counter()
        calibrate_now()
        t1c = time.perf_counter()
        i = _span(tracer, "dlmp.solve_dlmp")
        result = st["dlmp"].solve_dlmp(st["scopf_input"])
        _end(tracer, i)
        t2 = time.perf_counter()
        calibrate_now()
        clear_s, dlmp_s = t1 - t0, t2 - t1c
        step = clear_s + dlmp_s
        slow = None
        if slows:
            slow = (clear_s * (slows[0] + slows[1])
                    + dlmp_s * (slows[1] + slows[2])) / (2 * step)
        return {"samples_ms": [step * 1e3], "clear_s": clear_s, "dlmp_s": dlmp_s,
                "out": (dispatch, result), "windows": [(1, step, step * 1e3, slow)],
                "paused": paused}

    def check(self, st, res, ref):
        dispatch, result = res["out"]
        failed = [checks.check_clear(dispatch, st["market_input"], ref),
                  checks.check_dlmp(result, st["scopf_input"], ref)]
        observed = {"total_surplus": dispatch.total_surplus,
                    "objective": result.objective}
        return failed, observed, 0


class Episode:
    """Whole `gridmarket run` episodes of a shipped demo config."""

    ops_per_unit = 1
    host_exponent = 1.0

    def __init__(self, name, config, grid_steps, market_steps, min_steps):
        self.name = name
        self.config = config
        self.grid_steps = grid_steps
        self.market_steps = market_steps
        self.min_steps = min_steps

    def input_seed(self, seed):
        return seed % POOL

    def prepare(self, root, input_seed, work_dir):
        out = os.path.join(work_dir, "episode")
        args = ["run", "--config", os.path.join(root, "cases", self.config),
                "--set", f"grid_steps={self.grid_steps}",
                "--set", f"market_steps={self.market_steps}",
                "--seed", str(input_seed), "--out", out]
        return {"args": args, "out": out,
                "stats": {"config": self.config, "grid_steps": self.grid_steps,
                          "market_steps": self.market_steps}}

    def setup(self, spec, marks, stop_at_setup):
        from gridmarket import cli, env

        load_case = cli.load_case

        def timed_load_case(*args, **kwargs):
            t = time.perf_counter()
            try:
                return load_case(*args, **kwargs)
            finally:
                marks.setdefault("load_case_s", time.perf_counter() - t)

        cli.load_case = timed_load_case
        st = {"cli": cli, "args": spec["prepared"]["args"],
              "out": spec["prepared"]["out"],
              "calibrate": spec["mode"] != "trace"}
        run_episode = env.Environment.run_episode

        # Set-up ends when the first episode starts. Market steps are timed
        # between successive post_market_step callbacks; post_market_step
        # counts and post_grid_step times mark the grid-step windows. The
        # host slowdown is measured before the first window and after every
        # window, on time taken out of the unit's clock.
        def clock():
            return time.perf_counter() - st["paused"]

        def calibrate_now():
            t = time.perf_counter()
            st["cals"].append(calibrate.slowdown())
            st["paused"] += time.perf_counter() - t

        def hooked(self, *args, **kwargs):
            marks.setdefault("setup_end", time.monotonic())
            if stop_at_setup:
                raise SetupDone
            times, grid_ends = st["times"], st["grid_ends"]
            if st["calibrate"]:
                calibrate_now()
            times.append(clock())
            self.register_callback("post_market_step",
                                   lambda _env: times.append(clock()))

            def grid_end(_env):
                grid_ends.append((clock(), len(times)))
                if st["calibrate"]:
                    calibrate_now()

            self.register_callback("post_grid_step", grid_end)
            return run_episode(self, *args, **kwargs)

        env.Environment.run_episode = hooked
        return st

    def unit(self, st, tracer):
        st.update(times=[], grid_ends=[], cals=[], paused=0.0)
        rc = st["cli"].main(st["args"])
        times, cals = st["times"], st["cals"]
        samples = [(b - a) * 1e3 for a, b in zip(times, times[1:])]
        windows, t_start, k = [], times[0] if times else 0.0, 0
        for j, (t_end, n) in enumerate(st["grid_ends"]):
            own = sorted(samples[k:n - 1])
            if own:
                slow = (cals[j] + cals[j + 1]) / 2 if cals else None
                windows.append((len(own), t_end - t_start, percentile(own, 50), slow))
            t_start, k = t_end, n - 1
        return {"samples_ms": samples, "windows": windows, "out": rc,
                "paused": st["paused"]}

    def check(self, st, res, ref):
        path = os.path.join(st["out"], "episode.jsonl")
        digest = checks.file_digest(path) if os.path.exists(path) else None
        failed = [checks.check_episode(res["out"], digest, ref)]
        log_bytes = os.path.getsize(path) if digest else 0
        return failed, {"episode_sha256": digest}, log_bytes


WORKLOADS = {w.name: w for w in (
    Feeder1000(),
    Episode("clearing_episode34", "demo_clearing.cfg", 24, 20, min_steps=1000),
    Episode("p2p_episode34", "demo_p2p.cfg", 24, 500, min_steps=1000),
)}
