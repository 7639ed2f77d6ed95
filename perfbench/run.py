"""gridmarket benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Each measurement runs in a fresh child
Python process (perfbench/child.py) that imports the program from ./src,
one child at a time. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name and unit, the environment record and the inputs.
A full report is written under .perfbench_work/reports/.

--trace 0 reports the end-to-end metrics from untraced children.
--trace 1 reports the per-layer metrics: one untraced child, then two traced
children whose exact counts must agree unit for unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import EXACT  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

SETUP_CHILDREN = 7        # set-up-only children, each timing one set-up
HARD_SECONDS = 170.0      # the whole run ends within this, or exits non-zero
E2E = [("setup_s", "s"), ("steps_per_s", "1/s"), ("step_ms.p50", "ms"),
       ("peak_rss_mb", "MB")]


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.input_seed = self.wl.input_seed(seed)
        self.tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.work = os.path.join(ROOT, ".perfbench_work", self.tag)
        self.deadline = time.monotonic() + HARD_SECONDS
        self.n_child = 0
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def spawn(self, mode, seconds=0.0, min_steps=1, **extra):
        """Run one child to completion; returns its result with setup_s."""
        self.n_child += 1
        spec = {"mode": mode, "workload": self.wl.name, "seconds": seconds,
                "min_steps": min_steps,
                "result": os.path.join(self.work, f"child{self.n_child}.json"),
                **extra}
        remaining = self.deadline - time.monotonic()
        spec["hard_seconds"] = max(1.0, remaining - 20.0)
        spec_path = os.path.join(self.work, f"spec{self.n_child}.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child timed out") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with {proc.returncode}")
        with open(spec["result"], encoding="utf-8") as f:
            res = json.load(f)
        if "setup_end" in res:
            res["setup_s"] = res["setup_end"] - t_spawn
        return res

    def run(self):
        os.makedirs(self.work, exist_ok=True)
        load_start = os.getloadavg()
        with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as f:
            ref = json.load(f)[self.wl.name].get(str(self.input_seed))
        if ref is None:
            raise ChildFailed(f"refs.json has no reference for input seed "
                              f"{self.input_seed}")
        prepared = self.wl.prepare(ROOT, self.input_seed, self.work)
        common = {"prepared": prepared, "ref": ref}
        env = self.spawn("probe")["env"]     # also warms caches, untimed
        setups = [self.spawn("setup", **common) for _ in range(SETUP_CHILDREN)]
        if self.trace:
            base = self.spawn("measure", 0.4 * self.seconds, self.wl.min_steps,
                              **common)
            traced = [self.spawn("trace", 0.3 * self.seconds,
                                 spans=os.path.join(self.work, f"spans{k}.npz"),
                                 **common)
                      for k in range(2)]
            children = [base] + traced
            metrics, report = self.layer_metrics(setups, base, traced)
        else:
            main = self.spawn("measure", self.seconds, self.wl.min_steps, **common)
            children = [main]
            metrics, report = self.e2e_metrics(setups, main)

        attempted = sum(c["attempted"] for c in children) + report.pop("_attempted", 0)
        failed = sum(c["failed"] for c in children) + report.pop("_failed", 0)
        failures = {}
        for c in children:
            for k, v in c["failures"].items():
                failures[k] = failures.get(k, 0) + v
        env.update(self.host_record())
        env["loadavg_start"] = list(load_start)
        env["loadavg_end"] = list(os.getloadavg())
        full = {"workload": self.wl.name, "seed": self.seed,
                "input_seed": self.input_seed, "seconds": self.seconds,
                "trace": int(self.trace), "env": env, "inputs": prepared["stats"],
                "attempted": attempted, "failed": failed, "failures": failures,
                "metrics": metrics, **report}
        self.print_report(full)
        self.keep(full)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def e2e_metrics(self, setups, main):
        # Timings are divided by the host slowdown measured next to them
        # (calibrate.py): a set-up's in its own child, a window's before and
        # after it, raised to the workload's host_exponent. The run reports
        # the median over set-ups and windows.
        setup_raw = [r["setup_s"] for r in setups]
        setup = [r["setup_s"] / r["slowdown"] for r in setups]
        windows = [w for u in main["units"] for w in u["windows"]]
        speed = [slow ** self.wl.host_exponent for *_, slow in windows]
        rates = [steps / wall for steps, wall, _, _ in windows]
        p50s = [p50 for _, _, p50, _ in windows]
        values = {"setup_s": statistics.median(setup),
                  "steps_per_s": statistics.median(r * f for r, f in zip(rates, speed)),
                  "step_ms.p50": statistics.median(p / f for p, f in zip(p50s, speed)),
                  "peak_rss_mb": main["rss_mb"]}
        metrics = {name: (values[name], unit) for name, unit in E2E}
        report = {"step_samples": main["n_samples"], "setup_samples_s": setup_raw,
                  "setup_slowdowns": [r["slowdown"] for r in setups],
                  "raw": {"setup_s": statistics.median(setup_raw),
                          "steps_per_s": statistics.median(rates),
                          "step_ms.p50": statistics.median(p50s)},
                  "host_slowdown": statistics.median(speed),
                  "setup_slowdown": statistics.median(r["slowdown"] for r in setups),
                  "step_ms.p99": main["step_ms.p99"],
                  "windows": len(windows),
                  "units": [{k: v for k, v in u.items() if k != "observed"}
                            for u in main["units"]]}
        for key in ("clear_s", "dlmp_s"):
            vals = [u[key] for u in main["units"] if key in u]
            if vals:
                report[key] = statistics.median(vals)
        return metrics, report

    def layer_metrics(self, setups, base, traced):
        units = [m for c in traced for m in c["layers"]]
        metrics = {
            "cli.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
            "network.load_case_s": (
                statistics.median(s["load_case_s"] for s in setups), "s"),
        }
        for key in units[0]:
            if key == "wall_s":
                continue
            unit = ("%" if key.endswith("_pct") else "MB" if key.endswith("_mb")
                    else "ratio" if key.endswith("_ratio")
                    else "bytes" if key.endswith("_bytes") else "count")
            mid = statistics.median if unit == "%" else statistics.median_low
            metrics[key] = (mid(m[key] for m in units), unit)
        untraced = statistics.median(u["wall_s"] for u in base["units"])
        traced_wall = statistics.median(m["wall_s"] for m in units)
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - untraced) / untraced, "%")
        metrics["step_ms.p99"] = (base["step_ms.p99"], "ms")
        metrics["step_samples"] = (base["n_samples"], "count")
        unwrapped = sorted(set(traced[0]["unwrapped"]))
        metrics["trace.unwrapped"] = (len(unwrapped), "count")

        # Exact-count self-check: one checked operation, failed on mismatch.
        mismatched = sorted({k for m in units for k in EXACT if m[k] != units[0][k]})
        report = {"_attempted": 1, "_failed": int(bool(mismatched)),
                  "exact_count_mismatch": mismatched, "unwrapped": unwrapped,
                  "traced_units": len(units),
                  "untraced_unit_s": untraced, "traced_unit_s": traced_wall}
        return metrics, report

    @staticmethod
    def host_record():
        rec = {"nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)),
               "git_sha": None}
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                rec["git_sha"] = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
        return rec

    def print_report(self, full):
        print(f"perfbench {full['workload']} seed={full['seed']} "
              f"input_seed={full['input_seed']} trace={full['trace']}")
        print("env " + json.dumps(full["env"], sort_keys=True))
        print("inputs " + json.dumps(full["inputs"], sort_keys=True))
        for name, (value, unit) in full["metrics"].items():
            print(f"{name} {value:.6g} {unit}")
        if "raw" in full:
            print(f"host_slowdown {full['host_slowdown']:.4g} in windows, "
                  f"{full['setup_slowdown']:.4g} after set-up (medians; each "
                  f"timing above is divided by its own)")
            print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in full["raw"].items()))
        ratio = full["failed"] / full["attempted"]
        print(f"fail_ratio {ratio:.6g} ratio ({full['failed']}/{full['attempted']} "
              f"checked operations failed) {json.dumps(full['failures'])}")
        for key in ("clear_s", "dlmp_s"):
            if key in full:
                print(f"{key} {full[key]:.6g} s (median per call)")
        if "step_samples" in full:
            print(f"step_samples {full['step_samples']} count")
            print(f"step_ms.p99 {full['step_ms.p99']:.6g} ms (nearest rank, all steps)")
        if full.get("exact_count_mismatch"):
            print("exact-count mismatch: " + ", ".join(full["exact_count_mismatch"]))
        if full.get("unwrapped"):
            print("not traced (gone from the program): " + ", ".join(full["unwrapped"]))

    def keep(self, full):
        """Keep the report (and spans of a traced run); drop the inputs."""
        reports = os.path.join(ROOT, ".perfbench_work", "reports")
        os.makedirs(reports, exist_ok=True)
        with open(os.path.join(reports, self.tag + ".json"), "w", encoding="utf-8") as f:
            json.dump(full, f, indent=1, sort_keys=True)
        for name in os.listdir(self.work):
            if name.startswith("spans"):
                os.replace(os.path.join(self.work, name),
                           os.path.join(reports, f"{self.tag}-{name}"))
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = runner.run()
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        shutil.rmtree(runner.work, ignore_errors=True)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
