"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--workload NAME ...]

Run from the root of a source tree whose outputs are trusted. For every
workload and every input seed of the pool it runs one unit of work in a
child, checks everything that needs no reference (budget balance, line
limits, consumer surplus, binding lines, DLMP decomposition, exit code) and
stores total surplus and DLMP objective (feeder1000) or the sha256 of
episode.jsonl (episodes) in perfbench/refs.json.
"""

import argparse
import json
import os
import shutil
import sys

from run import HERE, ROOT, ChildFailed, Runner
from workloads import POOL, WORKLOADS


def record(name, input_seed):
    runner = Runner(name, input_seed, 0.0, False)
    os.makedirs(runner.work, exist_ok=True)
    try:
        prepared = runner.wl.prepare(ROOT, input_seed, runner.work)
        res = runner.spawn("measure", 0.0, 1, prepared=prepared, ref=None)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    if res["failed"]:
        raise ChildFailed(f"{name} seed {input_seed}: checks failed {res['failures']}")
    return res["units"][0]["observed"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    path = os.path.join(HERE, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            refs = json.load(f)
    for name in args.workload or sorted(WORKLOADS):
        refs[name] = {str(s): record(name, s) for s in range(POOL)}
        print(f"{name}: {POOL} references", file=sys.stderr)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
