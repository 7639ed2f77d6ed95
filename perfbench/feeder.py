"""Seeded synthetic 1000-bus radial feeder for the `feeder1000` workload.

The generator writes the three text files the program parses: a case
(buses and lines), a bids file for curve clearing and an offers file for the
SCOPF/DLMP solve. It imports nothing from the program, so the inputs do not
depend on the code under test.

Topology is a random recursive tree: bus b attaches to a uniformly chosen
earlier bus, as in the tests' `random_radial_network`. Every line gets a
finite limit, so the clearing LP carries two rows per line. About 5% of the
lines with real load behind them are capped at 50-80% of their baseline
flow; consumers value energy above the feeder price, so those caps bind in
the clear, and the SCOPF has to buy local generation or demand response to
meet them, so they bind there too.
"""

import os

import numpy as np

N_BUSES = 1000
CONSUMER_SHARE = 0.65       # share of non-root buses with a consumer
GEN_SHARE = 0.10            # share of non-root buses with a local generator
CAPPED_SHARE = 0.05         # share of lines capped below baseline flow
FEEDER_PRICE = 5.0          # cents/kWh, flat supply at the root
LMP_SOURCE = 5.0            # cents/kWh, source price for the SCOPF
SEGMENTS = 20               # blocks per curve in the clearing LP


def generate(seed):
    """Build the feeder for `seed`. Returns (texts, stats); texts maps
    "case", "bids" and "offers" to file contents."""
    rng = np.random.default_rng(seed)
    n = N_BUSES
    parent = [-1] + [int(rng.integers(0, b)) for b in range(1, n)]
    depth = [0] * n
    for b in range(1, n):
        depth[b] = depth[parent[b]] + 1

    # Fixed agent counts, so every seed gives an LP of the same shape.
    consumer_buses = sorted(int(b) for b in rng.choice(
        np.arange(1, n), size=round(CONSUMER_SHARE * (n - 1)), replace=False))
    consumers = {b: (float(rng.uniform(15, 30)), float(rng.uniform(6, 10)),
                     float(rng.uniform(5, 25))) for b in consumer_buses}
    gen_buses = sorted(int(b) for b in rng.choice(
        np.arange(1, n), size=round(GEN_SHARE * (n - 1)), replace=False))
    gens = {b: (float(rng.uniform(10, 16)), float(rng.uniform(6, 9)),
                float(rng.uniform(10, 40))) for b in gen_buses}

    # Baseline flow into each bus: all consumers at full demand, no local
    # generation. Buses are numbered so every parent precedes its children.
    base = np.zeros(n)
    for b, (_, _, q_max) in consumers.items():
        base[b] = q_max
    for b in range(n - 1, 0, -1):
        base[parent[b]] += base[b]

    loaded = [b for b in range(1, n) if base[b] > 20.0]
    n_capped = int(round(CAPPED_SHARE * (n - 1)))
    capped = set(int(b) for b in rng.choice(loaded, size=n_capped, replace=False))
    limits = {}
    for b in range(1, n):
        if b in capped:
            limits[b] = float(rng.uniform(0.5, 0.8) * base[b])
        else:
            limits[b] = float(1.5 * base[b] + 50.0)

    case = ["# synthetic radial feeder, seed %d" % seed]
    case += [f"bus {b}" for b in range(n)]
    case += [f"line l{parent[b]}_{b} {parent[b]} {b} {limits[b]!r}"
             for b in range(1, n)]

    bids = [f"bid feeder 0 S {FEEDER_PRICE!r} {FEEDER_PRICE!r} 100000.0 0"]
    for b, (p_max, p_min, q_max) in consumers.items():
        bids.append(f"bid c{b} {b} D {p_max!r} {p_min!r} {q_max!r} 0")
    for b, (p_max, p_min, q_max) in gens.items():
        bids.append(f"bid g{b} {b} S {p_max!r} {p_min!r} {q_max!r} 0")

    offers = []
    for b, (_, _, q_max) in gens.items():
        p1 = float(rng.uniform(6, 10))
        p2 = p1 + float(rng.uniform(0, 4))
        offers.append(f"gen {b} 0 {q_max!r} {q_max / 2!r},{p1!r} "
                      f"{q_max / 2!r},{p2!r}")
    for b, (_, _, q_max) in consumers.items():
        p1 = float(rng.uniform(8, 14))
        p2 = p1 + float(rng.uniform(1, 5))
        offers.append(f"dr {b} {q_max!r} {0.3 * q_max!r},{p1!r} "
                      f"{0.3 * q_max!r},{p2!r}")

    texts = {"case": "\n".join(case) + "\n", "bids": "\n".join(bids) + "\n",
             "offers": "\n".join(offers) + "\n"}
    non_root = depth[1:]
    stats = {
        "n_buses": n,
        "n_agents": len(bids),
        "mean_depth": float(np.mean(non_root)),
        "max_depth": int(max(non_root)),
        "ptdf_nnz": int(sum(non_root)),
        "capped_lines": n_capped,
    }
    return texts, stats


def write(seed, out_dir):
    """Write case.txt, bids.txt and offers.txt for `seed` into `out_dir`.
    Returns (paths, stats)."""
    texts, stats = generate(seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, text in texts.items():
        paths[key] = os.path.join(out_dir, f"{key}.txt")
        with open(paths[key], "w", encoding="utf-8") as f:
            f.write(text)
    return paths, stats
