#!/usr/bin/env python3
"""Steadiness check: runs one tusbench workload N times, each with the next
seed, and prints every metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median) beside the
bound BENCHMARK.json gives it. A metric is steady when its spread is below a
third of its bound; setup_s is exempt (its median may move by its bound).

Run from the repository root after building the benchmark:

    cargo build --release --offline --manifest-path tusbench/Cargo.toml
    python3 tusbench/steady.py --workload daemon-cold --runs 10 --seed 1 --seconds 15

The quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--bin", default=None, help="tusbench executable (default: the release build)")
    a = p.parse_args()
    if a.runs < 2:
        sys.exit("--runs needs at least 2")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    exe = a.bin or os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "tusbench")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values, wrong, shares = {}, 0, []
    for k in range(a.runs):
        seed = a.seed + k
        out = subprocess.run(
            [exe, "--workload", a.workload, "--seed", str(seed), "--seconds", str(a.seconds), "--trace", a.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        line = json.loads(out.stdout.strip().splitlines()[-1])
        ok = out.returncode == 0 and line["correct"]
        wrong += not ok
        shares.append(line["failed"] / max(line["attempted"], 1))
        for name, m in line["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: {'ok' if ok else 'WRONG'} attempted={line['attempted']} failed={line['failed']}", flush=True)

    steady = True
    print(f"{'metric':<28} {'unit':>9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'ok':>4}")
    for name, (unit, v) in sorted(values.items()):
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        if bound is None or name == "setup_s":
            verdict = "-"
        elif spread < bound / 3:
            verdict = "yes"
        else:
            verdict, steady = "NO", False
        print(f"{name:<28} {unit:>9} {med:>14.6f} {q1:>14.6f} {q3:>14.6f} {spread:>8.4f} {str(bound or '-'):>6} {verdict:>4}")
    print(f"runs={a.runs} wrong={wrong} failed share per run: {shares}")
    sys.exit(0 if steady and wrong == 0 else 1)


if __name__ == "__main__":
    main()
