"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload compare --seeds 1-10

Runs are sequential. For every metric it prints the median over seeds and
the quartile spread (Q3 - Q1) / median beside the metric's bound in
BENCHMARK.json; every spread should stay within its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        mid = statistics.median(vals)
        share = spread(vals) if len(vals) >= 2 and mid else 0.0
        print(f"{args.workload} {name}: median {mid:.6g} spread {share:.4f} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
