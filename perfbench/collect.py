"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles``,
n=4), the sample count and the spread: the distance between the
quartiles as a share of the median.  End-to-end spreads are compared
against a third of each metric's bound.  ``--out`` writes the summary
as JSON under ``end_to_end`` or ``per_layer``, which is how
``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, steady = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}")
                return 1
            runs.append({k: v["value"] for k, v in line["metrics"].items()})
            environment = json.loads(proc.stdout.split("environment ", 1)[1].splitlines()[0])
            del environment["seed"], environment["workload"]
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        summary[workload] = {}
        for name in runs[0]:
            stats = summarise([r[name] for r in runs])
            summary[workload][name] = stats
            limit = bounds.get(name, 0.0) / 3
            flag = ""
            if name in bounds and name != "setup_s" and stats["spread"] > limit:
                flag, steady = f"  > bound/3 = {limit:.3f}", False
            if args.trace == 0 or name in bounds:
                print(f"  {name}: median {stats['median']:.6g} q1 {stats['q1']:.6g} "
                      f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f}{flag}")
    if args.out:
        # one file holds both kinds: each mode replaces only its own key
        saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        saved["per_layer" if args.trace else "end_to_end"] = summary
        saved["environment"] = environment
        args.out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
