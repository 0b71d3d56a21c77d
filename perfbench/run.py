"""mixval benchmark: time real CLI jobs end to end, or trace them per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference

A run starts ``SETUPS`` workload processes one after another; each
imports mixval from ``src/``, generates its configs and runs one untimed
warm-up job, and ``setup_s`` is the median of their set-up times.  The
last process then runs timed jobs for ``--seconds``.  With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Every job's outputs are checked; the last stdout line is the JSON
result, and the exit code is nonzero when any check fails.

``--smoke`` runs every workload at a tiny size with and without tracing
and checks that every metric named in BENCHMARK.json is reported.
``--record-reference`` rewrites reference.json from the code as it is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 5
SETUP_TIMEOUT_S = 60
# the reference check allows this much relative drift per value;
# training runs hundreds of steps, so it gets more room
TOLERANCE = {"rtol": 1e-6, "atol": 1e-12}
RETRAIN_TOLERANCE = {"rtol": 1e-4, "atol": 1e-12}


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, trace: int, size: str,
          timeout: float) -> tuple[float, dict]:
    """Run one worker process; return its set-up time and JSON result."""
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} ran over {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result.get("ready_at", spawned) - spawned, result


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, worker details)."""
    setups, problems, attempted, failed = [], [], 0, 0
    for _ in range(SETUPS - 1):
        took, res = spawn("setup", workload, seed, seconds, trace, size, SETUP_TIMEOUT_S)
        setups.append(took)
        problems += res["problems"]
        attempted += res["attempted"]
        failed += res["failed"]
    took, res = spawn("run", workload, seed, seconds, trace, size, SETUP_TIMEOUT_S + seconds + 90)
    setups.append(took)
    problems += res["problems"]
    attempted += res["attempted"]
    failed += res["failed"]
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    res["problems"] = problems
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, res


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, trace: int, result: dict, res: dict) -> dict:
    """Print every metric by name with its unit; return the contract line."""
    units = declared_metrics(trace)
    print(f"environment {json.dumps(res['environment'], sort_keys=True)}")
    print(f"workload {workload} seed {seed}: {res['jobs']} timed jobs, unit = {res['unit']}")
    for problem in res["problems"][:20]:
        print(f"CHECK FAILED {problem}")
    if len(res["problems"]) > 20:
        print(f"CHECK FAILED ... {len(res['problems']) - 20} more")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"failed_frac {frac:.6g} ({result['failed']} of {result['attempted']} units)")
    if not trace:
        print(f"raw_units_per_s {res['raw_units_per_s']:.6g} 1/s (wall clock, before "
              f"scaling by machine_slowdown {res['machine_slowdown']:.4f})")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {**result, "metrics": metrics}


def smoke() -> int:
    """Every workload at a tiny size, both modes; every declared metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            started = time.monotonic()
            try:
                result, res = run_workload(w["name"], 0, 0.0, trace, "tiny")
            except BenchError as exc:
                print(f"smoke {w['name']} trace={trace}: FAIL {exc}")
                bad += 1
                continue
            missing = sorted(set(declared_metrics(trace)) - set(result["metrics"]))
            ok = result["correct"] and not missing
            bad += not ok
            print(f"smoke {w['name']} trace={trace}: {'ok' if ok else 'FAIL'} "
                  f"({time.monotonic() - started:.1f} s, {result['attempted']} units"
                  f"{', missing ' + ', '.join(missing) if missing else ''}"
                  f"{', problems ' + '; '.join(res['problems']) if res['problems'] else ''})")
    return 1 if bad else 0


def record_reference() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for w in spec["workloads"]:
        _, values = spawn("record", w["name"], 0, 0.0, 0, "full", 300)
        tolerance = RETRAIN_TOLERANCE if w["name"] == "retrain-groundtruth" else TOLERANCE
        workloads[w["name"]] = {**tolerance, **values}
    (HERE / "reference.json").write_text(
        json.dumps({"seed": 0, "workloads": workloads}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "mixval" / "__init__.py").is_file():
        print(f"error: no mixval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        parser.error("--workload is required")
    try:
        result, res = run_workload(args.workload, args.seed, args.seconds, args.trace, "full")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(args.workload, args.seed, args.trace, result, res)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
