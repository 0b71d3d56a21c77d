"""One workload process: set up, run timed CLI jobs, check every output.

Started by ``run.py`` with a pinned environment; prints one JSON line.
``--mode setup`` stops once set-up is done (import, config generation,
one untimed warm-up job); ``--mode run`` goes on to the timed jobs;
``--mode record`` prints the reference values of the default seed.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# one thread everywhere, set before numpy loads: an unpinned run
# measures the scheduler, not the program
PINNED_ENV = {
    "MIXVAL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
MIN_JOBS = 3
# median calibrate() time on the machine the baseline was measured on
CALIB_REF_S = 0.15


@dataclass
class Job:
    units: int
    failed: int
    seconds: float
    output_bytes: int
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)


def import_library():
    """Import mixval from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mixval" / "__init__.py").is_file():
        sys.exit(f"error: no mixval sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixval

    if Path(mixval.__file__).resolve().parent != SRC / "mixval":
        sys.exit(f"error: imported mixval from {mixval.__file__}, not {SRC}")
    return mixval


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "env": {key: os.environ[key] for key in PINNED_ENV},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def calibrate() -> float:
    """Seconds taken by a fixed numpy + Python kernel that runs no mixval code.

    The shared 2-vCPU machine the baseline was taken on drifts by +-20%
    over minutes (co-tenant load: CPU time tracks wall time, so it is
    not descheduling).  Timing this kernel next to the jobs measures the
    machine's current speed.  The timed part allocates no arrays and runs
    with garbage collection off, so the program's heap does not leak
    into the measurement.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.linspace(1e-6, 0.5, 100_000)
    neg_x, buf = -x, np.ones_like(x)
    a, b = rng.standard_normal((200, 160)), rng.standard_normal((240, 160))
    block = np.ones((200, 240))
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(120):  # streaming ufuncs, as in the scaling oracle
            np.log1p(neg_x, out=buf)
            np.multiply(buf, 50.0, out=buf)
            np.exp(buf, out=buf)
            np.dot(x, buf)
        for _ in range(120):  # small BLAS blocks and exp, as in mmd and ntk
            np.matmul(a, b.T, out=block)
            np.abs(block, out=block)
            np.negative(block, out=block)
            np.exp(block, out=block)
            block.sum()
        total = 0
        for i in range(1_200_000):  # interpreter overhead, as in training loops
            total += i
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_job(workload, cfg: dict, workdir: Path, tag: str, keep_values: bool,
            tracer=None) -> Job:
    """Run one CLI job in-process (timed, traced if a tracer is given),
    then check its outputs (untimed, never traced)."""
    cfg_path = workdir / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / f"out-{tag}"
    argv = [workload.subcommand, "--config", str(cfg_path), "--out", str(out)]
    units = workload.units(cfg)
    sink = io.StringIO()
    spans = tracer.installed() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with spans, contextlib.redirect_stdout(sink):
            # looked up inside the span context: tracing rebinds it
            code = importlib.import_module("mixval.cli").main(argv)
    except Exception:  # a crashing job is a failed job; keep measuring
        traceback.print_exc()
        code = None
    took = time.perf_counter() - start
    job = Job(units, units, took, 0)
    if code != 0:
        job.problems.append(f"{tag}: mixval {workload.subcommand} exited with {code}")
    else:
        try:
            job.failed, job.problems = workload.check(cfg, out)
            if keep_values:
                job.values = workload.values(cfg, out)
        except (OSError, KeyError, ValueError) as exc:
            job.problems.append(f"{tag}: unreadable outputs: {exc!r}")
        job.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out, ignore_errors=True)
    cfg_path.unlink()
    return job


def compare(values: dict[str, float], want: dict[str, float], rtol: float,
            atol: float) -> tuple[float, list[str]]:
    """Largest relative deviation from reference values, and any misses."""
    problems = []
    if set(values) != set(want):
        problems.append(f"output keys differ from the reference: {sorted(set(values) ^ set(want))[:5]}")
    worst = 0.0
    for key in set(values) & set(want):
        gap = abs(values[key] - want[key])
        worst = max(worst, gap / max(abs(want[key]), atol))
        if not gap <= rtol * abs(want[key]) + atol:
            problems.append(f"{key}: {values[key]!r} vs reference {want[key]!r}")
    return worst, problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    os.environ.update(PINNED_ENV)
    import_library()
    from tracing import Tracer, called, exact_counts, layer_metrics
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "record":
            record = {}
            for size in ("tiny", "full"):
                job = run_job(workload, workload.config(DEFAULT_SEED, 0, size), workdir, size, True)
                if job.problems:
                    sys.exit("error: cannot record references: " + "; ".join(job.problems))
                record[size] = job.values
            print(json.dumps(record))
            return
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        ref = references["workloads"][workload.name]
        problems: list[str] = []
        deviations = [0.0]
        attempted = failed = 0

        def account(job: Job, reference: str | None = None) -> None:
            """Add a checked job to the run's totals; a job whose values
            miss the recorded ``reference`` fails all its units."""
            nonlocal attempted, failed
            if reference and not job.problems:
                worst, misses = compare(job.values, ref[reference], ref["rtol"], ref["atol"])
                deviations.append(worst)
                if misses:
                    job.failed = job.units
                    job.problems += [f"reference ({reference}): {m}" for m in misses]
            attempted += job.units
            failed += job.failed
            problems.extend(job.problems)

        # set-up ends with one untimed warm-up job at the default seed,
        # checked against this commit's recorded values
        warm = run_job(workload, workload.config(DEFAULT_SEED, 0, "tiny"), workdir, "warmup", True)
        account(warm, "tiny")
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "environment": environment(workload.name, args.seed)}
        if args.mode == "setup":
            result.update(problems=problems, attempted=attempted, failed=failed)
            print(json.dumps(result))
            return

        tracer = Tracer()
        untraced, traced_pairs, spans_per_job, calibrations = [], [], [], []
        started = time.monotonic()
        job_index = 0
        while True:
            cfg = workload.config(args.seed, job_index, args.size)
            calibrations.append(calibrate())
            if args.trace:
                t_job = run_job(workload, cfg, workdir, f"job{job_index}t", False, tracer)
                spans_per_job.append(tracer.reset())
                account(t_job)
                if job_index == 0:
                    output_bytes = t_job.output_bytes
            job = run_job(
                workload, cfg, workdir, f"job{job_index}",
                job_index == 0 and args.size == "full" and args.seed == DEFAULT_SEED,
            )
            account(job, "full" if job.values else None)
            untraced.append(job)
            if args.trace:
                traced_pairs.append(t_job.seconds - job.seconds)
            job_index += 1
            elapsed = time.monotonic() - started
            per_job = statistics.median(j.seconds for j in untraced) * (1 + args.trace)
            if job_index >= MIN_JOBS and elapsed + per_job > args.seconds:
                break

        if args.trace:
            first = spans_per_job[0]
            for layer in workload.layers:
                if not called(first, layer):
                    problems.append(f"traced run: layer {layer} recorded zero calls")
            # the work counts must repeat exactly: trace the first job again
            again = run_job(
                workload, workload.config(args.seed, 0, args.size), workdir, "repeat", False, tracer
            )
            account(again)
            counts, counts_again = exact_counts(first), exact_counts(tracer.reset())
            if counts != counts_again:
                problems.append(f"work counts differ between two runs of one job: {counts} vs {counts_again}")
            metrics = layer_metrics(
                spans_per_job,
                {
                    "cli.output_bytes": output_bytes,
                    "output.max_rel_dev": max(deviations),
                    "trace.overhead_s": statistics.median(traced_pairs),
                },
            )
        else:
            calibrations.append(calibrate())
            raw = statistics.median((j.units - j.failed) / j.seconds for j in untraced)
            # the rate at the reference machine speed: the kernel ran
            # ``machine`` times as long as on the reference machine
            machine = statistics.median(calibrations) / CALIB_REF_S
            metrics = {
                "units_per_s": raw * machine,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result.update(raw_units_per_s=raw, machine_slowdown=machine)
        result.update(
            problems=problems,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            jobs=len(untraced),
            job_seconds=[j.seconds for j in untraced],
            unit=workload.unit,
        )
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other workers may still use it
            workdir.parent.rmdir()


if __name__ == "__main__":
    main()
