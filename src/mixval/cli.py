"""Command-line entry point.

One executable (``mixval``, or ``python -m mixval``), eight subcommands:

  simulate     scaling-law curves and breakpoint reports over a pi grid
  discrepancy  multi-kernel MMD between two sample files
  gram         tangent-kernel Gram matrix and bound term for a sample file
  value        score every contributor in a directory against a test sample
  marginal     Shapley or leave-one-out marginal values of contributors
  groundtruth  retrain per contributor and record test metrics
  evaluate     correlate a score file with a ground-truth file
  bench        time valuation against retraining on a built-in fixture

Configs are JSON; an unknown key or a value of the wrong JSON type is a
config error.  Every output file is CSV or JSON, UTF-8 with LF line
endings, written atomically (temp file plus rename) once the run has
succeeded, so a failed run writes no file.  A manifest with
input/output digests, the seed, library versions and wall time is
printed to stdout; wall time never goes into output files, so a rerun
with the same config and seed is byte identical.  Exit codes: 0
success, 2 config error or an output that cannot be written, 3 domain
error, 4 numerical error.
MIXVAL_THREADS sets the worker-thread count for per-contributor loops
(default 1).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._seeds import check_seed, derive_seed
from .errors import ConfigError, DomainError, MixvalError, NumericalError, check_count, check_reals
from .evalharness import (
    TrainingConfig,
    evaluate_method,
    GroundTruth,
    make_shift_fixture,
    time_method,
    train_ground_truth,
)
from .longtail import (
    CSV_HEADER,
    Contributor,
    MixtureSpec,
    check_unique_ids,
    contributor_files,
    csv_text,
    make_contributors,
    parse_contributor_rows,
    read_contributors,
    read_csv,
    write_text,
)
from .mmd import DistanceBlocks, MultiKernelSpec, mmd
from .ntk import MLPSpec, Model, default_ridge, init_params, ntk_gram, bound_term, predict
from .scaling import (
    ScalingParams,
    detect_breakpoints,
    log_grid,
    sweep,
)
from .valuation import (
    CoalitionWeighting,
    ValuationConfig,
    ValuationScore,
    ValuationWeights,
    fit_score_weights,
    marginal_values,
    rescore,
    score_all,
)

# the columns of each output table, in file order
_TABLES = {
    "curve": ("n", "error", "phase_label"),
    "scores": tuple(f.name for f in fields(ValuationScore)),
    "marginal": ("contributor_id", "value", "stderr"),
    "groundtruth": tuple(f.name for f in fields(GroundTruth)),
}

_EPILOG = "output columns (fixed order):\n" + "".join(
    f"  {name + ' CSV':<17}{','.join(header)}\n" for name, header in _TABLES.items()
) + """\
environment:
  MIXVAL_THREADS   worker threads for per-contributor loops (default 1);
                   pays off only when each contributor's work is large
                   (wide models, hundreds of samples), slower on small jobs;
                   needs one BLAS thread (OPENBLAS_NUM_THREADS=1) to pay off
"""


def _workers() -> int:
    raw = os.environ.get("MIXVAL_THREADS", "1")
    try:
        raw = int(raw)
    except ValueError:
        pass  # left a string, which _count rejects as not an integer
    return _count(raw, "MIXVAL_THREADS")


# ---------------------------------------------------------------------------
# Config schemas: each maps the keys a config object accepts to readers that
# type-check their JSON values.  A key a config leaves out stays out of the
# result, so the library constructor it feeds applies its own default.


def _load_config(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _read(obj, schema: dict, where: str = "") -> dict:
    """Type-check the config object ``obj``, rejecting keys not in ``schema``.

    ``where`` is the dotted key of a nested section ("" for the whole
    config); error messages name each value by its dotted key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        section = f"config section {where!r}" if where else "config"
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")
    prefix = f"{where}." if where else ""
    return {key: schema[key](value, prefix + key) for key, value in obj.items()}


def _required(cfg: dict, *keys: str) -> None:
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ConfigError(f"config needs {' and '.join(map(repr, missing))}")


def _given(cfg: dict, keys) -> dict:
    """The entries of ``cfg`` under ``keys`` that the config sets."""
    return {key: cfg[key] for key in keys if key in cfg}


def _scalar(kinds, noun: str, convert):
    """Reader of a JSON value of the types ``kinds``; a bool is not an int here."""

    def read(value, key: str):
        if not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool):
            raise ConfigError(f"{key} must be {noun}, got {value!r}")
        return convert(value)

    return read


_integer = _scalar(int, "an integer", int)
# NaN and infinities pass: the library rejects them with a DomainError (exit 3)
_real = _scalar((int, float), "a number", float)
_string = _scalar(str, "a string", str)
_boolean = _scalar(bool, "true or false", bool)


def _count(value, key: str) -> int:
    """Reader of a count of at least 1 by the library's count rule, whose
    error is a ConfigError here (exit 2, not 3)."""
    try:
        check_count(value, key, 1)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return value


def _list(reader):
    """Reader of a JSON list whose entries ``reader`` checks, as a tuple."""

    def read(values, key: str) -> tuple:
        if not isinstance(values, list):
            raise ConfigError(f"{key} must be a list, got {values!r}")
        return tuple(reader(v, key) for v in values)

    return read


def _optional(reader):
    """Reader that passes ``null`` through as ``None``."""
    return lambda value, key: None if value is None else reader(value, key)


def _object(schema: dict):
    return lambda value, key: _read(value, schema, key)


def _path_or(schema: dict):
    """Reader of a file or directory path, or of an object read by ``schema``."""
    return lambda value, key: value if isinstance(value, str) else _read(value, schema, key)


# the reader of each annotation in the library signatures below; every module
# uses ``from __future__ import annotations``, so an annotation is its text
_READERS = {
    "int": _integer, "float": _real, "str": _string,
    "int | None": _optional(_integer), "float | None": _optional(_real),
    "tuple[int, ...]": _list(_integer), "tuple[float, ...]": _list(_real),
}


def _params(fn, *skip: str) -> dict:
    """The schema of ``fn``'s parameters but ``skip``; fails on an unknown type."""
    return {
        name: _READERS[param.annotation]
        for name, param in inspect.signature(fn).parameters.items()
        if name not in skip
    }


_MIXTURE = _params(MixtureSpec.power_law, "pi")
_GENERATOR = {
    "mixture": _object(_MIXTURE), "feature_dim": _integer, "noise_scale": _real,
    "seed": _integer,
}
_FEATURE_DIM = 8  # the default of generated contributors and of bench's fixture
_MODEL = _params(MLPSpec)
_TRAINING = _params(TrainingConfig, "seed")
_WEIGHTS = _params(ValuationWeights)
_VALUATION = _params(ValuationConfig, "seed", "weights")

# the keys of every config that values or retrains contributors
_DATA = {
    "seed": _integer, "model": _object(_MODEL),
    "contributors": _path_or({**_GENERATOR, "plan": _list(_list(_integer))}),
    "test": _path_or({**_GENERATOR, "size": _count}),
}


# ---------------------------------------------------------------------------
# File formats.


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_samples(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a sample CSV: contributor-row schema or plain numeric columns.

    Contributor rows (id, knowledge_index, is_real, label, features...)
    yield (features, labels) in file order; any other header is treated
    as all-numeric feature columns with no labels.
    """
    header, rows = read_csv(path, "samples")
    if tuple(header[: len(CSV_HEADER)]) == CSV_HEADER:
        _, _, y, x = parse_contributor_rows(rows, str(path))
    else:
        try:
            x, y = np.array([[float(v) for v in r] for r in rows]), None
        except ValueError as exc:
            raise DomainError(f"sample file {path} has malformed rows: {exc}") from exc
    x = check_reals(x, f"sample file {path} features")
    return x, None if y is None else check_reals(y, f"sample file {path} labels")


@dataclass
class RunResult:
    """A run's output directory, the files it read (in order, for the manifest),
    each output's text by path (``main`` writes them on success) and notes."""

    out: Path
    inputs: list[Path] = field(default_factory=list)
    outputs: dict[Path, str] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def samples(self, path: Path) -> tuple[np.ndarray, np.ndarray | None]:
        self.inputs.append(path)
        return read_samples(path)

    def contributors(self, directory: Path) -> list[Contributor]:
        self.inputs += contributor_files(directory)
        return read_contributors(directory)

    def table(self, path: Path, what: str, parse) -> list:
        """``parse(row)`` of each row, as a dict, of a CSV file of contributor rows.

        An unreadable file is a ``ConfigError``.  An empty file, a row whose
        cells do not match the header, a cell or column ``parse`` cannot
        read and a repeated contributor_id are a ``DomainError`` naming the file.
        """
        self.inputs.append(path)
        header, rows = read_csv(path, what)
        try:
            if any(len(row) != len(header) for row in rows):
                raise ValueError("a row's cells do not match the header")
            records = [dict(zip(header, row)) for row in rows]
            parsed = [parse(record) for record in records]
            check_unique_ids((r["contributor_id"] for r in records), "file")
            return parsed
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{what} file {path} is malformed: {exc}") from exc

    def csv(self, name: str, header: Sequence[str], rows) -> None:
        self.outputs[self.out / name] = csv_text(header, rows)

    def json(self, name: str, obj) -> None:
        self.outputs[self.out / name] = json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Contributors, test samples and models a config describes.


def _generate(gen: dict, plan, default_seed: int) -> list[Contributor]:
    return make_contributors(
        plan,
        MixtureSpec.power_law(**gen.get("mixture", {})),
        gen.get("feature_dim", _FEATURE_DIM),
        gen.get("seed", default_seed),
        **_given(gen, ("noise_scale",)),
    )


def _model_spec(cfg: dict, input_dim: int) -> MLPSpec:
    return MLPSpec(**{"layer_widths": (input_dim, 16, 1), **cfg.get("model", {})})


def _load_data(cfg: dict, run: RunResult):
    """Seed, contributors, test sample (x, y or None) and the model spec, as
    wide as the test sample, of a config that reads or generates them."""
    _required(cfg, "seed", "contributors", "test")
    seed, entry, test = cfg["seed"], cfg["contributors"], cfg["test"]
    if isinstance(entry, str):
        contributors = run.contributors(Path(entry))
    elif entry.get("plan") and all(len(pair) == 2 for pair in entry["plan"]):
        contributors = _generate(entry, entry["plan"], derive_seed(seed, "cli-contributors"))
    else:
        raise ConfigError("generated contributors need a 'plan' of [real, synth] pairs")
    if isinstance(test, str):
        test_x, test_y = run.samples(Path(test))
    else:
        size = test.get("size", 200)
        [c] = _generate(test, [(size, 0)], derive_seed(seed, "cli-test"))
        test_x, test_y = c.real_x, c.real_y
    return seed, contributors, test_x, test_y, _model_spec(cfg, test_x.shape[1])


# ---------------------------------------------------------------------------
# Subcommand runners.  Each takes its config and a RunResult, and reads
# sample files and writes outputs through the RunResult; main() wraps them
# with config loading, digests and the manifest.  A runner's docstring is
# its help text.


_BREAKPOINTS = _params(detect_breakpoints, "curve")
_SIMULATE = {
    "seed": _integer, "params": _object(_params(ScalingParams, "pi")), "pi": _real,
    "pi_grid": _list(_real), "n_min": _real, "n_max": _real,
    "points_per_decade": _integer, **_BREAKPOINTS,
}


def run_simulate(cfg: dict, run: RunResult) -> None:
    """scaling-law curves and breakpoint reports"""
    cfg = _read(cfg, _SIMULATE)
    if "pi" in cfg and "pi_grid" in cfg:
        raise ConfigError("give either 'pi' or 'pi_grid', not both")
    pis = cfg.get("pi_grid", (cfg.get("pi", 0.5),))
    if not pis:
        raise ConfigError("'pi_grid' must not be empty")
    tags = {}  # file tag -> pi; two values with one tag would share files
    for pi in pis:
        tag = f"{pi:g}".replace(".", "p")
        if tag in tags:
            raise ConfigError(
                f"pi_grid values {tags[tag]!r} and {pi!r} share the file tag pi{tag}"
            )
        tags[tag] = pi
    grid = log_grid(
        cfg.get("n_min", 1e2), cfg.get("n_max", 1e6), cfg.get("points_per_decade", 24)
    )
    params = {
        "a": 1.0, "alpha": 0.5, "b": 1.0, "lam": 1.0, "beta": 1.5, "cutoff": 100,
        **cfg.get("params", {}),
    }
    for tag, pi in tags.items():
        curve = sweep(ScalingParams(pi=pi, **params), grid)
        report = detect_breakpoints(curve, **_given(cfg, _BREAKPOINTS))
        run.csv(
            f"curve_pi{tag}.csv",
            _TABLES["curve"],
            zip(curve.sample_sizes.tolist(), curve.errors.tolist(), curve.phase_labels()),
        )
        run.json(f"breakpoints_pi{tag}.json", {"pi": pi, **report.to_dict()})


_DISCREPANCY = {
    "seed": _integer, "x": _string, "y": _string, "estimator": _string,
    "scales": _list(_real), "bandwidths": _list(_real), "weights": _list(_real),
}


def run_discrepancy(cfg: dict, run: RunResult) -> None:
    """multi-kernel MMD between two sample files"""
    cfg = _read(cfg, _DISCREPANCY)
    _required(cfg, "x", "y")
    if "bandwidths" in cfg and "scales" in cfg:
        raise ConfigError("give either 'bandwidths' or 'scales', not both")
    if "weights" in cfg and "bandwidths" not in cfg:
        raise ConfigError("'weights' needs 'bandwidths': a median-heuristic bank is uniform")
    x, _ = run.samples(Path(cfg["x"]))
    y, _ = run.samples(Path(cfg["y"]))
    blocks = DistanceBlocks.of(x, y)  # shared by the median and the MMD
    if "bandwidths" in cfg:
        spec = MultiKernelSpec.from_bandwidths(cfg["bandwidths"], cfg.get("weights"))
    else:
        spec = MultiKernelSpec.median_bank(x, y, **_given(cfg, ("scales",)), blocks=blocks)
    estimate = mmd(x, y, spec, **_given(cfg, ("estimator",)), blocks=blocks)
    run.json(
        "discrepancy.json",
        {
            "value": estimate.value,
            "squared": estimate.squared,
            "estimator": estimate.estimator,
            "bandwidths": [k.bandwidth for k in spec.kernels],
            "kernel_weights": list(spec.weights),
            "n_x": len(x),
            "n_y": len(y),
        },
    )


_GRAM = {
    "seed": _integer, "model": _object(_MODEL), "samples": _string,
    "ridge": _optional(_real),
}


def run_gram(cfg: dict, run: RunResult) -> None:
    """tangent-kernel Gram matrix and bound term"""
    cfg = _read(cfg, _GRAM)
    _required(cfg, "samples")
    x, y = run.samples(Path(cfg["samples"]))
    spec = _model_spec(cfg, x.shape[1])
    params = init_params(spec)
    gram = ntk_gram(spec, params, x)
    ridge = default_ridge(gram) if cfg.get("ridge") is None else cfg["ridge"]
    run.csv("gram.csv", tuple(f"g{j}" for j in range(gram.n)), gram.matrix.tolist())
    payload = {
        "n": gram.n,
        "trace": gram.trace(),
        "gradient_norm_bound": gram.gradient_norm_bound,
        "ridge": ridge,
        "bound_term": None,
    }
    if y is not None:
        residuals = y - predict(spec, params, x)
        payload["bound_term"] = bound_term(gram, residuals, ridge)
    run.json("bound.json", payload)


# the keys that _prepare_value reads, for value and marginal
_PREPARE = {**_DATA, "weights": _object(_WEIGHTS), **_VALUATION}
_VALUE = {**_PREPARE, "fit_weights": _boolean}


def _prepare_value(cfg: dict, run: RunResult):
    seed, contributors, test_x, _, spec = _load_data(cfg, run)
    vcfg = ValuationConfig(
        weights=ValuationWeights(**cfg.get("weights", {})),
        seed=seed,
        **_given(cfg, _VALUATION),
    )
    return contributors, test_x, Model.at_init(spec), vcfg


def run_value(cfg: dict, run: RunResult) -> None:
    """score contributors against a test sample"""
    cfg = _read(cfg, _VALUE)
    contributors, test_x, model, vcfg = _prepare_value(cfg, run)
    scores, failures = score_all(contributors, test_x, model, vcfg, workers=_workers())
    if not scores:
        raise DomainError(f"every contributor failed to score: {failures}")
    run.csv("scores.csv", _TABLES["scores"], map(astuple, scores))
    summary = {
        "n_scored": len(scores),
        "failures": failures,
        "weights": vcfg.weights.as_dict(),
        "estimator": vcfg.estimator,
    }
    if cfg.get("fit_weights", False):
        fit = fit_score_weights(scores)
        run.csv("scores_fitted.csv", _TABLES["scores"], map(astuple, rescore(scores, fit.weights)))
        summary["fitted"] = {
            "weights": fit.weights.as_dict(),
            "residual_norm": fit.residual_norm,
            "column_rank": fit.column_rank,
        }
    run.json("value_summary.json", summary)


_MARGINAL = {**_PREPARE, "weighting": _string, "permutations": _integer}


def run_marginal(cfg: dict, run: RunResult) -> None:
    """Shapley or leave-one-out marginal values"""
    cfg = _read(cfg, _MARGINAL)
    contributors, test_x, model, vcfg = _prepare_value(cfg, run)
    weighting = CoalitionWeighting(
        kind=cfg.get("weighting", "shapley"),
        **({"mc_permutations": cfg["permutations"]} if "permutations" in cfg else {}),
    )
    report = marginal_values(contributors, weighting, test_x, model, vcfg)
    # exact enumeration and LOO carry no sampling error: stderr 0.0
    rows = (
        (row["id"], row["value"], row.get("stderr", 0.0))
        for row in report.to_rows()
    )
    run.csv("marginal.csv", _TABLES["marginal"], rows)
    run.json(
        "marginal_summary.json",
        {
            "kind": report.kind,
            "permutations": report.permutations,
            "n_contributors": len(report.contributor_ids),
        },
    )


_GROUNDTRUTH = {**_DATA, "training": _object(_TRAINING)}


def run_groundtruth(cfg: dict, run: RunResult) -> None:
    """retrain per contributor, record test metrics"""
    cfg = _read(cfg, _GROUNDTRUTH)
    seed, contributors, test_x, test_y, spec = _load_data(cfg, run)
    if test_y is None:
        raise DomainError("ground truth needs a labeled test file (contributor-row schema)")
    tcfg = TrainingConfig(seed=seed, **cfg.get("training", {}))
    truths = train_ground_truth(
        contributors, spec, tcfg, test_x, test_y, workers=_workers()
    )
    run.csv("groundtruth.csv", _TABLES["groundtruth"], map(astuple, truths))


def _score_row(row: dict) -> tuple[str, float]:
    column = next((c for c in ("total", "value", "test_metric") if c in row), None)
    if column is None or "contributor_id" not in row:
        raise ValueError("it needs 'contributor_id' and one of total/value/test_metric")
    return row["contributor_id"], float(row[column])


def _groundtruth_row(row: dict) -> GroundTruth:
    return GroundTruth(
        contributor_id=row["contributor_id"],
        test_metric=float(row["test_metric"]),
        config_digest=row.get("config_digest", ""),
        diverged=bool(int(row.get("diverged", "0"))),
        epochs=int(row["epochs"]) if "epochs" in row else None,
        converged=int(row["converged"]) if "converged" in row else None,
    )


_EVALUATE = {"seed": _integer, "scores": _string, "groundtruth": _string}


def run_evaluate(cfg: dict, run: RunResult) -> None:
    """correlate scores with ground truth"""
    cfg = _read(cfg, _EVALUATE)
    _required(cfg, "scores", "groundtruth")
    scores = dict(run.table(Path(cfg["scores"]), "score", _score_row))
    truths = run.table(Path(cfg["groundtruth"]), "ground-truth", _groundtruth_row)
    evaluation = evaluate_method(scores, truths)

    def report(r):
        return {"pearson": r.pearson, "spearman": r.spearman, "kendall": r.kendall}

    run.json(
        "correlation.json",
        {
            "n": evaluation.positive.n,
            "best_orientation": evaluation.best_orientation,
            "positive": report(evaluation.positive),
            "negative": report(evaluation.negative),
        },
    )


_BENCH = {
    "seed": _integer, "n_contributors": _count, "samples_each": _integer,
    "feature_dim": _integer, "test_size": _integer, "shift": _real,
    "model": _object(_MODEL), "training": _object(_TRAINING),
}


def run_bench(cfg: dict, run: RunResult) -> None:
    """time valuation against retraining"""
    cfg = _read(cfg, _BENCH)
    _required(cfg, "seed")
    seed = cfg["seed"]
    n = cfg.get("n_contributors", 100)
    feature_dim = cfg.get("feature_dim", _FEATURE_DIM)
    fixture = make_shift_fixture(
        pis=[round(float(p), 6) for p in np.linspace(1.0, 0.0, n)],
        samples_each=cfg.get("samples_each", 24),
        feature_dim=feature_dim,
        shift=cfg.get("shift", 1.0),
        test_size=cfg.get("test_size", 60),
        seed=seed,
    )
    spec = _model_spec(cfg, feature_dim)
    model = Model.at_init(spec)
    vcfg = ValuationConfig(seed=seed)
    tcfg = TrainingConfig(seed=seed, **cfg.get("training", {}))
    workers = _workers()

    def run_valuation():
        scores, failures = score_all(
            fixture.contributors, fixture.test_x, model, vcfg, workers=workers
        )
        if failures:
            raise DomainError(f"bench scoring failed: {failures}")
        return scores

    def run_retraining():
        return train_ground_truth(
            fixture.contributors, spec, tcfg, fixture.test_x, fixture.test_y,
            workers=workers,
        )

    valuation = time_method(run_valuation, units=n)
    # valuation's warm-up has already run the numpy dispatch paths
    retraining = time_method(run_retraining, units=n, warmup=False)
    ratio = (
        retraining.total_seconds / valuation.total_seconds
        if valuation.total_seconds > 0
        else float("inf")
    )
    run.notes["runtime"] = {
        "n_contributors": n,
        "valuation_seconds": valuation.total_seconds,
        "valuation_per_contributor": valuation.per_unit_seconds,
        "retraining_seconds": retraining.total_seconds,
        "retraining_per_contributor": retraining.per_unit_seconds,
        "retraining_over_valuation": ratio,
    }


_RUNNERS = {
    "simulate": run_simulate,
    "discrepancy": run_discrepancy,
    "gram": run_gram,
    "value": run_value,
    "marginal": run_marginal,
    "groundtruth": run_groundtruth,
    "evaluate": run_evaluate,
    "bench": run_bench,
}
# The subcommands that score, and so call scipy (cdist and pdist in mmd, the
# Cholesky solve in ntk).  main() imports scipy for them before it reads the
# config.  Imported later, on the first distance, scipy's long-lived objects
# land on the heap above the freed data-generation arrays and hold it up:
# `value` on 6 x 1500 samples then peaked at 116 MB instead of 108 MB.
_SCORING = frozenset({"discrepancy", "gram", "value", "marginal", "bench"})


# ---------------------------------------------------------------------------
# Entry point.


def _versions() -> dict[str, str]:
    import scipy

    return {
        "mixval": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixval",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    version = " ".join(f"{k}={v}" for k, v in _versions().items())
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", required=True, type=Path, help="JSON config path")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "marginal":
            p.add_argument(
                "--weighting", choices=("shapley", "loo"), default=None,
                help="override coalition weighting",
            )
            p.add_argument(
                "--permutations", type=int, default=None,
                help="override Monte Carlo permutation budget (0 = exact)",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    if args.subcommand in _SCORING:
        import scipy.linalg  # noqa: F401
        import scipy.spatial.distance  # noqa: F401
    try:
        cfg = _load_config(args.config)
        for key in ("seed", "weighting", "permutations"):  # flags override the config
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        if "seed" in cfg:  # checked here too for the subcommands that only record it
            check_seed(_integer(cfg["seed"], "seed"))
        run = RunResult(args.out)
        _RUNNERS[args.subcommand](cfg, run)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error[numerical]: {exc}", file=sys.stderr)
        return 4
    except MixvalError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 3
    written = []
    try:
        for path, text in run.outputs.items():
            write_text(path, text)
            written.append(path)
    except OSError as exc:
        for done in written:  # a failed run writes no file
            os.unlink(done)
        print(f"error[config]: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "subcommand": args.subcommand,
        "seed": cfg.get("seed"),
        "inputs": {str(args.config): _digest(args.config)},
        "outputs": {},
        "versions": _versions(),
        "wall_time_seconds": time.perf_counter() - started,
    }
    for path in run.inputs:
        manifest["inputs"][str(path)] = _digest(path)
    for path in run.outputs:
        manifest["outputs"][str(path)] = _digest(path)
    manifest.update(run.notes)
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
