"""Command-line entry point.

One executable, eight subcommands:

  simulate     scaling-law curves and breakpoint reports over a pi grid
  discrepancy  multi-kernel MMD between two sample files
  gram         tangent-kernel Gram matrix and bound term for a sample file
  value        score every contributor in a directory against a test sample
  marginal     Shapley or leave-one-out marginal values of contributors
  groundtruth  retrain per contributor and record test metrics
  evaluate     correlate a score file with a ground-truth file
  bench        time valuation against retraining on a built-in fixture

Configs are JSON with unknown keys rejected; every output file is CSV or
JSON, UTF-8 with LF line endings, written atomically (temp file plus
rename).  A manifest with input/output digests, the seed, library
versions and wall time is printed to stdout; wall time never goes into
output files, so a rerun with the same config and seed is byte
identical.  Exit codes: 0 success, 2 config error, 3 domain error, 4
numerical error.  MIXVAL_THREADS sets the worker-thread count for
per-contributor loops (default 1).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._seeds import derive_seed
from .errors import ConfigError, DomainError, MixvalError, NumericalError
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
    PowerLawSpec,
    TruncatedPowerLawSpec,
    make_contributors,
    parse_contributor_rows,
    read_contributors,
)
from .mmd import MultiKernelSpec, mmd
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
    ValuationWeights,
    fit_score_weights,
    marginal_values,
    rescore,
    score_all,
)

__version__ = "0.1.0"

_COLUMN_ORDERS = """\
output columns (fixed order):
  curve CSV        n,error,phase_label
  scores CSV       contributor_id,loss_term,discrepancy_term,ntk_term,\
composition_term,total,gradient_norm_bound
  marginal CSV     contributor_id,value,stderr
  groundtruth CSV  contributor_id,test_metric,config_digest,diverged
environment:
  MIXVAL_THREADS   worker threads for per-contributor loops (default 1);
                   pays off only when each contributor's work is large
                   (wide models, hundreds of samples), slower on small jobs
"""


def _workers() -> int:
    raw = os.environ.get("MIXVAL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MIXVAL_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"MIXVAL_THREADS must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# Config plumbing.


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


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _section(cfg: dict, key: str, allowed: set[str]) -> dict:
    sub = cfg.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    _check_keys(sub, allowed, f"config section {key!r}")
    return sub


def _require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("this subcommand is stochastic: config needs a 'seed'")
    return _integer(cfg["seed"], "seed")


def _integer(value, key: str) -> int:
    """A config value that must be a JSON integer; booleans are not integers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    """A config value that must be a JSON number.

    NaN and infinities pass: the library rejects values outside their
    domain with a ``DomainError`` (exit 3).
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reals(values, key: str) -> tuple[float, ...]:
    """A config value that must be a JSON list of numbers."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_real(v, key) for v in values)


# ---------------------------------------------------------------------------
# File formats.


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_samples(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a sample CSV: contributor-row schema or plain numeric columns.

    Contributor rows (id, knowledge_index, is_real, label, features...)
    yield (features, labels) in file order; any other header is treated
    as all-numeric feature columns with no labels.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    if header is None or not rows:
        raise DomainError(f"sample file {path} has no data rows")
    if tuple(header[: len(CSV_HEADER)]) == CSV_HEADER:
        _, _, y, x = parse_contributor_rows(rows, str(path))
    else:
        try:
            x, y = np.array([[float(v) for v in r] for r in rows]), None
        except ValueError as exc:
            raise DomainError(f"sample file {path} has malformed rows: {exc}") from exc
    if not np.all(np.isfinite(x)) or (y is not None and not np.all(np.isfinite(y))):
        raise DomainError(f"sample file {path} holds non-finite values")
    return x, y


# ---------------------------------------------------------------------------
# Shared config fragments.

_MIXTURE_KEYS = {"beta", "cutoff", "support_max"}
_GEN_KEYS = {"plan", "mixture", "feature_dim", "noise_scale", "seed"}
_TEST_GEN_KEYS = {"size", "mixture", "feature_dim", "noise_scale", "seed"}
_MODEL_KEYS = {"layer_widths", "activation", "output_squash", "init_seed"}


def _mixture_spec(obj: dict, where: str) -> MixtureSpec:
    _check_keys(obj, _MIXTURE_KEYS, where)
    beta = float(obj.get("beta", 1.5))
    cutoff = int(obj.get("cutoff", 20))
    support_max = int(obj.get("support_max", 200))
    return MixtureSpec(
        pi=0.5,
        real_dist=PowerLawSpec(beta, support_max),
        synth_dist=TruncatedPowerLawSpec(beta, cutoff, support_max),
    )


def _model_spec(obj: dict | None, input_dim: int) -> MLPSpec:
    if obj is None:
        obj = {}
    _check_keys(obj, _MODEL_KEYS, "config section 'model'")
    widths = tuple(int(w) for w in obj.get("layer_widths", (input_dim, 16, 1)))
    return MLPSpec(
        layer_widths=widths,
        activation=obj.get("activation", "tanh"),
        output_squash=obj.get("output_squash", "sigmoid"),
        init_seed=int(obj.get("init_seed", 0)),
    )


def _load_contributor_entry(entry, seed: int, inputs: list[Path]) -> list[Contributor]:
    if isinstance(entry, str):
        directory = Path(entry)
        contributors = read_contributors(directory)
        inputs.extend(sorted(directory.glob("*.csv")))
        return contributors
    if not isinstance(entry, dict):
        raise ConfigError("'contributors' must be a directory path or an object")
    _check_keys(entry, _GEN_KEYS, "config section 'contributors'")
    plan = entry.get("plan")
    if not plan:
        raise ConfigError("generated contributors need a 'plan' of [real, synth] pairs")
    try:
        pairs = [(int(r), int(s)) for r, s in plan]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed contributor plan: {exc}") from exc
    mixture = _mixture_spec(entry.get("mixture", {}), "config section 'contributors.mixture'")
    return make_contributors(
        pairs,
        mixture,
        int(entry.get("feature_dim", 8)),
        int(entry.get("seed", derive_seed(seed, "cli-contributors"))),
        float(entry.get("noise_scale", 0.1)),
    )


def _load_test_entry(entry, seed: int, inputs: list[Path]) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(entry, str):
        path = Path(entry)
        x, y = read_samples(path)
        inputs.append(path)
        return x, y
    if not isinstance(entry, dict):
        raise ConfigError("'test' must be a CSV path or an object")
    _check_keys(entry, _TEST_GEN_KEYS, "config section 'test'")
    mixture = _mixture_spec(entry.get("mixture", {}), "config section 'test.mixture'")
    test = make_contributors(
        [(int(entry.get("size", 200)), 0)],
        mixture,
        int(entry.get("feature_dim", 8)),
        int(entry.get("seed", derive_seed(seed, "cli-test"))),
        float(entry.get("noise_scale", 0.1)),
    )[0]
    return test.real_x, test.real_y


def _valuation_config(cfg: dict, seed: int) -> ValuationConfig:
    weights_obj = _section(cfg, "weights", {"w1", "w2", "w3", "w4"})
    weights = ValuationWeights(
        w1=float(weights_obj.get("w1", 1.0)),
        w2=float(weights_obj.get("w2", 1.0)),
        w3=float(weights_obj.get("w3", 1.0)),
        w4=float(weights_obj.get("w4", 1.0)),
    )
    scales = cfg.get("kernel_scales")
    kwargs = {}
    if scales is not None:
        kwargs["kernel_scales"] = _reals(scales, "kernel_scales")
    caps = {}
    for key in ("ntk_cap", "mmd_cap", "test_cap"):
        if key in cfg:
            caps[key] = None if cfg[key] is None else _integer(cfg[key], key)
    ridge = cfg.get("ridge")
    return ValuationConfig(
        weights=weights,
        estimator=cfg.get("estimator", "biased"),
        ridge=None if ridge is None else _real(ridge, "ridge"),
        seed=seed,
        **kwargs,
        **caps,
    )


def _training_config(cfg: dict, seed: int) -> TrainingConfig:
    obj = _section(
        cfg,
        "training",
        {"lr_scale", "lr_cap", "tol", "max_epochs", "eigen_cap", "metric", "restarts"},
    )
    return TrainingConfig(
        lr_scale=float(obj.get("lr_scale", 0.1)),
        lr_cap=float(obj.get("lr_cap", 0.5)),
        tol=float(obj.get("tol", 1e-6)),
        max_epochs=int(obj.get("max_epochs", 5000)),
        eigen_cap=int(obj.get("eigen_cap", 256)),
        metric=obj.get("metric", "accuracy"),
        restarts=int(obj.get("restarts", 1)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Subcommand runners.  Each returns a RunResult; main() wraps them with
# config loading, digests and the manifest.


@dataclass
class RunResult:
    inputs: list[Path] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


_SIMULATE_KEYS = {
    "seed", "params", "pi", "pi_grid", "n_min", "n_max",
    "points_per_decade", "smooth_window", "min_curvature",
}
_PARAM_KEYS = {"a", "alpha", "b", "lam", "beta", "cutoff", "support_max"}


def run_simulate(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _SIMULATE_KEYS, "config")
    p = _section(cfg, "params", _PARAM_KEYS)
    if "pi" in cfg and "pi_grid" in cfg:
        raise ConfigError("give either 'pi' or 'pi_grid', not both")
    pi_key = "pi_grid" if "pi_grid" in cfg else "pi"
    pis = cfg.get(pi_key, 0.5)
    if not isinstance(pis, list):
        pis = [pis]
    if not pis:
        raise ConfigError("'pi_grid' must not be empty")
    pis = [_real(pi, pi_key) for pi in pis]
    grid = log_grid(
        _real(cfg.get("n_min", 1e2), "n_min"),
        _real(cfg.get("n_max", 1e6), "n_max"),
        _integer(cfg.get("points_per_decade", 24), "points_per_decade"),
    )
    smooth_window = _integer(cfg.get("smooth_window", 5), "smooth_window")
    min_curvature = _real(cfg.get("min_curvature", 0.02), "min_curvature")
    result = RunResult()
    for pi in pis:
        params = ScalingParams(
            a=_real(p.get("a", 1.0), "a"),
            alpha=_real(p.get("alpha", 0.5), "alpha"),
            b=_real(p.get("b", 1.0), "b"),
            lam=_real(p.get("lam", 1.0), "lam"),
            beta=_real(p.get("beta", 1.5), "beta"),
            cutoff=_integer(p.get("cutoff", 100), "cutoff"),
            pi=pi,
            support_max=_integer(p.get("support_max", 100_000), "support_max"),
        )
        curve = sweep(params, grid)
        labels = curve.phase_labels()
        tag = f"{pi:g}".replace(".", "p")
        curve_path = out / f"curve_pi{tag}.csv"
        _write_csv(
            curve_path,
            ("n", "error", "phase_label"),
            zip(curve.sample_sizes.tolist(), curve.errors.tolist(), labels),
        )
        report = detect_breakpoints(
            curve, smooth_window=smooth_window, min_curvature=min_curvature
        )
        report_path = out / f"breakpoints_pi{tag}.json"
        payload = {"pi": pi, **report.to_dict()}
        _write_json(report_path, payload)
        result.outputs += [curve_path, report_path]
    return result


_DISCREPANCY_KEYS = {"seed", "x", "y", "estimator", "scales", "bandwidths", "weights"}


def run_discrepancy(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _DISCREPANCY_KEYS, "config")
    result = RunResult()
    for key in ("x", "y"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"'{key}' must be a CSV path")
    x, _ = read_samples(Path(cfg["x"]))
    y, _ = read_samples(Path(cfg["y"]))
    result.inputs += [Path(cfg["x"]), Path(cfg["y"])]
    if "bandwidths" in cfg:
        spec = MultiKernelSpec.from_bandwidths(
            _reals(cfg["bandwidths"], "bandwidths"),
            None if "weights" not in cfg else _reals(cfg["weights"], "weights"),
        )
    else:
        scales = cfg.get("scales")
        kwargs = {} if scales is None else {"scales": _reals(scales, "scales")}
        spec = MultiKernelSpec.median_bank(x, y, **kwargs)
    estimator = cfg.get("estimator", "biased")
    estimate = mmd(x, y, spec, estimator)
    path = out / "discrepancy.json"
    _write_json(
        path,
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
    result.outputs.append(path)
    return result


_GRAM_KEYS = {"seed", "model", "samples", "ridge"}


def run_gram(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _GRAM_KEYS, "config")
    if not isinstance(cfg.get("samples"), str):
        raise ConfigError("'samples' must be a CSV path")
    result = RunResult()
    path = Path(cfg["samples"])
    x, y = read_samples(path)
    result.inputs.append(path)
    spec = _model_spec(cfg.get("model"), x.shape[1])
    params = init_params(spec)
    gram = ntk_gram(spec, params, x)
    ridge = cfg.get("ridge")
    ridge = default_ridge(gram) if ridge is None else _real(ridge, "ridge")
    gram_path = out / "gram.csv"
    _write_csv(
        gram_path,
        tuple(f"g{j}" for j in range(gram.n)),
        gram.matrix.tolist(),
    )
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
    bound_path = out / "bound.json"
    _write_json(bound_path, payload)
    result.outputs += [gram_path, bound_path]
    return result


_VALUE_KEYS = {
    "seed", "contributors", "test", "model", "weights", "estimator",
    "kernel_scales", "ntk_cap", "mmd_cap", "test_cap", "ridge", "fit_weights",
}


def _scores_rows(scores):
    for s in scores:
        yield (
            s.contributor_id,
            s.loss_term,
            s.discrepancy_term,
            s.ntk_term,
            s.composition_term,
            s.total,
            s.gradient_norm_bound,
        )


_SCORES_HEADER = (
    "contributor_id", "loss_term", "discrepancy_term", "ntk_term",
    "composition_term", "total", "gradient_norm_bound",
)


def _prepare_value(cfg: dict, result: RunResult):
    seed = _require_seed(cfg)
    if "contributors" not in cfg or "test" not in cfg:
        raise ConfigError("config needs 'contributors' and 'test'")
    contributors = _load_contributor_entry(cfg["contributors"], seed, result.inputs)
    test_x, _ = _load_test_entry(cfg["test"], seed, result.inputs)
    vcfg = _valuation_config(cfg, seed)
    model = Model.at_init(_model_spec(cfg.get("model"), test_x.shape[1]))
    return contributors, test_x, model, vcfg


def run_value(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _VALUE_KEYS, "config")
    result = RunResult()
    contributors, test_x, model, vcfg = _prepare_value(cfg, result)
    scores, failures = score_all(contributors, test_x, model, vcfg, workers=_workers())
    if not scores:
        raise DomainError(f"every contributor failed to score: {failures}")
    scores_path = out / "scores.csv"
    _write_csv(scores_path, _SCORES_HEADER, _scores_rows(scores))
    summary = {
        "n_scored": len(scores),
        "failures": failures,
        "weights": vcfg.weights.as_dict(),
        "estimator": vcfg.estimator,
    }
    result.outputs.append(scores_path)
    if cfg.get("fit_weights", False):
        fit = fit_score_weights(scores)
        fitted_path = out / "scores_fitted.csv"
        _write_csv(fitted_path, _SCORES_HEADER, _scores_rows(rescore(scores, fit.weights)))
        summary["fitted"] = {
            "weights": fit.weights.as_dict(),
            "residual_norm": fit.residual_norm,
            "column_rank": fit.column_rank,
        }
        result.outputs.append(fitted_path)
    summary_path = out / "value_summary.json"
    _write_json(summary_path, summary)
    result.outputs.append(summary_path)
    return result


_MARGINAL_KEYS = _VALUE_KEYS | {"weighting", "permutations"}


def run_marginal(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _MARGINAL_KEYS, "config")
    result = RunResult()
    contributors, test_x, model, vcfg = _prepare_value(cfg, result)
    weighting = CoalitionWeighting(
        kind=cfg.get("weighting", "shapley"),
        mc_permutations=int(cfg.get("permutations", 0)),
    )
    report = marginal_values(contributors, weighting, test_x, model, vcfg)
    marginal_path = out / "marginal.csv"
    # exact enumeration and LOO carry no sampling error: stderr 0.0
    rows = (
        (row["id"], row["value"], row.get("stderr", 0.0))
        for row in report.to_rows()
    )
    _write_csv(marginal_path, ("contributor_id", "value", "stderr"), rows)
    summary_path = out / "marginal_summary.json"
    _write_json(
        summary_path,
        {
            "kind": report.kind,
            "permutations": report.permutations,
            "n_contributors": len(report.contributor_ids),
        },
    )
    result.outputs += [marginal_path, summary_path]
    return result


_GROUNDTRUTH_KEYS = {"seed", "contributors", "test", "model", "training"}


def run_groundtruth(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _GROUNDTRUTH_KEYS, "config")
    result = RunResult()
    seed = _require_seed(cfg)
    if "contributors" not in cfg or "test" not in cfg:
        raise ConfigError("config needs 'contributors' and 'test'")
    contributors = _load_contributor_entry(cfg["contributors"], seed, result.inputs)
    test_x, test_y = _load_test_entry(cfg["test"], seed, result.inputs)
    if test_y is None:
        raise DomainError("ground truth needs a labeled test file (contributor-row schema)")
    if not contributors:
        raise DomainError("no contributors found")
    dim = contributors[0].pooled_x().shape[1]
    spec = _model_spec(cfg.get("model"), dim)
    tcfg = _training_config(cfg, seed)
    truths = train_ground_truth(
        contributors, spec, tcfg, test_x, test_y, workers=_workers()
    )
    path = out / "groundtruth.csv"
    _write_csv(
        path,
        ("contributor_id", "test_metric", "config_digest", "diverged"),
        (
            (g.contributor_id, g.test_metric, g.config_digest, int(g.diverged))
            for g in truths
        ),
    )
    result.outputs.append(path)
    return result


_EVALUATE_KEYS = {"seed", "scores", "groundtruth"}


def _read_scores_csv(path: Path) -> dict[str, float]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read scores {path}: {exc}") from exc
    if not rows:
        raise DomainError(f"score file {path} has no rows")
    value_col = None
    for candidate in ("total", "value", "test_metric"):
        if candidate in rows[0]:
            value_col = candidate
            break
    if value_col is None or "contributor_id" not in rows[0]:
        raise DomainError(
            f"score file {path} needs 'contributor_id' and one of total/value/test_metric"
        )
    return {r["contributor_id"]: float(r[value_col]) for r in rows}


def _read_groundtruth_csv(path: Path) -> list[GroundTruth]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read ground truth {path}: {exc}") from exc
    if not rows:
        raise DomainError(f"ground-truth file {path} has no rows")
    try:
        return [
            GroundTruth(
                contributor_id=r["contributor_id"],
                test_metric=float(r["test_metric"]),
                config_digest=r.get("config_digest", ""),
                diverged=bool(int(r.get("diverged", "0"))),
            )
            for r in rows
        ]
    except (KeyError, ValueError) as exc:
        raise DomainError(f"ground-truth file {path} is malformed: {exc}") from exc


def run_evaluate(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _EVALUATE_KEYS, "config")
    for key in ("scores", "groundtruth"):
        if not isinstance(cfg.get(key), str):
            raise ConfigError(f"'{key}' must be a CSV path")
    result = RunResult()
    scores_path, gt_path = Path(cfg["scores"]), Path(cfg["groundtruth"])
    scores = _read_scores_csv(scores_path)
    truths = _read_groundtruth_csv(gt_path)
    result.inputs += [scores_path, gt_path]
    evaluation = evaluate_method(scores, truths)
    path = out / "correlation.json"

    def report(r):
        return {"pearson": r.pearson, "spearman": r.spearman, "kendall": r.kendall}

    _write_json(
        path,
        {
            "n": evaluation.positive.n,
            "best_orientation": evaluation.best_orientation,
            "positive": report(evaluation.positive),
            "negative": report(evaluation.negative),
        },
    )
    result.outputs.append(path)
    return result


_BENCH_KEYS = {
    "seed", "n_contributors", "samples_each", "feature_dim", "test_size",
    "shift", "model", "training",
}


def run_bench(cfg: dict, out: Path) -> RunResult:
    _check_keys(cfg, _BENCH_KEYS, "config")
    seed = _require_seed(cfg)
    n = int(cfg.get("n_contributors", 100))
    if n < 1:
        raise ConfigError(f"n_contributors must be >= 1, got {n}")
    feature_dim = int(cfg.get("feature_dim", 8))
    fixture = make_shift_fixture(
        pis=[round(float(p), 6) for p in np.linspace(1.0, 0.0, n)],
        samples_each=int(cfg.get("samples_each", 24)),
        feature_dim=feature_dim,
        shift=float(cfg.get("shift", 1.0)),
        test_size=int(cfg.get("test_size", 60)),
        seed=seed,
    )
    spec = _model_spec(cfg.get("model"), feature_dim)
    model = Model.at_init(spec)
    vcfg = ValuationConfig(seed=seed)
    tcfg = _training_config(cfg, seed)
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

    run_valuation()  # shared warmup for numpy dispatch paths
    valuation = time_method(run_valuation, units=n, warmup=False)
    retraining = time_method(run_retraining, units=n, warmup=False)
    ratio = (
        retraining.total_seconds / valuation.total_seconds
        if valuation.total_seconds > 0
        else float("inf")
    )
    return RunResult(
        notes={
            "runtime": {
                "n_contributors": n,
                "valuation_seconds": valuation.total_seconds,
                "valuation_per_contributor": valuation.per_unit_seconds,
                "retraining_seconds": retraining.total_seconds,
                "retraining_per_contributor": retraining.per_unit_seconds,
                "retraining_over_valuation": ratio,
            }
        }
    )


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
        epilog=_COLUMN_ORDERS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    version = " ".join(f"{k}={v}" for k, v in _versions().items())
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("simulate", "scaling-law curves and breakpoint reports"),
        ("discrepancy", "multi-kernel MMD between two sample files"),
        ("gram", "tangent-kernel Gram matrix and bound term"),
        ("value", "score contributors against a test sample"),
        ("marginal", "Shapley or leave-one-out marginal values"),
        ("groundtruth", "retrain per contributor, record test metrics"),
        ("evaluate", "correlate scores with ground truth"),
        ("bench", "time valuation against retraining"),
    ):
        p = sub.add_parser(name, help=help_text)
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
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.subcommand == "marginal":
            if args.weighting is not None:
                cfg["weighting"] = args.weighting
            if args.permutations is not None:
                cfg["permutations"] = args.permutations
        result = _RUNNERS[args.subcommand](cfg, args.out)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error[numerical]: {exc}", file=sys.stderr)
        return 4
    except MixvalError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "subcommand": args.subcommand,
        "seed": cfg.get("seed"),
        "inputs": {str(args.config): _digest(args.config)},
        "outputs": {},
        "versions": _versions(),
        "wall_time_seconds": time.perf_counter() - started,
    }
    for path in result.inputs:
        manifest["inputs"][str(path)] = _digest(path)
    for path in result.outputs:
        manifest["outputs"][str(path)] = _digest(path)
    manifest.update(result.notes)
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
