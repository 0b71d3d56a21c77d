"""The four benchmark workloads: configs, work units and output checks.

Each workload is one ``mixval`` CLI subcommand on a config generated from
the workload seed and a job index, so every job of a run gets fresh
inputs of the same shape.  Shapes are fixed per workload; the seed moves
only data values (and the pi grid), which keeps the work per unit steady
across seeds.

Why these four, and what each leaves alone:

* simulate-pigrid: only ``scaling`` runs (curve points over a five-value
  pi grid); the "no change" control for valuation and training changes.
* shapley-exact: exact Shapley over eight 60-sample contributors; 255
  overlapping coalitions, each pooled and scored at n > P.
* retrain-groundtruth: per-contributor retraining; ``train_model`` and
  its gradient/predict passes, no MMD and no bound term.
* value-wide: six 1500-sample contributors scored once each with a wide
  8-600-1 MLP; few large independent scores, bound term at n < P.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mixval.longtail import MixtureSpec, PowerLawSpec, TruncatedPowerLawSpec, make_contributors
from mixval.ntk import MLPSpec, Model
from mixval.valuation import ValuationConfig, coalition_value_fn

DEFAULT_SEED = 0
FEATURE_DIM = 8
NOISE_SCALE = 0.1
MIXTURE = {"beta": 1.5, "cutoff": 20, "support_max": 200}


def _mixture() -> MixtureSpec:
    # the same spec the CLI builds from MIXTURE
    return MixtureSpec(
        pi=0.5,
        real_dist=PowerLawSpec(MIXTURE["beta"], MIXTURE["support_max"]),
        synth_dist=TruncatedPowerLawSpec(
            MIXTURE["beta"], MIXTURE["cutoff"], MIXTURE["support_max"]
        ),
    )


def job_seeds(seed: int, job: int) -> tuple[int, int, int]:
    """(config seed, contributor data seed, test data seed) of one job."""
    state = np.random.SeedSequence((seed, job)).generate_state(3)
    return tuple(int(s) for s in state)


def _plan(k: int, samples: int) -> list[list[int]]:
    """k contributors of ``samples`` each, real share falling from 1 to 0."""
    out = []
    for c in range(k):
        synth = round(samples * c / max(k - 1, 1))
        out.append([samples - synth, synth])
    return out


@dataclass(frozen=True)
class Size:
    contributors: int
    samples: int
    test: int
    widths: tuple[int, ...] = (FEATURE_DIM, 16, 1)


def _valuation_cfg(seed: int, job: int, size: Size) -> dict:
    cfg_seed, data_seed, test_seed = job_seeds(seed, job)
    return {
        "seed": cfg_seed,
        "contributors": {
            "plan": _plan(size.contributors, size.samples),
            "mixture": MIXTURE,
            "feature_dim": FEATURE_DIM,
            "noise_scale": NOISE_SCALE,
            "seed": data_seed,
        },
        "test": {
            "size": size.test,
            "mixture": MIXTURE,
            "feature_dim": FEATURE_DIM,
            "noise_scale": NOISE_SCALE,
            "seed": test_seed,
        },
        "model": {"layer_widths": list(size.widths)},
    }


def _inputs(cfg: dict):
    """Rebuild a valuation config's contributors, test set and model."""
    contrib, test = cfg["contributors"], cfg["test"]
    contributors = make_contributors(
        [tuple(p) for p in contrib["plan"]], _mixture(), FEATURE_DIM,
        contrib["seed"], NOISE_SCALE,
    )
    [holdout] = make_contributors(
        [(test["size"], 0)], _mixture(), FEATURE_DIM, test["seed"], NOISE_SCALE
    )
    model = Model.at_init(MLPSpec(tuple(cfg["model"]["layer_widths"])))
    return contributors, holdout.real_x, model


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# Per-workload pieces.  ``check`` returns (failed units, problems) and
# ``values`` the named numbers compared against recorded references.


# the repo's acceptance criterion 1a allows this much float noise
_MONOTONE_SLACK = 1e-15
_PI_CHOICES = tuple(float(f"{p:.4g}") for p in np.geomspace(0.02, 1.0, 40))


def _simulate_cfg(seed: int, job: int, size: str) -> dict:
    rng = np.random.default_rng(job_seeds(seed, job)[0])
    if size == "tiny":
        pis = sorted(rng.choice(_PI_CHOICES, size=2, replace=False).tolist())
        return {"pi_grid": pis, "n_min": 1e2, "n_max": 1e4, "points_per_decade": 8,
                "params": {"support_max": 2000, "cutoff": 10}}
    pis = sorted(rng.choice(_PI_CHOICES, size=5, replace=False).tolist())
    return {"pi_grid": pis, "n_min": 1e2, "n_max": 1e6, "points_per_decade": 24,
            "params": {"support_max": 100_000}}


def _tag(pi: float) -> str:
    return f"{pi:g}".replace(".", "p")


def _simulate_units(cfg: dict) -> int:
    decades = math.log10(cfg["n_max"] / cfg["n_min"])
    return len(cfg["pi_grid"]) * (round(decades * cfg["points_per_decade"]) + 1)


def _simulate_check(cfg: dict, out: Path) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for pi in cfg["pi_grid"]:
        rows = _read_csv(out / f"curve_pi{_tag(pi)}.csv")
        errors = np.array([float(r["error"]) for r in rows])
        bad = not np.all((errors >= 0.0) & (errors <= 1.0))
        bad |= bool(np.any(np.diff(errors) > _MONOTONE_SLACK))
        bad |= len(rows) * len(cfg["pi_grid"]) != _simulate_units(cfg)
        if bad:
            failed += len(rows)
            problems.append(f"pi={pi}: errors leave [0, 1] or increase with n")
    return failed, problems


def _simulate_values(cfg: dict, out: Path) -> dict[str, float]:
    values = {}
    for pi in cfg["pi_grid"]:
        tag = _tag(pi)
        for i, row in enumerate(_read_csv(out / f"curve_pi{tag}.csv")):
            values[f"{tag}.error.{i}"] = float(row["error"])
        report = json.loads((out / f"breakpoints_pi{tag}.json").read_text(encoding="utf-8"))
        for key in ("detected_first", "detected_second"):
            if report[key] is not None:
                values[f"{tag}.{key}"] = float(report[key])
    return values


_SHAPLEY = {"full": Size(8, 60, 200), "tiny": Size(3, 20, 30)}


def _shapley_cfg(seed: int, job: int, size: str) -> dict:
    return {**_valuation_cfg(seed, job, _SHAPLEY[size]), "weighting": "shapley"}


def _shapley_units(cfg: dict) -> int:
    return 2 ** len(cfg["contributors"]["plan"]) - 1


def _shapley_check(cfg: dict, out: Path) -> tuple[int, list[str]]:
    phi = [float(r["value"]) for r in _read_csv(out / "marginal.csv")]
    contributors, test_x, model = _inputs(cfg)
    value = coalition_value_fn(contributors, test_x, model, ValuationConfig(seed=cfg["seed"]))
    v_full = value(frozenset(range(len(contributors))))
    gap = abs(math.fsum(phi) - v_full)
    if len(phi) == len(contributors) and all(map(math.isfinite, phi)) and gap <= 1e-9 * max(
        1.0, abs(v_full)
    ):
        return 0, []
    return _shapley_units(cfg), [f"sum of Shapley values misses v(full) by {gap:.3e}"]


def _shapley_values(cfg: dict, out: Path) -> dict[str, float]:
    return {r["contributor_id"]: float(r["value"]) for r in _read_csv(out / "marginal.csv")}


_RETRAIN = {"full": (Size(10, 60, 200), 3, 800), "tiny": (Size(2, 20, 30), 2, 100)}


def _retrain_cfg(seed: int, job: int, size: str) -> dict:
    shape, restarts, max_epochs = _RETRAIN[size]
    return {
        **_valuation_cfg(seed, job, shape),
        "training": {"restarts": restarts, "metric": "one_minus_loss", "max_epochs": max_epochs},
    }


def _retrain_units(cfg: dict) -> int:
    return len(cfg["contributors"]["plan"]) * cfg["training"]["restarts"]


def _retrain_check(cfg: dict, out: Path) -> tuple[int, list[str]]:
    rows = _read_csv(out / "groundtruth.csv")
    restarts = cfg["training"]["restarts"]
    failed, problems = 0, []
    for row in rows:
        metric = float(row["test_metric"])
        if row["diverged"] != "0" or not 0.0 <= metric <= 1.0:
            failed += restarts
            problems.append(f"{row['contributor_id']}: diverged or metric {metric} outside [0, 1]")
    missing = len(cfg["contributors"]["plan"]) - len(rows)
    if missing:
        failed += missing * restarts
        problems.append(f"{missing} contributors missing from groundtruth.csv")
    return failed, problems


def _retrain_values(cfg: dict, out: Path) -> dict[str, float]:
    return {r["contributor_id"]: float(r["test_metric"]) for r in _read_csv(out / "groundtruth.csv")}


_WIDE = {
    "full": Size(6, 1500, 200, (FEATURE_DIM, 600, 1)),
    "tiny": Size(2, 300, 30, (FEATURE_DIM, 600, 1)),
}
_SCORE_COLUMNS = (
    "loss_term", "discrepancy_term", "ntk_term", "composition_term", "total",
    "gradient_norm_bound",
)


def _value_cfg(seed: int, job: int, size: str) -> dict:
    return _valuation_cfg(seed, job, _WIDE[size])


def _value_units(cfg: dict) -> int:
    return len(cfg["contributors"]["plan"])


def _value_check(cfg: dict, out: Path) -> tuple[int, list[str]]:
    summary = json.loads((out / "value_summary.json").read_text(encoding="utf-8"))
    failed = len(summary["failures"])
    problems = [f"{cid}: {err}" for cid, err in summary["failures"].items()]
    rows = _read_csv(out / "scores.csv")
    for row in rows:
        if not all(math.isfinite(float(row[c])) for c in _SCORE_COLUMNS):
            failed += 1
            problems.append(f"{row['contributor_id']}: non-finite score")
    missing = _value_units(cfg) - len(rows) - len(summary["failures"])
    if missing:
        failed += missing
        problems.append(f"{missing} contributors neither scored nor reported failed")
    return failed, problems


def _value_values(cfg: dict, out: Path) -> dict[str, float]:
    return {
        f"{r['contributor_id']}.{c}": float(r[c])
        for r in _read_csv(out / "scores.csv") for c in _SCORE_COLUMNS
    }


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    unit: str
    config: Callable[[int, int, str], dict]
    units: Callable[[dict], int]
    check: Callable[[dict, Path], tuple[int, list[str]]]
    values: Callable[[dict, Path], dict[str, float]]
    layers: tuple[str, ...]  # spans the traced run must see called


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-pigrid", "simulate", "curve points",
            _simulate_cfg, _simulate_units, _simulate_check,
            _simulate_values,
            ("cli.main", "scaling.sweep", "scaling.exact", "scaling.detect"),
        ),
        Workload(
            "shapley-exact", "marginal", "coalition values",
            _shapley_cfg, _shapley_units, _shapley_check, _shapley_values,
            ("cli.main", "longtail.make", "longtail.pool", "valuation.score",
             "mmd.mmd", "mmd.median", "ntk.gram", "ntk.gradients", "ntk.predict",
             "ntk.bound"),
        ),
        Workload(
            "retrain-groundtruth", "groundtruth", "retrains",
            _retrain_cfg, _retrain_units, _retrain_check, _retrain_values,
            ("cli.main", "longtail.make", "evalharness.train", "ntk.gram",
             "ntk.gradients", "ntk.predict"),
        ),
        Workload(
            "value-wide", "value", "contributors scored",
            _value_cfg, _value_units, _value_check, _value_values,
            ("cli.main", "longtail.make", "valuation.score", "mmd.mmd",
             "mmd.median", "ntk.gram", "ntk.gradients", "ntk.predict", "ntk.bound"),
        ),
    )
}
