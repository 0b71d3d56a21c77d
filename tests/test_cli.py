"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixval
from mixval import cli, evalharness
from mixval._seeds import derive_seed
from mixval.errors import DomainError, NumericalError
from mixval.evalharness import TrainingConfig
from mixval.longtail import (
    MixtureSpec,
    TruncatedPowerLawSpec,
    make_contributors,
    write_contributors,
)
from mixval.ntk import MLPSpec
from mixval.valuation import ValuationConfig, ValuationWeights

from conftest import small_mixture


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    manifest = json.loads(captured.out) if code == 0 else None
    return code, manifest, captured.err


def read_bytes_map(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def value_payload(seed: int = 3) -> dict:
    return {
        "seed": seed,
        "contributors": {"plan": [[6, 4], [5, 5], [8, 2]], "feature_dim": 4},
        "test": {"size": 12, "feature_dim": 4},
        "model": {"layer_widths": [4, 8, 1]},
    }


def groundtruth_payload() -> dict:
    return {
        "seed": 5,
        "contributors": {"plan": [[10, 2], [6, 6], [2, 10]], "feature_dim": 4},
        "test": {"size": 16, "feature_dim": 4},
        "model": {"layer_widths": [4, 8, 1]},
        "training": {"max_epochs": 300, "metric": "one_minus_loss"},
    }


def bench_payload() -> dict:
    return {
        "seed": 1,
        "n_contributors": 3,
        "samples_each": 8,
        "feature_dim": 4,
        "test_size": 10,
        "model": {"layer_widths": [4, 4, 1]},
        "training": {"max_epochs": 50},
    }


# ---------------------------------------------------------------------------
# Config handling and exit codes.


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "mixval=" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["mixval", "mixval.cli"])
def test_python_dash_m_runs_without_warnings(module):
    src = str(Path(mixval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"mixval={mixval.__version__} ")


def test_missing_config_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "value", "--config", str(tmp_path / "absent.json"), "--out", str(out)
    )
    assert code == 2
    assert "error[config]" in err
    assert not out.exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2 and "error[config]" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {"params": {}, "pi": 0.5, "typo_key": 1})
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "typo_key" in err
    assert not out.exists()
    # pi is a ScalingParams field, but simulate sets it from 'pi' or 'pi_grid'
    cfg = write_config(tmp_path, "sim.json", {"params": {"pi": 0.5}})
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "unknown keys in config section 'params': pi" in err
    assert not out.exists()


def test_fit_weights_is_an_unknown_key_to_marginal(tmp_path, capsys):
    # marginal values coalitions under the configured weights; it fits none
    payload = edited_payload(tmp_path, "marginal", {"fit_weights": True})
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "marginal", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "unknown keys in config: fit_weights" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "must hold a JSON object"),
     (json.dumps({**value_payload(), "model": 5}), "model must be an object, got 5")],
)
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "error[config]" in err and message in err
    assert not out.exists()


def test_missing_seed_on_stochastic_command_exits_2(tmp_path, capsys):
    payload = value_payload()
    del payload["seed"]
    cfg = write_config(tmp_path, "val.json", payload)
    code, _, err = run_cli(
        capsys, "value", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("cap", [2.7, 1.5, True, "4"])
def test_non_integer_cap_exits_2(tmp_path, capsys, cap):
    payload = value_payload()
    payload["mmd_cap"] = cap
    cfg = write_config(tmp_path, "val.json", payload)
    code, _, err = run_cli(
        capsys, "value", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2 and "mmd_cap" in err


def edited_payload(tmp_path: Path, command: str, updates: dict) -> dict:
    """A working config for ``command`` with some top-level keys replaced."""
    if command == "discrepancy":
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        x.write_text("f0,f1\n0.0,0.0\n1.0,0.5\n", encoding="utf-8")
        y.write_text("f0,f1\n1.0,1.0\n2.0,0.1\n", encoding="utf-8")
        payload = {"x": str(x), "y": str(y)}
    elif command == "gram":
        [c] = make_contributors([(6, 3)], small_mixture(), feature_dim=4, seed=31)
        [samples] = write_contributors([c], str(tmp_path / "samples"))
        payload = {"model": {"layer_widths": [4, 6, 1]}, "samples": samples}
    elif command == "evaluate":
        scores = tmp_path / "scores.csv"
        truth = tmp_path / "gt.csv"
        scores.write_text("contributor_id,total\na,0.5\nb,0.6\nc,0.1\n", encoding="utf-8")
        truth.write_text(
            "contributor_id,test_metric,config_digest,diverged\n"
            "a,0.9,d,0\nb,0.7,d,0\nc,0.2,d,0\n",
            encoding="utf-8",
        )
        payload = {"scores": str(scores), "groundtruth": str(truth)}
    else:
        payload = {
            "simulate": simulate_payload,
            "value": value_payload,
            "marginal": value_payload,
            "groundtruth": groundtruth_payload,
            "bench": bench_payload,
        }[command]()
    return {**payload, **updates}


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_every_subcommand_runs_its_base_config(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "cfg.json", edited_payload(tmp_path, command, {}))
    code, manifest, err = run_cli(
        capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 0, err
    assert manifest["subcommand"] == command


@pytest.mark.parametrize(
    "command, updates, key",
    [
        ("simulate", {"params": {"support_max": 2_000, "cutoff": 10.7}}, "cutoff"),
        ("simulate", {"points_per_decade": 8.9}, "points_per_decade"),
        ("simulate", {"params": {"support_max": 2_000, "a": "x"}}, "a must"),
        ("simulate", {"pi": "0.5"}, "pi"),
        ("value", {"kernel_scales": ["x"]}, "kernel_scales"),
        ("value", {"ridge": "x"}, "ridge"),
        ("discrepancy", {"bandwidths": ["a"]}, "bandwidths"),
        ("discrepancy", {"bandwidths": [1.0, 2.0], "weights": ["a", 1.0]}, "weights"),
        ("discrepancy", {"scales": 2.0}, "scales"),
        ("value", {"contributors": {"plan": [[6, 4]], "feature_dim": "x"}},
         "contributors.feature_dim"),
        ("value", {"contributors": {"plan": [[6.7, 4]]}}, "contributors.plan"),
        ("value", {"model": {"layer_widths": [4, 8.9, 1]}}, "model.layer_widths"),
        ("gram", {"model": {"init_seed": "a"}}, "model.init_seed"),
        ("value", {"fit_weights": "no"}, "fit_weights"),
        ("marginal", {"permutations": 2.5}, "permutations"),
        ("groundtruth", {"training": {"max_epochs": 3.9}}, "training.max_epochs"),
        ("bench", {"n_contributors": 2.5}, "n_contributors"),
        ("discrepancy", {"estimator": 5}, "estimator"),
        ("evaluate", {"scores": 5}, "scores"),
        ("value", {"contributors": {"plan": [[6, 4, 1]]}}, "plan"),
        ("value", {"contributors": {"plan": []}}, "plan"),
        # keys the chosen kernel bank would ignore
        ("discrepancy", {"weights": [0.9, 0.1]}, "weights"),
        ("discrepancy", {"bandwidths": [1.0, 2.0], "scales": [1.0]}, "scales"),
        # values of the right type outside what the subcommand can run
        ("simulate", {"pi_grid": []}, "pi_grid"),
        ("bench", {"n_contributors": 0}, "n_contributors"),
    ],
)
def test_mistyped_number_exits_2(tmp_path, capsys, command, updates, key):
    cfg = write_config(tmp_path, "cfg.json", edited_payload(tmp_path, command, updates))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "error[config]" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["value", "marginal", "groundtruth"])
@pytest.mark.parametrize("size", [0, -3])
def test_generated_test_set_of_no_rows_exits_2(tmp_path, capsys, command, size):
    payload = edited_payload(tmp_path, command, {})
    payload["test"] = {**payload["test"], "size": size}
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert f"error[config]: test.size must be >= 1, got {size}" in err
    assert "plan" not in err
    assert not out.exists()


def test_null_ridge_is_default_and_null_cap_is_off(tmp_path, capsys):
    def outputs(command: str, updates: dict, name: str) -> dict[str, bytes]:
        cfg = write_config(tmp_path, f"{name}.json", edited_payload(tmp_path, command, updates))
        out = tmp_path / name
        assert run_cli(capsys, command, "--config", str(cfg), "--out", str(out))[0] == 0
        return read_bytes_map(out)

    assert outputs("gram", {"ridge": None}, "g1") == outputs("gram", {}, "g2")
    assert outputs("value", {"ridge": None}, "v1") == outputs("value", {}, "v2")
    uncapped = outputs("value", {"ntk_cap": 10**6}, "v3")
    assert outputs("value", {"ntk_cap": None}, "v4") == uncapped
    assert outputs("value", {"ntk_cap": 4}, "v5") != uncapped


def test_config_schemas_match_library_fields():
    def names(cls, *skip: str) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)} - set(skip)

    assert set(cli._TRAINING) == names(TrainingConfig, "seed")
    assert set(cli._WEIGHTS) == names(ValuationWeights)
    assert set(cli._MODEL) == names(MLPSpec)
    assert set(cli._VALUATION) == names(ValuationConfig, "seed", "weights")
    assert set(cli._MIXTURE) == names(TruncatedPowerLawSpec)
    assert set(cli._BREAKPOINTS) == {"smooth_window", "min_curvature"}


@pytest.mark.parametrize("threads", ["many", "2.5"])
def test_bad_thread_env_exits_2(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MIXVAL_THREADS", threads)
    cfg = write_config(tmp_path, "val.json", value_payload())
    code, _, err = run_cli(
        capsys, "value", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2 and "MIXVAL_THREADS" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_zero_thread_env_exits_2(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MIXVAL_THREADS", threads)
    cfg = write_config(tmp_path, "val.json", value_payload())
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "error[config]" in err and "MIXVAL_THREADS must be >= 1" in err
    assert not out.exists()


def test_value_with_every_contributor_failing_exits_3(tmp_path, capsys):
    # one sample per part cannot feed the unbiased estimator, so each
    # contributor fails on its own and none is left to write
    payload = value_payload()
    payload["estimator"] = "unbiased"
    payload["contributors"] = {"plan": [[1, 1], [1, 1]], "feature_dim": 4}
    cfg = write_config(tmp_path, "val.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]: every contributor failed to score" in err
    assert "'c000'" in err and "'c001'" in err
    assert not out.exists()


def test_domain_error_exits_3(tmp_path, capsys):
    # one-row sample files cannot feed the unbiased estimator
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("f0,f1\n0.0,0.0\n", encoding="utf-8")
    y.write_text("f0,f1\n1.0,1.0\n", encoding="utf-8")
    cfg = write_config(
        tmp_path, "disc.json",
        {"x": str(x), "y": str(y), "estimator": "unbiased", "bandwidths": [1.0]},
    )
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "discrepancy", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]" in err
    assert not out.exists()
    # a NaN ridge is rejected by the config, not by the solver
    payload = value_payload()
    payload["ridge"] = float("nan")
    cfg = write_config(tmp_path, "val.json", payload)
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]" in err and "ridge" in err
    # exact Shapley enumerates at most 12 contributors
    payload = value_payload()
    payload["contributors"] = {"plan": [[2, 1]] * 13, "feature_dim": 4}
    cfg = write_config(tmp_path, "marg.json", payload)
    code, _, err = run_cli(capsys, "marginal", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]" in err and "13 contributors" in err and "'permutations'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, updates",
    [
        ("simulate", {"params": {"support_max": 2_000, "alpha": float("nan")}}),
        ("simulate", {"params": {"support_max": 2_000, "lam": float("inf")}}),
        ("simulate", {"n_min": float("nan")}),
        ("simulate", {"n_max": float("inf")}),
        ("discrepancy", {"bandwidths": [1.0, 2.0], "weights": [float("nan"), 1.0]}),
        # an infinite beta would make every sample knowledge index 1
        ("value", {"contributors": {"plan": [[6, 4]], "feature_dim": 4,
                                    "mixture": {"beta": float("inf")}}}),
        # an empty kernel bank has no weights to share out
        ("discrepancy", {"bandwidths": []}),
        ("discrepancy", {"scales": []}),
    ],
)
def test_non_finite_value_exits_3(tmp_path, capsys, command, updates):
    cfg = write_config(tmp_path, "cfg.json", edited_payload(tmp_path, command, updates))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, updates, flags, seed",
    [
        ("value", {"seed": -1}, (), -1),
        ("marginal", {"seed": -1}, (), -1),
        ("groundtruth", {"seed": -1}, (), -1),
        ("bench", {"seed": -1}, (), -1),
        ("value", {}, ("--seed", "-5"), -5),
        ("value", {"contributors": {"plan": [[6, 4]], "feature_dim": 4, "seed": -3}}, (), -3),
        ("value", {"model": {"layer_widths": [4, 8, 1], "init_seed": -4}}, (), -4),
        ("gram", {"model": {"layer_widths": [4, 6, 1], "init_seed": -4}}, (), -4),
        # the root seed reaches only the ntk cap, which fires for one
        # contributor of two: still one error, not one failed contributor
        (
            "value",
            {
                "seed": -1, "ntk_cap": 4,
                "contributors": {"plan": [[6, 4], [2, 1]], "feature_dim": 4, "seed": 7},
                "test": {"size": 12, "feature_dim": 4, "seed": 8},
            },
            (),
            -1,
        ),
        # subcommands that draw nothing from the seed and only record it
        ("simulate", {"seed": -1}, (), -1),
        ("simulate", {}, ("--seed", "-7"), -7),
        ("gram", {"seed": -2}, (), -2),
        ("gram", {}, ("--seed", "-2"), -2),
        ("discrepancy", {"seed": -1}, (), -1),
        ("discrepancy", {}, ("--seed", "-3"), -3),
        ("evaluate", {"seed": -1}, (), -1),
        ("evaluate", {}, ("--seed", "-6"), -6),
    ],
)
def test_negative_seed_exits_3(tmp_path, capsys, command, updates, flags, seed):
    cfg = write_config(tmp_path, "cfg.json", edited_payload(tmp_path, command, updates))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out), *flags)
    assert code == 3, err
    assert f"error[domain]: seed must be >= 0, got {seed}" in err
    assert not out.exists()


def test_numerical_error_exits_4(tmp_path, capsys, monkeypatch):
    def explode(cfg, out):
        raise NumericalError("synthetic instability")

    monkeypatch.setitem(cli._RUNNERS, "gram", explode)
    cfg = write_config(tmp_path, "gram.json", {"model": {}, "samples": "x.csv"})
    code, _, err = run_cli(
        capsys, "gram", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 4 and "error[numerical]" in err


def test_gram_without_ridge_above_parameter_count_exits_4(tmp_path, capsys):
    # 9 samples, P = 5 parameters: the Gram has rank <= 5 < 9
    payload = edited_payload(tmp_path, "gram", {"model": {"layer_widths": [4, 1]}, "ridge": 0})
    cfg = write_config(tmp_path, "gram.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "gram", "--config", str(cfg), "--out", str(out))
    assert code == 4 and "error[numerical]" in err and "singular" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("scores.csv", "contributor_id,total\na,0.5\nb,abc\nc,0.1\n"),
        ("scores.csv", "contributor_id,total\na,0.5\nb\nc,0.1\n"),
        ("gt.csv", "contributor_id,test_metric,config_digest,diverged\n"
                   "a,0.9,d,0\nb,abc,d,0\nc,0.2,d,0\n"),
        ("gt.csv", "contributor_id,test_metric,config_digest,diverged\n"
                   "a,0.9,d,0\nb,0.7\nc,0.2,d,0\n"),
        ("gt.csv", "contributor_id,test_metric,config_digest,diverged,epochs,converged\n"
                   "a,0.9,d,0,40,1\nb,0.7,d,0,x,1\nc,0.2,d,0,40,1\n"),
        ("scores.csv", "contributor_id,total\na,0.5\nb,0.6\na,0.1\n"),
        ("gt.csv", "contributor_id,test_metric,config_digest,diverged\n"
                   "a,0.9,d,0\nc,0.7,d,0\nc,0.2,d,0\n"),
    ],
    ids=["scores-cell", "scores-short-row", "groundtruth-cell", "groundtruth-short-row",
         "groundtruth-epochs-cell", "scores-repeated-id", "groundtruth-repeated-id"],
)
def test_malformed_evaluate_input_exits_3(tmp_path, capsys, name, text):
    cfg = write_config(tmp_path, "ev.json", edited_payload(tmp_path, "evaluate", {}))
    (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]" in err and name in err
    assert not out.exists()


def test_failure_leaves_no_partial_files(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("contributor_id,total\na,0.5\nb,0.6\n", encoding="utf-8")
    truth = tmp_path / "gt.csv"
    truth.write_text("not,a,groundtruth\n1,2,3\n", encoding="utf-8")
    cfg = write_config(
        tmp_path, "ev.json", {"scores": str(scores), "groundtruth": str(truth)}
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "evaluate", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))
    # runs that fail after making their first outputs write none of them
    value = {**value_payload(), "contributors": {"plan": [[6, 4]], "feature_dim": 4},
             "fit_weights": True}
    grid = simulate_payload(pi_grid=[0.5, 0.0])
    del grid["pi"]
    for command, payload in (("value", value), ("simulate", grid)):
        cfg = write_config(tmp_path, "cfg.json", payload)
        code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == 3, err
        assert not out.exists()
    # an output that cannot be written exits 2 and removes the outputs
    # written before it: --out names a regular file ...
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    cfg = write_config(tmp_path, "sim.json", simulate_payload())
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(afile))
    assert code == 2, err
    assert "error[config]: cannot write" in err and "afile" in err
    assert afile.read_text(encoding="utf-8") == "kept\n"
    # ... or the second of value's files is a directory
    (out / "value_summary.json").mkdir(parents=True)
    cfg = write_config(tmp_path, "val.json", value_payload())
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 2, err
    assert "error[config]: cannot write" in err and "value_summary.json" in err
    assert [p.name for p in out.iterdir()] == ["value_summary.json"]
    assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# simulate.


def simulate_payload(**overrides) -> dict:
    payload = {
        "params": {"support_max": 2_000},
        "pi": 0.5,
        "n_min": 1e2,
        "n_max": 1e4,
        "points_per_decade": 12,
    }
    payload.update(overrides)
    return payload


def test_simulate_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", simulate_payload())
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 0
    curve = out / "curve_pi0p5.csv"
    report = out / "breakpoints_pi0p5.json"
    assert curve.exists() and report.exists()
    with open(curve, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "error", "phase_label"]
    assert len(rows) == 1 + 2 * 12 + 1  # header + grid points
    errors = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    payload = json.loads(report.read_text())
    assert payload["pi"] == 0.5
    assert "detected_first" in payload and "predicted_first" in payload
    # manifest lists both outputs with their digests
    assert manifest is not None
    assert set(Path(p).name for p in manifest["outputs"]) == {
        "curve_pi0p5.csv", "breakpoints_pi0p5.json",
    }
    assert manifest["subcommand"] == "simulate"
    assert "wall_time_seconds" in manifest
    assert manifest["versions"]["mixval"] == cli.__version__


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", simulate_payload())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out2))[0] == 0
    assert read_bytes_map(out1) == read_bytes_map(out2)


def test_simulate_pi_grid(tmp_path, capsys):
    payload = simulate_payload(pi_grid=[0.25, 0.75])
    del payload["pi"]
    cfg = write_config(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert (out / "curve_pi0p25.csv").exists()
    assert (out / "curve_pi0p75.csv").exists()


def test_simulate_rejects_pi_and_grid_together(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", simulate_payload(pi_grid=[0.5]))
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")
    )
    assert code == 2


def test_simulate_rejects_an_empty_pi_grid(tmp_path, capsys):
    payload = simulate_payload(pi_grid=[])
    del payload["pi"]
    cfg = write_config(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "error[config]: 'pi_grid' must not be empty" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, clash",
    [([0.1234561, 0.1234564], "0.1234561 and 0.1234564"), ([0.5, 0.25, 0.5], "0.5 and 0.5")],
)
def test_simulate_rejects_pi_values_sharing_a_file_tag(tmp_path, capsys, grid, clash):
    # f"{pi:g}" keeps 6 significant digits: 0.1234561 and 0.1234564 both
    # name their curve curve_pi0p123456.csv
    payload = simulate_payload(pi_grid=grid)
    del payload["pi"]
    cfg = write_config(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "error[config]" in err
    assert clash in err
    assert not out.exists()


@pytest.mark.parametrize(
    "updates",
    [
        {"smooth_window": -3},
        {"smooth_window": 0},
        {"min_curvature": float("nan")},
        {"min_curvature": float("inf")},
        {"min_curvature": -0.01},
    ],
)
def test_simulate_rejects_bad_breakpoint_arguments(tmp_path, capsys, updates):
    cfg = write_config(tmp_path, "sim.json", simulate_payload(**updates))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 3 and "error[domain]" in err
    assert next(iter(updates)) in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# value / marginal.


def test_value_pipeline_outputs(tmp_path, capsys):
    payload = value_payload()
    payload["fit_weights"] = True
    cfg = write_config(tmp_path, "val.json", payload)
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 0
    with open(out / "scores.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(cli._TABLES["scores"])
    assert len(rows) == 4  # header + three contributors
    assert rows[1][0] == "c000"
    summary = json.loads((out / "value_summary.json").read_text())
    assert summary["n_scored"] == 3
    assert summary["failures"] == {}
    assert set(summary["fitted"]["weights"]) == {"w1", "w2", "w3", "w4"}
    assert (out / "scores_fitted.csv").exists()
    assert manifest["seed"] == 3


def test_value_rerun_and_thread_invariance(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "val.json", value_payload())
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(capsys, "value", "--config", str(cfg), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "value", "--config", str(cfg), "--out", str(out2))[0] == 0
    assert read_bytes_map(out1) == read_bytes_map(out2)
    monkeypatch.setenv("MIXVAL_THREADS", "3")
    assert run_cli(capsys, "value", "--config", str(cfg), "--out", str(out3))[0] == 0
    assert read_bytes_map(out1) == read_bytes_map(out3)


def test_value_seed_override_changes_results(tmp_path, capsys):
    cfg = write_config(tmp_path, "val.json", value_payload())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code, manifest, _ = run_cli(
        capsys, "value", "--config", str(cfg), "--out", str(out1), "--seed", "9"
    )
    assert code == 0 and manifest["seed"] == 9
    assert run_cli(capsys, "value", "--config", str(cfg), "--out", str(out2))[0] == 0
    assert (out1 / "scores.csv").read_bytes() != (out2 / "scores.csv").read_bytes()


def test_value_reads_contributor_directory(tmp_path, capsys):
    contributors = make_contributors(
        [(8, 4), (6, 6)], small_mixture(), feature_dim=4, seed=21
    )
    data_dir = tmp_path / "data"
    write_contributors(contributors, str(data_dir))
    payload = value_payload()
    payload["contributors"] = str(data_dir)
    cfg = write_config(tmp_path, "val.json", payload)
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 0
    # input CSVs are digested into the manifest
    assert any(name.endswith("c000.csv") for name in manifest["inputs"])
    with open(out / "scores.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows[1:]] == ["c000", "c001"]
    # a non-integer knowledge_index is a domain error that names its file
    bad = data_dir / "c001.csv"
    lines = bad.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = "2.5"
    lines[1] = ",".join(fields)
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "value", "--config", str(cfg), "--out", str(tmp_path / "out2")
    )
    assert code == 3
    assert "error[domain]" in err and "c001.csv" in err


def test_value_reads_a_test_sample_file(tmp_path, capsys):
    # the file holds the draw the config would generate inline: same outputs
    payload = value_payload()
    inline = write_config(tmp_path, "inline.json", payload)
    assert run_cli(capsys, "value", "--config", str(inline), "--out", str(tmp_path / "a"))[0] == 0
    [test] = make_contributors(
        [(12, 0)], MixtureSpec.power_law(), 4, derive_seed(payload["seed"], "cli-test")
    )
    [path] = write_contributors([test], str(tmp_path / "test"))
    from_file = write_config(tmp_path, "file.json", {**payload, "test": path})
    code, manifest, _ = run_cli(
        capsys, "value", "--config", str(from_file), "--out", str(tmp_path / "b")
    )
    assert code == 0
    assert path in manifest["inputs"]
    assert read_bytes_map(tmp_path / "b") == read_bytes_map(tmp_path / "a")


def write_repeated_id_directory(tmp_path: Path) -> Path:
    """c000.csv, same0.csv and same1.csv; the last two hold contributor 'same'."""
    first, *others = make_contributors(
        [(6, 4), (5, 5), (8, 2)], small_mixture(), feature_dim=4, seed=21
    )
    data_dir = tmp_path / "data"
    write_contributors([first], str(data_dir))
    for j, c in enumerate(others):
        [path] = write_contributors([dataclasses.replace(c, id="same")], str(tmp_path))
        os.replace(path, data_dir / f"same{j}.csv")
    return data_dir


@pytest.mark.parametrize(
    "command, flags",
    [("value", ()), ("marginal", ()), ("marginal", ("--weighting", "loo")),
     ("groundtruth", ())],
)
def test_repeated_contributor_id_exits_3(tmp_path, capsys, command, flags):
    payload = groundtruth_payload() if command == "groundtruth" else value_payload()
    payload["contributors"] = str(write_repeated_id_directory(tmp_path))
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out), *flags)
    assert code == 3, err
    assert "error[domain]: contributor id 'same' repeats" in err
    assert not out.exists()


def test_contributor_file_with_two_ids_exits_3(tmp_path, capsys):
    contributors = make_contributors(
        [(6, 4), (5, 5)], small_mixture(), feature_dim=4, seed=21
    )
    data_dir = tmp_path / "data"
    write_contributors(contributors, str(data_dir))
    bad = data_dir / "c001.csv"
    text = bad.read_text(encoding="utf-8")
    bad.write_text(text.replace("\nc001,", "\nb,", 1), encoding="utf-8")
    payload = value_payload()
    payload["contributors"] = str(data_dir)
    cfg = write_config(tmp_path, "val.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 3, err
    assert "error[domain]" in err and "c001.csv" in err and "'b', 'c001'" in err
    assert not out.exists()


def test_marginal_exact_and_sampled(tmp_path, capsys):
    payload = value_payload()
    cfg = write_config(tmp_path, "marg.json", payload)
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "marginal", "--config", str(cfg), "--out", str(out))
    assert code == 0
    with open(out / "marginal.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["contributor_id", "value", "stderr"]
    assert len(rows) == 4
    # exact enumeration carries no sampling error
    assert all(r[2] == "0.0" for r in rows[1:])
    summary = json.loads((out / "marginal_summary.json").read_text())
    assert summary["kind"] == "shapley"
    assert summary["permutations"] == 0
    assert summary["n_contributors"] == 3

    sampled_out = tmp_path / "sampled"
    code, _, _ = run_cli(
        capsys, "marginal", "--config", str(cfg), "--out", str(sampled_out),
        "--weighting", "shapley", "--permutations", "6",
    )
    assert code == 0
    with open(sampled_out / "marginal.csv", newline="") as handle:
        sampled_rows = list(csv.reader(handle))
    assert any(float(r[2]) > 0 for r in sampled_rows[1:])

    loo_out = tmp_path / "loo"
    code, _, _ = run_cli(
        capsys, "marginal", "--config", str(cfg), "--out", str(loo_out),
        "--weighting", "loo",
    )
    assert code == 0
    loo_summary = json.loads((loo_out / "marginal_summary.json").read_text())
    assert loo_summary["kind"] == "loo"


def test_marginal_loo_with_permutations_exits_3(tmp_path, capsys):
    # leave-one-out takes no permutation budget: refused, not dropped
    cfg = write_config(tmp_path, "marg.json", value_payload())
    out = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "marginal", "--config", str(cfg), "--out", str(out),
        "--weighting", "loo", "--permutations", "5",
    )
    assert code == 3, err
    assert "error[domain]" in err and "permutation budget" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# discrepancy / gram.


def test_discrepancy_on_plain_csv(tmp_path, capsys, monkeypatch):
    # the median and the MMD share one set of distance blocks
    blocks, cdist = [], mixval.mmd.cdist
    monkeypatch.setattr(
        mixval.mmd, "cdist",
        lambda a, b, metric: blocks.append((len(a), len(b))) or cdist(a, b, metric=metric),
    )
    rng = np.random.default_rng(2)
    for name, shift in (("x.csv", 0.0), ("y.csv", 1.0)):
        rows = rng.standard_normal((30, 2)) + shift
        text = "f0,f1\n" + "\n".join(
            f"{float(a)!r},{float(b)!r}" for a, b in rows
        ) + "\n"
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = write_config(
        tmp_path, "disc.json",
        {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv"),
         "estimator": "unbiased"},
    )
    out = tmp_path / "out"
    code, manifest, _ = run_cli(capsys, "discrepancy", "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "discrepancy.json").read_text())
    assert payload["estimator"] == "unbiased"
    assert payload["n_x"] == 30 and payload["n_y"] == 30
    assert payload["value"] > 0.1  # a unit mean shift is clearly visible
    assert payload["value"] == pytest.approx(
        max(payload["squared"], 0.0) ** 0.5, rel=1e-12
    )
    assert len(payload["bandwidths"]) == len(payload["kernel_weights"])
    assert len(blocks) == 3


def test_gram_outputs(tmp_path, capsys):
    [c] = make_contributors([(10, 5)], small_mixture(), feature_dim=4, seed=31)
    data_dir = tmp_path / "data"
    [sample_path] = write_contributors([c], str(data_dir))
    cfg = write_config(
        tmp_path, "gram.json",
        {"model": {"layer_widths": [4, 6, 1]}, "samples": sample_path},
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "gram", "--config", str(cfg), "--out", str(out))
    assert code == 0
    with open(out / "gram.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [f"g{i}" for i in range(15)]
    matrix = np.array([[float(v) for v in r] for r in rows[1:]])
    assert matrix.shape == (15, 15)
    assert np.allclose(matrix, matrix.T)
    payload = json.loads((out / "bound.json").read_text())
    assert payload["n"] == 15
    assert payload["bound_term"] > 0  # labeled rows allow the residual bound
    assert payload["gradient_norm_bound"] > 0

    # unlabeled plain samples: Gram only, bound reported as null
    plain = tmp_path / "plain.csv"
    plain.write_text(
        "f0,f1,f2,f3\n"
        + "\n".join(",".join(repr(float(v)) for v in row) for row in c.real_x)
        + "\n",
        encoding="utf-8",
    )
    cfg2 = write_config(
        tmp_path, "gram2.json",
        {"model": {"layer_widths": [4, 6, 1]}, "samples": str(plain)},
    )
    out2 = tmp_path / "out2"
    code, _, _ = run_cli(capsys, "gram", "--config", str(cfg2), "--out", str(out2))
    assert code == 0
    assert json.loads((out2 / "bound.json").read_text())["bound_term"] is None


# ---------------------------------------------------------------------------
# groundtruth / evaluate end to end.


def test_groundtruth_then_evaluate(tmp_path, capsys):
    gt_payload = groundtruth_payload()
    gt_cfg = write_config(tmp_path, "gt.json", gt_payload)
    gt_out = tmp_path / "gt"
    code, _, _ = run_cli(capsys, "groundtruth", "--config", str(gt_cfg), "--out", str(gt_out))
    assert code == 0
    with open(gt_out / "groundtruth.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0]) == [
        "contributor_id", "test_metric", "config_digest", "diverged", "epochs", "converged",
    ]
    assert [r["contributor_id"] for r in rows] == ["c000", "c001", "c002"]
    assert all(0.0 <= float(r["test_metric"]) <= 1.0 for r in rows)
    assert all(r["diverged"] == "0" for r in rows)
    # one restart each: it stopped on tol or at the 300-epoch cap
    for r in rows:
        assert r["converged"] == "1" or (r["converged"], r["epochs"]) == ("0", "300")
        assert 1 <= int(r["epochs"]) <= 300

    val_cfg = write_config(tmp_path, "val.json", {**value_payload(seed=5),
                                                  "contributors": gt_payload["contributors"],
                                                  "test": gt_payload["test"]})
    val_out = tmp_path / "val"
    assert run_cli(capsys, "value", "--config", str(val_cfg), "--out", str(val_out))[0] == 0

    ev_cfg = write_config(
        tmp_path, "ev.json",
        {"scores": str(val_out / "scores.csv"),
         "groundtruth": str(gt_out / "groundtruth.csv")},
    )
    ev_out = tmp_path / "ev"
    code, manifest, _ = run_cli(capsys, "evaluate", "--config", str(ev_cfg), "--out", str(ev_out))
    assert code == 0
    payload = json.loads((ev_out / "correlation.json").read_text())
    assert payload["n"] == 3
    assert payload["best_orientation"] in (1, -1)
    for orientation in ("positive", "negative"):
        for key in ("pearson", "spearman", "kendall"):
            assert -1.0 <= payload[orientation][key] <= 1.0
    assert payload["positive"]["spearman"] == -payload["negative"]["spearman"]
    # score and ground-truth files enter the manifest as digested inputs
    assert str(val_out / "scores.csv") in manifest["inputs"]

    # a ground-truth file without the epochs/converged columns reads the same
    short = tmp_path / "gt4.csv"
    short.write_text(
        "".join(",".join(line.split(",")[:4]) + "\n"
                for line in (gt_out / "groundtruth.csv").read_text().splitlines()),
        encoding="utf-8",
    )
    ev4_cfg = write_config(
        tmp_path, "ev4.json",
        {"scores": str(val_out / "scores.csv"), "groundtruth": str(short)},
    )
    ev4_out = tmp_path / "ev4"
    assert run_cli(capsys, "evaluate", "--config", str(ev4_cfg), "--out", str(ev4_out))[0] == 0
    assert (ev4_out / "correlation.json").read_bytes() == (ev_out / "correlation.json").read_bytes()


def test_groundtruth_with_an_unlabeled_test_file_exits_3(tmp_path, capsys):
    test = tmp_path / "test.csv"
    test.write_text("f0,f1,f2,f3\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.8\n", encoding="utf-8")
    cfg = write_config(tmp_path, "gt.json", {**groundtruth_payload(), "test": str(test)})
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "groundtruth", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]: ground truth needs a labeled test file" in err
    assert not out.exists()


def test_groundtruth_sizes_the_model_from_the_test_set(tmp_path, capsys, monkeypatch):
    # 3-wide contributors and a 4-wide test set: the model is 4 wide, as for
    # value and marginal, so the first training run rejects its inputs
    completed = []
    train_model = evalharness.train_model

    def counting(*args, **kwargs):
        result = train_model(*args, **kwargs)
        completed.append(result)
        return result

    monkeypatch.setattr(evalharness, "train_model", counting)
    payload = {
        **groundtruth_payload(),
        "contributors": {"plan": [[6, 2], [4, 4]], "feature_dim": 3},
        "test": {"size": 8, "feature_dim": 4},
        "training": {"max_epochs": 20},
    }
    del payload["model"]
    cfg = write_config(tmp_path, "gt.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "groundtruth", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "error[domain]: inputs must have 4 features, got shape (8, 3)" in err
    assert completed == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# Sample readers.


def test_read_samples_contributor_schema(tmp_path):
    [c] = make_contributors([(5, 3)], small_mixture(), feature_dim=4, seed=41)
    [path] = write_contributors([c], str(tmp_path))
    x, y = cli.read_samples(Path(path))
    assert x.shape == (8, 4)
    assert y is not None and y.shape == (8,)
    assert np.array_equal(x[:5], c.real_x)
    assert np.array_equal(y[:5], c.real_y)


def test_read_samples_plain_schema(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    x, y = cli.read_samples(path)
    assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.0]])
    assert y is None


def test_read_samples_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(DomainError):
        cli.read_samples(path)
    path.write_text("a,b\n1.0,inf\n", encoding="utf-8")
    with pytest.raises(DomainError, match="features must be finite, got inf$"):
        cli.read_samples(path)


# ---------------------------------------------------------------------------
# File handling: one reader and one writer for every file.


def test_missing_contributor_directory_exits_2(tmp_path, capsys):
    payload = value_payload()
    payload["contributors"] = str(tmp_path / "absent")
    cfg = write_config(tmp_path, "val.json", payload)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "value", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "error[config]" in err and str(tmp_path / "absent") in err
    assert not out.exists()


def test_ids_with_commas_and_quotes_round_trip(tmp_path, capsys):
    contributors = make_contributors(
        [(8, 4), (6, 6), (3, 9)], small_mixture(), feature_dim=4, seed=23
    )
    ids = ["a,b", 'say "x"', "plain"]
    data_dir = tmp_path / "data"
    write_contributors(
        [dataclasses.replace(c, id=i) for c, i in zip(contributors, ids)], str(data_dir)
    )
    for command, payload in (("value", value_payload()), ("groundtruth", groundtruth_payload())):
        payload["contributors"] = str(data_dir)
        cfg = write_config(tmp_path, f"{command}.json", payload)
        assert run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path))[0] == 0
    with open(tmp_path / "scores.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows[1:]] == sorted(ids)  # files are read in name order
    assert all(len(r) == len(cli._TABLES["scores"]) for r in rows)
    ev = {"scores": str(tmp_path / "scores.csv"), "groundtruth": str(tmp_path / "groundtruth.csv")}
    cfg = write_config(tmp_path, "ev.json", ev)
    code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0, err
    assert json.loads((tmp_path / "correlation.json").read_text())["n"] == 3


@pytest.mark.parametrize(
    "table, command, name",
    [
        ("curve", "simulate", "curve_pi0p5.csv"),
        ("scores", "value", "scores.csv"),
        ("marginal", "marginal", "marginal.csv"),
        ("groundtruth", "groundtruth", "groundtruth.csv"),
    ],
)
def test_help_lists_the_columns_runners_write(tmp_path, capsys, table, command, name):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    epilog = capsys.readouterr().out.split("output columns (fixed order):\n")[1]
    listed = {line.split()[0]: line.split()[2] for line in epilog.splitlines()[:4]}
    assert list(listed) == ["curve", "scores", "marginal", "groundtruth"]
    cfg = write_config(tmp_path, "cfg.json", edited_payload(tmp_path, command, {}))
    out = tmp_path / "out"
    assert run_cli(capsys, command, "--config", str(cfg), "--out", str(out))[0] == 0
    header = (out / name).read_text(encoding="utf-8").splitlines()[0]
    assert listed[table] == header
