"""The package namespace and the import paths README documents."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mixval
from mixval import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_attributes_are_modules():
    import mixval.mmd as m

    assert isinstance(m, ModuleType) and m.__name__ == "mixval.mmd"
    names = [name for name in vars(mixval) if not name.startswith("__")]
    assert {"errors", "evalharness", "longtail", "mmd", "ntk", "scaling", "valuation"} <= set(names)
    for name in names:
        value = getattr(mixval, name)
        assert isinstance(value, ModuleType), f"mixval.{name} is {value!r}"
    assert mixval.__version__ == cli._versions()["mixval"]


def test_readme_imports_resolve():
    text = README.read_text(encoding="utf-8")
    statements = []
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
        tree = ast.parse(block)
        statements += [
            ast.get_source_segment(block, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mixval"
        ]
    assert statements
    for statement in statements:
        exec(statement, {})
    # every module in the module map imports as that module
    modules = re.findall(r"^\| `(mixval\.\w+)` \|", text, flags=re.M)
    assert "mixval.mmd" in modules
    for name in modules:
        namespace = {}
        exec(f"import {name} as module", namespace)
        assert isinstance(namespace["module"], ModuleType), name
        assert namespace["module"].__name__ == name


# ---------------------------------------------------------------------------
# Import discipline.  scipy.spatial, scipy.linalg and scipy.special take about
# 0.4 s and 30 MB to load, so only the subcommands that score load them.  Each
# check runs in a fresh interpreter: other test modules import scipy here.

_SCIPY_HEAVY = ("scipy.linalg", "scipy.spatial", "scipy.special")

_CONFIGS = {
    "simulate": {
        "params": {"support_max": 2_000}, "pi": 0.5, "n_min": 1e2, "n_max": 1e4,
        "points_per_decade": 12,
    },
    "groundtruth": {
        "seed": 5,
        "contributors": {"plan": [[6, 2], [2, 6]], "feature_dim": 3},
        "test": {"size": 8, "feature_dim": 3},
        "model": {"layer_widths": [3, 4, 1]},
        "training": {"max_epochs": 20},
    },
    "value": {
        "seed": 3,
        "contributors": {"plan": [[6, 4], [5, 5]], "feature_dim": 3},
        "test": {"size": 8, "feature_dim": 3},
        "model": {"layer_widths": [3, 4, 1]},
    },
}


def fresh_python(code: str) -> list[str]:
    """Run ``code`` in a new interpreter that imports mixval from this
    checkout; return the modules under ``_SCIPY_HEAVY`` it had loaded at the end."""
    src = str(Path(mixval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += (
        "\nimport sys"
        f"\nprint(sorted(m for m in sys.modules if m.startswith({_SCIPY_HEAVY!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def run_in_fresh_python(tmp_path: Path, command: str, prelude: str = "") -> list[str]:
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(_CONFIGS[command]), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    return fresh_python(
        f"from mixval import cli\n{prelude}\nassert cli.main({argv!r}) == 0"
    )


def test_importing_the_package_and_cli_loads_no_heavy_scipy():
    assert fresh_python("import mixval") == []
    assert fresh_python("import mixval.cli") == []


@pytest.mark.parametrize("command", ["simulate", "groundtruth"])
def test_subcommands_that_do_not_score_load_no_heavy_scipy(tmp_path, command):
    assert run_in_fresh_python(tmp_path, command) == []


def test_value_loads_scipy_before_it_generates_data(tmp_path):
    # scipy imported after data generation lands above the freed arrays on
    # the heap and holds the peak RSS up: a 6 x 1500-sample run peaked 7% higher
    prelude = (
        "import sys\n"
        "assert 'scipy.spatial.distance' not in sys.modules\n"
        "load_data = cli._load_data\n"
        "def checked(cfg, run):\n"
        "    assert 'scipy.spatial.distance' in sys.modules\n"
        "    assert 'scipy.linalg' in sys.modules\n"
        "    return load_data(cfg, run)\n"
        "cli._load_data = checked\n"
    )
    loaded = run_in_fresh_python(tmp_path, "value", prelude)
    assert "scipy.spatial.distance" in loaded and "scipy.linalg" in loaded
