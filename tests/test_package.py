"""The package namespace and the import paths README documents."""

import ast
import re
from pathlib import Path
from types import ModuleType

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
