"""The benchmark harness's hold on the package, checked without running it.

``bench/`` changes only together with the benchmark, so every name it takes
from ``repro`` must keep resolving.  Two kinds of reference are read from
its source with ``ast``:

* every ``from repro... import name`` in ``bench/*.py``, at module level or
  inside a function;
* every ``recorder.wrap(owner, "attr", ...)`` in ``bench/child.py``: the
  traced runs replace ``vars(owner)[attr]``, so the attribute must be
  public and defined on the owner itself, not inherited.

Only one workload is traced in ``bench/test_bench.py``; these checks cover
the scoring and hash-analysis spans the same way.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, name: str):
    """``from module import name``: an attribute or else a submodule."""
    package = importlib.import_module(module)
    if hasattr(package, name):
        return getattr(package, name)
    return importlib.import_module(f"{module}.{name}")


def _repro_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name


IMPORTS = sorted(
    {
        (path.name, module, name)
        for path in BENCH.glob("*.py")
        for module, name in _repro_imports(ast.parse(path.read_text()))
    }
)


def _wrap_targets(tree: ast.AST):
    """``(owner module, owner name, attr)`` of each ``recorder.wrap`` call.

    The owner is a name bound by a ``from repro... import`` in the same
    function as the call.
    """
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound = {
            alias.asname or alias.name: module
            for node in ast.walk(function)
            if isinstance(node, ast.ImportFrom) and (module := node.module or "").startswith("repro")
            for alias in node.names
        }
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and len(node.args) >= 2
            ):
                continue
            owner, attr = node.args[:2]
            assert isinstance(owner, ast.Name) and owner.id in bound, ast.dump(node)
            assert isinstance(attr, ast.Constant) and isinstance(attr.value, str), ast.dump(node)
            yield bound[owner.id], owner.id, attr.value


WRAPS = sorted(set(_wrap_targets(ast.parse((BENCH / "child.py").read_text()))))


def test_the_scan_sees_the_harness():
    """An empty scan would pass everything: pin that it finds both kinds."""
    assert ("workloads.py", "repro.scoring.signatures", "FIELD_ORDER") in IMPORTS
    wrapped = {(owner, attr) for _module, owner, attr in WRAPS}
    # One span from each traced pipeline: hash analysis and pcap scoring.
    assert ("castan", "build_flow_rainbow_table") in wrapped
    assert ("jobs", "iter_pcap_batches") in wrapped


@pytest.mark.parametrize(
    "path,module,name", IMPORTS, ids=[f"{p}:{m}.{n}" for p, m, n in IMPORTS]
)
def test_bench_import_resolves(path, module, name):
    _resolve(module, name)


@pytest.mark.parametrize(
    "module,owner,attr", WRAPS, ids=[f"{owner}.{attr}" for _m, owner, attr in WRAPS]
)
def test_bench_wrap_target_exists(module, owner, attr):
    target = _resolve(module, owner)
    assert not attr.startswith("_")
    assert attr in vars(target), f"bench/child.py wraps {module}.{owner}.{attr}, which is gone"
