"""Model state has one representation, and the fallbacks stay deleted.

Every model is a :class:`~repro.nn.flat.FlatParamBuffer` from
construction and every consumer takes :class:`~repro.nn.flat.FlatState`
snapshots, so the per-key, per-parameter, re-fuse and pickle paths that
used to sit behind the fused ones are gone.  These pins keep them gone,
and keep every name the claims benchmark reaches into resolvable.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: identifiers of the deleted mechanisms, nowhere under ``src/repro``
DELETED = {
    "is_intact",                # FlatState / FlatParamBuffer intactness
    "bind_flat",                # SGD re-binding after a re-fuse
    "_fused_step",              # SGD's fast path: now the only step
    "_flat_velocity",           # ... beside the per-parameter ``_velocity``
    "_flat_mode_ok",            # the pool's transport choice
    "force_pickle",
    "use_shm",
    "state_l2_distance",        # dead helpers of repro.comm
    "zeros_like_state",
}


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def identifiers(tree) -> "set[str]":
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def function(relative: str, name: str, cls: "str | None" = None
             ) -> ast.FunctionDef:
    tree = ast.parse((SRC / relative).read_text())
    if cls is not None:
        tree, = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls]
    found, = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def test_deleted_names_stay_deleted():
    hits = {(path, name) for path, tree in trees()
            for name in identifiers(tree) & DELETED}
    assert hits == set()


def test_the_pool_has_one_transport():
    assert "pickle" not in identifiers(
        ast.parse((SRC / "parallel/pool.py").read_text()))


def test_common_flat_layout_never_returns_none():
    returns = [node for node in ast.walk(
        function("nn/flat.py", "common_flat_layout"))
        if isinstance(node, ast.Return)]
    assert returns and all(
        node.value is not None
        and not (isinstance(node.value, ast.Constant)
                 and node.value.value is None) for node in returns)


@pytest.mark.parametrize("relative,name", [
    ("comm/primitives.py", "weighted_average_states"),
    ("comm/buckets.py", "bucketed_average_states"),
    ("quant/mixed.py", "merge_weights"),
    ("nn/modules.py", "state_dict"),
    ("nn/modules.py", "load_state_dict"),
])
def test_state_consumers_have_no_per_key_branch(relative, name):
    """One path each: no loop over keys, no float64 accumulator, no
    detour through ``average_states``."""
    node = function(relative, name,
                    "Module" if relative == "nn/modules.py" else None)
    loops = [n for n in ast.walk(node) if isinstance(n, (ast.For,
                                                          ast.comprehension))
             if "items" in identifiers(n.iter) or "keys" in identifiers(n.iter)]
    assert loops == []
    assert not {"float64", "average_states", "OrderedDict"} & identifiers(node)


def test_sgd_step_has_no_per_parameter_loop():
    step = function("nn/optim.py", "step", "SGD")
    assert not any(isinstance(n, ast.For) and "params" in identifiers(n.iter)
                   for n in ast.walk(step))
    assert "missing_grads" in identifiers(step)    # the loud error


def test_flatten_parameters_never_re_fuses():
    """No re-fuse: a module gets one buffer, once."""
    node = function("nn/modules.py", "flatten_parameters")
    builds = [n for n in ast.walk(node) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "FlatParamBuffer"]
    assert len(builds) == 1
    assert "previous" not in identifiers(node)


def test_every_benchmark_patch_target_resolves():
    """The claims benchmark wraps ``spans.PATCHES`` and imports names in
    ``probes.py``: each must still be where it names it."""
    spec = importlib.util.spec_from_file_location("e2e_spans",
                                                  E2E / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, _, module_name, path, *_ in spans.PATCHES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    imports = [node for node in ast.walk(ast.parse(
        (E2E / "probes.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
