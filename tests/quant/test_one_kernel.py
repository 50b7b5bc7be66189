"""One spelling of "round to the grid", one INT8 step.

Scale → divide → round → clip → dequantise used to be written five
times (``fake_quantize``, ``fake_quantize_observed``,
``fake_quantize_segments``, ``SegmentQuantizer.__call__``, the
``ste_quant`` kernel) and the step around it twice (the fused stages
and a per-parameter loop in ``Int8Trainer``).  Now there is
:func:`repro.nn.kernels.fake_quant` plus the int32 reference pair in
``repro.quant.int8``, and one ``before``/``after``.  These scans keep
the deleted spellings deleted, the way ``tests/nn/test_kernel_trace.py``
keeps op names out of the compiler; ``tests/quant/test_fused_quant.py``
holds the behaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.nn import kernels as K
from repro.nn.modules import Module
from repro.quant import Int8Trainer, int8

ROOT = Path(repro.__file__).parent

#: the kernel, and the int32 reference the tests compare it against
ROUNDING_BODIES = {("nn/kernels.py", "fake_quant"),
                   ("quant/int8.py", "quantize")}


def functions_calling(attribute: str, tree: ast.AST) -> set[str]:
    """Names of the functions of ``tree`` whose body calls
    ``np.<attribute>(...)`` (innermost function only)."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = [n for child in ast.iter_child_nodes(node)
                 for n in ast.walk(child)]
        nested = {id(n) for fn in inner
                  if isinstance(fn, (ast.FunctionDef, ast.Lambda))
                  for n in ast.walk(fn) if n is not fn}
        for call in inner:
            if (isinstance(call, ast.Call) and id(call) not in nested
                    and ast.unparse(call.func) == f"np.{attribute}"):
                found.add(node.name)
    return found


def bodies_calling(attribute: str) -> set[tuple[str, str]]:
    return {(str(path.relative_to(ROOT)), name)
            for path in ROOT.rglob("*.py")
            for name in functions_calling(attribute,
                                          ast.parse(path.read_text()))}


def test_the_scanner_sees_calls_and_skips_nested_functions():
    tree = ast.parse(
        "def outer(x):\n"
        "    def inner(y):\n"
        "        return np.rint(y)\n"
        "    return np.floor(x)\n")
    assert functions_calling("rint", tree) == {"inner"}
    assert functions_calling("floor", tree) == {"outer"}


def test_rounding_is_spelled_in_the_kernel_and_the_reference_only():
    assert bodies_calling("rint") == ROUNDING_BODIES
    assert bodies_calling("floor") == ROUNDING_BODIES
    assert bodies_calling("round") == set()


def test_float16_casts_go_through_the_one_helper():
    """No ``astype(np.float16)`` chain outside the helper: whoever
    needs the format passes float16 storage to ``fp16_round_trip``."""
    for path in ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"):
                assert "float16" not in ast.unparse(node), path


def test_the_deleted_spellings_stay_deleted():
    assert not hasattr(int8, "fake_quantize_observed")
    assert not hasattr(K, "ste_quant")
    for name in ("_flat", "_restore", "_masters"):
        assert not hasattr(Int8Trainer, name), name
    trainer_source = (ROOT / "quant/trainer.py").read_text()
    for name in ("fake_quantize", "_masters", "_restore"):
        assert name not in trainer_source, name
    assert "not every parameter" not in (ROOT / "nn/graph.py").read_text()


def test_the_trainer_never_loops_over_parameters():
    """Quantise, clip and restore are whole-plane (or per-run) array
    calls; nothing in ``quant/trainer.py`` walks ``model.parameters()``
    except handing them to the optimiser."""
    tree = ast.parse((ROOT / "quant/trainer.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            assert "parameters" not in ast.unparse(node.iter), \
                ast.unparse(node.iter)


def test_flatten_parameters_has_no_unfused_outcome():
    """``Module.flatten_parameters`` returns the buffer or raises: no
    ``None``, and so no ``flat is None`` branch in the step."""
    import inspect
    source = inspect.getsource(Module.flatten_parameters)
    assert "except" not in source and "= None" not in source
    for relative in ("nn/graph.py", "quant/trainer.py",
                     "core/mixed_precision.py"):
        text = (ROOT / relative).read_text()
        assert "flat is None" not in text, relative
        assert "flat is not None" not in text, relative
