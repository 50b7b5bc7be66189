"""Each op is spelled once: with kernels, which a compiled step replays.

``nn/graph.py`` used to re-implement 25 ops as 50 ``_fwd_*``/``_bwd_*``
compiler methods; now it records the kernel calls
(:mod:`repro.nn.kernels`) of the one eager spelling and knows no op.
The structure tests scan the source the way
``tests/nn/test_train_step.py`` lists the step's call sites; the
behaviour tests replay ops the old compiler never learned and pin what
a capture refuses.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import Linear, Module, Sequential, Tensor
from repro.nn import functional as F
from repro.nn import graph as graph_mod
from repro.nn import kernels as K
from repro.nn.graph import attach_graph_executor, train_step
from repro.nn.optim import SGD

ROOT = Path(repro.__file__).parent

#: the op tags the old capture vocabulary and compiler were keyed on
OP_NAMES = {
    "add", "neg", "mul", "div", "pow", "matmul", "sum", "reshape",
    "transpose", "getitem", "relu", "exp", "log", "sqrt", "tanh", "sigmoid",
    "clip", "max", "pad2d", "concatenate", "conv2d", "max_pool2d",
    "avg_pool2d", "batch_norm", "log_softmax", "cross_entropy", "dropout",
    "ste_quant", "ste_fp16",
}


def parse(relative: str) -> ast.Module:
    return ast.parse((ROOT / relative).read_text())


# ----------------------------------------------------------------------
def test_the_compiler_knows_no_op():
    tree = parse("nn/graph.py")
    functions = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert not [name for name in functions
                if name.startswith(("_fwd_", "_bwd_"))]
    assert not [name for name in functions
                if any(name.endswith("_" + op) for op in OP_NAMES)]
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert not strings & OP_NAMES
    for name in ("_SUPPORTED", "_ELEMENTWISE", "_Src", "_Node", "_Compiler",
                 "_View", "_saved_values", "_acc_uf", "_acc_sum", "_acc_mm"):
        assert name not in (ROOT / "nn/graph.py").read_text(), name


def test_make_takes_no_op_tag_and_the_capture_hook_is_gone():
    assert list(inspect.signature(Tensor._make).parameters) == [
        "data", "parents", "backward"]
    import repro.nn.tensor as tensor_mod
    assert not hasattr(tensor_mod, "_CAPTURE")
    for path in ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "_make"):
                assert not [kw.arg for kw in node.keywords], path


def test_fuse_is_not_an_option_anywhere():
    from repro.nn.graph import GraphExecutor
    from repro.quant import Int8Trainer
    for fn in (attach_graph_executor, GraphExecutor.__init__,
               Module.enable_graph_executor,
               Int8Trainer.enable_graph_executor):
        assert "fuse" not in inspect.signature(fn).parameters, fn


# ----------------------------------------------------------------------
#: numpy calls an op body may make itself: views and shape arithmetic
FREE = {"expand_dims", "swapaxes", "broadcast_to", "asarray", "argsort",
        "prod", "cumsum", "float32", "float16", "float64"}
#: array methods that compute, copy or write
COMPUTING = {"sum", "mean", "var", "max", "min", "argmax", "astype", "copy",
             "fill", "dot", "clip", "cumsum", "take", "put"}
#: not ops: construction, conversion and the workspace allocators
NOT_OPS = {"__init__", "copy", "item", "detach", "numpy", "_workspace",
           "_scratch"}


def is_array(node) -> bool:
    """An expression that is certainly an ndarray: ``<x>.data``,
    ``<x>.grad`` or a backward closure's ``grad``."""
    return (isinstance(node, ast.Attribute) and node.attr in ("data", "grad")
            ) or (isinstance(node, ast.Name) and node.id in ("grad", "g"))


def raw_array_work(tree: ast.Module) -> list[str]:
    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            if node.name in NOT_OPS:
                return
            scope = node.name
        where = f"{scope}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                base = func.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if (isinstance(base, ast.Name) and base.id == "np"
                        and func.attr not in FREE):
                    found.append(f"{where} np.{func.attr}")
                if func.attr in COMPUTING and is_array(func.value):
                    found.append(f"{where} .{func.attr}()")
        elif isinstance(node, (ast.BinOp, ast.Compare, ast.UnaryOp)):
            operands = [getattr(node, name) for name in
                        ("left", "right", "operand") if hasattr(node, name)]
            operands += getattr(node, "comparators", [])
            if (any(map(is_array, operands))
                    and not isinstance(getattr(node, "op", None),
                                       (ast.Not, ast.MatMult))
                    and not all(isinstance(op, (ast.Is, ast.IsNot))
                                for op in getattr(node, "ops", [ast.Add()]))):
                found.append(f"{where} operator")
        elif isinstance(node, ast.AugAssign) and (
                is_array(node.target) or isinstance(node.target,
                                                    ast.Subscript)):
            found.append(f"{where} in-place operator")
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript)
                and not isinstance(target.value, ast.Name)
                or isinstance(target, ast.Subscript) and is_array(target.value)
                for target in node.targets):
            found.append(f"{where} item assignment")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("relative", ["nn/tensor.py", "nn/functional.py",
                                      "quant/ste.py"])
def test_op_bodies_compute_through_the_kernel_table(relative):
    assert raw_array_work(parse(relative)) == []


def test_the_scan_sees_raw_numpy():
    """The scanner itself: every form it exists for is reported."""
    source = '''
def op(self, other):
    a = np.exp(self.data)
    b = self.data + other.data
    c = -self.data
    d = self.data > 0
    def backward(grad):
        self.grad += grad
        e = grad * 2
        f = grad.sum(axis=0)
        self.data[...] = 0
    v = np.expand_dims(self.data, 0).reshape(3)
    ok = self.grad is None
'''
    found = raw_array_work(ast.parse(source))
    assert [item.split(" ", 1)[1] for item in found] == [
        "np.exp", "operator", "operator", "operator", "in-place operator",
        "operator", ".sum()", "item assignment"]


# ----------------------------------------------------------------------
class FourOps(Module):
    """``log``, ``clip``, ``max`` and ``concatenate``: eager ops the old
    compiler had no ``_fwd_``/``_bwd_`` pair for, so a model using one
    fell back to eager for good."""

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.left = Linear(64, 12, rng)
        self.right = Linear(64, 12, rng)
        self.head = Linear(25, 10, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x.reshape(x.shape[0], -1)
        left = (self.left(x).clip(-1.0, 2.0) + 3.0).log()
        right = self.right(x).tanh()
        peak = right.max(axis=1, keepdims=True)
        return self.head(Tensor.concatenate([left, right - peak, peak],
                                            axis=1))


def batch(seed: int, size: int = 6):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((size, 1, 8, 8)).astype(np.float32),
            rng.integers(0, 10, size=size))


def trained(model_of, steps: int, graph: bool):
    model = model_of()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=1e-4, flat=model.flatten_parameters())
    executor = attach_graph_executor(model) if graph else None
    losses = [train_step(model, optimizer, *batch(step))
              for step in range(steps)]
    return model, optimizer, executor, losses


def assert_same_training(eager, graphed):
    __tracer__ = "hide"
    (model_a, opt_a, _, losses_a), (model_b, opt_b, _, losses_b) = (eager,
                                                                    graphed)
    assert losses_a == losses_b
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key
    for va, vb in zip(opt_a.state_dict()["velocity"],
                      opt_b.state_dict()["velocity"]):
        assert np.array_equal(va, vb)


def test_ops_the_compiler_never_learned_now_replay():
    """Adding an op is writing it with kernels; ``graph.py`` is not
    edited.  (At the parent commit: ``captures == 0``,
    ``fallbacks == 1``.)"""
    eager = trained(lambda: FourOps(0), 5, graph=False)
    graphed = trained(lambda: FourOps(0), 5, graph=True)
    assert_same_training(eager, graphed)
    assert graphed[2].stats == {"captures": 1, "replays": 4,
                                "eager_steps": 0, "fallbacks": 0}


class Softsign(Module):
    """An op written in this file, with kernels, against no registry:
    ``x / (1 + |x|)`` and its gradient ``1 / (1 + |x|)**2``."""

    def forward(self, x: Tensor) -> Tensor:
        denom = K.add(K.multiply(x.data, K.copy(K.greater(x.data, 0))), 1.0)
        K.subtract(denom, K.multiply(x.data, K.copy(K.less_equal(x.data, 0))),
                   out=denom)

        def backward(grad: np.ndarray) -> None:
            x._accumulate(K.divide(grad, K.square(denom)))

        return Tensor._make(K.divide(x.data, denom), (x,), backward)


def test_a_new_op_written_with_kernels_replays_unedited():
    def model_of():
        rng = np.random.default_rng(1)
        return Sequential(FourOps(2), Softsign(), Linear(10, 10, rng))

    eager = trained(model_of, 4, graph=False)
    graphed = trained(model_of, 4, graph=True)
    assert_same_training(eager, graphed)
    assert graphed[2].stats["fallbacks"] == 0
    assert graphed[2].stats["replays"] == 3


# ----------------------------------------------------------------------
def refused(model) -> str:
    """The reason a capture of ``model``'s step gives for refusing."""
    optimizer = SGD(model.parameters(), lr=0.05,
                    flat=model.flatten_parameters())
    replica = graph_mod._Replica(model, model.flatten_parameters())
    capture = graph_mod.GraphCapture(replica)
    train_step(model, optimizer, *batch(0), capture=capture)
    with pytest.raises(graph_mod.GraphUnsupported) as failure:
        graph_mod.compile_program(capture, replica)
    return str(failure.value)


class Through(Module):
    def __init__(self, fn):
        super().__init__()
        self.body = Sequential(FourOps(0))
        self.fn = fn

    def forward(self, x):
        return self.fn(self.body(x))


def test_a_float_array_of_unknown_origin_is_refused_as_a_kernel_argument():
    """Between the choke points: raw numpy fed *into* a kernel."""
    def op(x):
        hidden = np.tanh(x.data)                # raw numpy on step data

        def backward(grad):
            x._accumulate(K.multiply(grad, hidden))

        return Tensor._make(K.multiply(x.data, hidden), (x,), backward)

    assert "float array" in refused(Through(op))


def test_a_step_that_ignores_its_batch_is_refused():
    """``y`` must reach the loss as the step's own array: a copy would
    replay the captured targets forever."""
    class OwnTargets(Module):
        def __init__(self):
            super().__init__()
            self.body = FourOps(0)

        def forward(self, x):
            return self.body(x)

    model = OwnTargets()
    optimizer = SGD(model.parameters(), lr=0.05,
                    flat=model.flatten_parameters())
    replica = graph_mod._Replica(model, model.flatten_parameters())
    capture = graph_mod.GraphCapture(replica)
    x, y = batch(0)
    capture.begin(x, y)
    K.trace = capture
    try:
        loss = F.cross_entropy(model(Tensor(x)), y.copy())
        loss.backward()
        capture.end(loss.data)
    finally:
        K.trace = None
    with pytest.raises(graph_mod.GraphUnsupported, match="its batch"):
        graph_mod.compile_program(capture, replica)


def test_views_replay_from_owner_offset_shape_and_strides():
    """``reshape().T``, slices, ``swapaxes``, ``T[None]`` and
    ``broadcast_to`` of a temporary, a leaf and the input all rebuild
    at bind time from ``(owner, byte offset, shape, strides)``."""
    class Views(Module):
        def __init__(self):
            super().__init__()
            self.inner = Linear(64, 16, np.random.default_rng(3))
            self.head = Linear(8, 10, np.random.default_rng(4))

        def forward(self, x):
            h = self.inner(x.reshape(x.shape[0], -1))       # (N, 16)
            cube = h.reshape(-1, 4, 4).transpose(0, 2, 1)    # strided
            half = cube[:, 1:3, ::2]                        # sliced view
            wide = half.reshape(x.shape[0], -1)             # copying reshape
            tall = cube.transpose(1, 0, 2)[None][0, :2]     # T[None], slice
            extra = tall.sum(axis=0).reshape(x.shape[0], -1)
            return self.head(Tensor.concatenate([wide, extra], axis=1))

    eager = trained(Views, 4, graph=False)
    graphed = trained(Views, 4, graph=True)
    assert_same_training(eager, graphed)
    assert graphed[2].stats == {"captures": 1, "replays": 3,
                                "eager_steps": 0, "fallbacks": 0}


def test_a_capture_keeps_no_array_of_the_step_alive():
    """Memory is known by address only while its array lives, so a
    capture step peaks where an eager step does; what is still
    registered after the step is what somebody else holds — the
    replica's storage and the op workspace cache."""
    model = FourOps(0)
    optimizer = SGD(model.parameters(), lr=0.05,
                    flat=model.flatten_parameters())
    flat = model.flatten_parameters()
    replica = graph_mod._Replica(model, flat)
    capture = graph_mod.GraphCapture(replica)
    train_step(model, optimizer, *batch(0), capture=capture)
    assert len(capture.bufs) > 20
    held = {id(extent[2]()) for extent in capture._extents.values()}
    assert held <= ({id(flat.data), id(flat.grads)}
                    | {id(buf) for buf in F._WORKSPACES.values()})
    plan = graph_mod.compile_program(capture, replica)
    assert plan.bind(replica) is not None


def test_a_strided_batch_is_refused_not_replayed_on_another_layout():
    """The plan's input buffer is C-contiguous; a step captured on a
    strided batch would replay its reductions in another order."""
    model = FourOps(0)
    optimizer = SGD(model.parameters(), lr=0.05,
                    flat=model.flatten_parameters())
    executor = attach_graph_executor(model)
    x, y = batch(0, size=12)
    for _ in range(2):
        train_step(model, optimizer, x[::2], y[::2])
    assert executor.stats == {"captures": 0, "replays": 0,
                              "eager_steps": 1, "fallbacks": 1}
