"""Layer / module abstraction over the autograd engine.

Modules own named :class:`~repro.nn.tensor.Tensor` parameters and plain
numpy buffers (batch-norm running statistics).  ``state_dict`` /
``load_state_dict`` round-trip both, which is what the distributed
strategies use to ship weights between simulated SoCs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import functional as F
from . import init
from .flat import FlatParamBuffer, FlatState
from .tensor import Tensor

__all__ = [
    "Module", "Sequential", "Linear", "Conv2d", "BatchNorm2d",
    "ReLU", "MaxPool2d", "GlobalAvgPool2d", "Flatten",
    "Identity",
]


class Module:
    """Base class: parameter registration, train/eval mode, state dicts."""

    def __init__(self):
        self._parameters: OrderedDict[str, Tensor] = OrderedDict()
        self._buffers: OrderedDict[str, np.ndarray] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self._flat = None
        self.training = True

    # -- registration --------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        self._buffers[name] = array
        return array

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()
        if self._flat is not None:
            self._flat.claim_grads()

    # -- fused storage ---------------------------------------------------
    def flatten_parameters(self, arena=None, shared_weights=False):
        """The module's :class:`~repro.nn.flat.FlatParamBuffer`: its
        parameters, buffers and gradients packed into contiguous arrays,
        on first call (``make_model`` does it where a run's model is
        built); the same buffer after.  Non-float32 storage raises
        ``TypeError``: there is no unfused training step.

        ``arena`` is the run's :class:`~repro.nn.arena.StepArena` when
        the module is one replica of a run (its gradients then land in
        the run's shared plane); without one the module gets a private
        arena.  A module is flattened into one arena for good: naming
        another one later raises ``ValueError``.  ``shared_weights``
        puts the weights on the arena's weight plane (see
        :class:`~repro.nn.flat.FlatParamBuffer`), also for good.
        """
        flat = self._flat
        if flat is None:
            flat = self._flat = FlatParamBuffer(self, arena, shared_weights)
        elif arena is not None and arena is not flat.arena:
            raise ValueError("module is already flattened into another "
                             "step arena")
        return flat

    def enable_graph_executor(self, max_programs: int = 8, arena=None):
        """Attach a trace-once/replay-many step executor (idempotent).

        Returns the :class:`~repro.nn.graph.GraphExecutor` now owned by
        the module.  ``fp32_train_step`` dispatches to the executor
        when present; replayed steps are bit-identical to the eager
        interpreter.  ``arena`` is the run's
        :class:`~repro.nn.arena.StepArena`: structurally equal replicas
        handed the same arena compile once and share one workspace.
        """
        from .graph import attach_graph_executor
        return attach_graph_executor(self, max_programs=max_programs,
                                     arena=arena)

    # -- state ----------------------------------------------------------
    def state_dict(self) -> FlatState:
        """A :class:`~repro.nn.flat.FlatState` snapshot of every
        parameter and buffer: one copy of the fused storage."""
        return self.flatten_parameters().state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Copy ``state`` into the module.  A ``FlatState`` of this
        layout is one copy; any other mapping must hold exactly this
        module's keys and shapes (``ValueError`` otherwise)."""
        flat = self.flatten_parameters()
        flat.load_flat(FlatState.from_mapping(flat.layout, state))

    # -- call -----------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(init.kaiming_uniform((out_features, in_features), rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(init.zeros((out_features,))))
        #: optional Tensor -> Tensor hook applied to the output
        #: (INT8 activation quantisation attaches here)
        self.output_quant = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.linear(x, self.weight, self.bias)
        if self.output_quant is not None:
            out = self.output_quant(out)
        return out


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 groups: int = 1, bias: bool = True):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = self.register_parameter(
            "weight", Tensor(init.kaiming_normal(shape, rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(init.zeros((out_channels,))))
        #: optional Tensor -> Tensor hook applied to the output
        #: (INT8 activation quantisation attaches here)
        self.output_quant = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.weight, self.bias, stride=self.stride,
                       padding=self.padding, groups=self.groups)
        if self.output_quant is not None:
            out = self.output_quant(out)
        return out


class BatchNorm2d(Module):
    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.weight = self.register_parameter(
            "weight", Tensor(init.ones((num_features,))))
        self.bias = self.register_parameter(
            "bias", Tensor(init.zeros((num_features,))))
        self.running_mean = self.register_buffer(
            "running_mean", init.zeros((num_features,)))
        self.running_var = self.register_buffer(
            "running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(x, self.weight, self.bias, self.running_mean,
                            self.running_var, self.training,
                            momentum=self.momentum, eps=self.eps)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
