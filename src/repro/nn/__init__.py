"""Pure-numpy DNN training framework (autograd, layers, optimisers).

This substitutes for the MNN CPU backend the paper builds on: the same
algorithms (SGD over conv nets) with identical learning dynamics, minus
the ARM kernels.
"""

from . import functional, init, models
from .arena import StepArena
from .flat import FlatLayout, FlatParamBuffer, FlatState
from .modules import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Dropout,
                      Flatten, GlobalAvgPool2d, Identity, Linear, MaxPool2d,
                      Module, ReLU, Sequential)
from .optim import SGD, ConstantLR, CosineAnnealingLR, StepLR
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor", "no_grad", "functional", "init", "models",
    "Module", "Sequential", "Linear", "Conv2d", "BatchNorm1d", "BatchNorm2d",
    "ReLU", "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten", "Dropout",
    "Identity",
    "SGD", "StepLR", "CosineAnnealingLR", "ConstantLR",
    "FlatLayout", "FlatParamBuffer", "FlatState", "StepArena",
]
