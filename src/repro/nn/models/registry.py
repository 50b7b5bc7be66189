"""Name-based model construction used by the experiment harness."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import init
from ..modules import Module
from .lenet import LeNet5
from .mobilenet import MobileNetV1
from .resnet import ResNet18, ResNet50
from .transformer import VisionTransformer
from .vgg import VGG11

MODEL_REGISTRY: dict[str, Callable[..., Module]] = {
    "lenet5": LeNet5,
    "vgg11": VGG11,
    "resnet18": ResNet18,
    "resnet50": ResNet50,
    "mobilenet_v1": MobileNetV1,
    "vit_tiny": VisionTransformer,
}


def build_model(name: str, init_weights: bool = True, **kwargs) -> Module:
    """Construct a zoo model by name (``lenet5``, ``vgg11``, ...).

    ``init_weights=False`` says the caller loads every weight before
    using the model (a replica of an existing one): the random
    initialisation draws are skipped and the weights start as
    uninitialised storage — unless a module of the built model keeps
    the generator (a ``Dropout`` sharing the init ``rng``), whose
    stream must start where the draws leave it; then the model is
    built in full.
    """
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; known models: {known}") from None
    if not init_weights:
        with init.skip_draws():
            model = factory(**kwargs)
        if not any(isinstance(value, np.random.Generator)
                   for module in model.modules()
                   for value in vars(module).values()):
            return model
    return factory(**kwargs)
