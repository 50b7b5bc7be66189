"""Name-based strategy construction for the experiment harness."""

from __future__ import annotations

from typing import Callable

from .base import Strategy
from .fedavg import FedAvg
from .hipress import HiPress
from .local import LocalSingleSoC
from .parameter_server import ParameterServer
from .ring_allreduce import RingAllReduce
from .ssp import StaleSynchronous
from .tree_fedavg import TreeFedAvg
from .two_d_parallel import TwoDParallel

STRATEGY_REGISTRY: dict[str, Callable[[], Strategy]] = {
    "local": LocalSingleSoC,
    "ps": ParameterServer,
    "ring": RingAllReduce,
    "hipress": HiPress,
    "2d_paral": TwoDParallel,
    "ssp": StaleSynchronous,
    "fedavg": FedAvg,
    "t_fedavg": TreeFedAvg,
}


def build_strategy(name: str, **kwargs) -> Strategy:
    """Construct a baseline strategy by its registry name.

    SoCFlow itself lives in :mod:`repro.core` (``SoCFlow(SoCFlowOptions(
    ...))``).
    """
    try:
        factory = STRATEGY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGY_REGISTRY))
        raise ValueError(f"unknown strategy {name!r}; known: {known}") from None
    return factory(**kwargs)
