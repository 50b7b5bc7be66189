"""INT8 fake-quantised training — the simulated mobile-NPU backend.

The paper runs NITI-style integer training (Wang et al.) on the Hexagon
DSP; here the same error mechanism is reproduced by keeping weights on a
symmetric INT8 grid and quantising activations/gradients each step.
"""

from .int8 import (QuantConfig, dequantize, fake_quantize, quantize,
                   quantization_error)
from .observer import EmaObserver
from .trainer import Int8Trainer
from .ste import (ste_quantize, ste_cast_fp16, ActivationQuantizer,
                  attach_activation_quant)
from .mixed import (compute_alpha, compute_beta, cpu_fraction,
                    merge_weights, MixedPrecisionController)

__all__ = [
    "QuantConfig", "quantize", "dequantize", "fake_quantize",
    "quantization_error", "EmaObserver", "Int8Trainer",
    "ste_quantize", "ste_cast_fp16", "ActivationQuantizer",
    "attach_activation_quant",
    "compute_alpha", "compute_beta", "cpu_fraction", "merge_weights",
    "MixedPrecisionController",
]
