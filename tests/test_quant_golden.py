"""Golden digests of the quantised training step, frozen backbones
included.

Recorded at the parent of the one-kernel refactor (five spellings of
scale → divide → round → clip → dequantise, a fused and a per-parameter
``Int8Trainer`` step) and required to hold after it: sha-256 over the
four batch losses, every weight and buffer, the momentum, the
stochastic-rounding generator's position, the input and activation
EMAs and ``predict_logits`` after four ``Int8Trainer.train_step``\\ s —
plus FP32 ``SGD(flat=…)`` with weight decay on the frozen model, whose
update was the per-tensor loop at the parent.  A mismatch is a moved
bit, not a tolerance drift.  The table lives in ``quant_golden.json``
beside this file; regenerate it with
``PYTHONPATH=src python tests/test_quant_golden.py`` — and say in
CHANGES.md which digests moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn.graph import train_step
from repro.nn.models.registry import build_model
from repro.nn.optim import SGD
from repro.quant import Int8Trainer, QuantConfig

CONFIGS = {
    "int8": QuantConfig(),
    "int8_rint": QuantConfig(stochastic_rounding=False),
    "fp16": QuantConfig(float16=True),
    "int4": QuantConfig(bits=4),
    "weights_only": QuantConfig(quantize_gradients=False,
                                quantize_activations=False),
}
#: name -> (registry model, width, frozen backbone)
MODELS = {
    "lenet5": ("lenet5", 0.5, False),
    "vit_tiny": ("vit_tiny", 0.5, False),
    "resnet50_frozen": ("resnet50", 0.125, True),
}
STEPS, BATCH, IMAGE = 4, 8, 16


def make_model(key: str):
    name, width, frozen = MODELS[key]
    model = build_model(name, seed=3, num_classes=10, image_size=IMAGE,
                        in_channels=3, width=width)
    if frozen:
        model.freeze_backbone()
    return model


def batches():
    rng = np.random.default_rng(0)
    for _ in range(STEPS):
        yield (rng.standard_normal((BATCH, 3, IMAGE, IMAGE))
               .astype(np.float32), rng.integers(0, 10, size=BATCH))


def digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str((part.dtype, part.shape)).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def int8_digest(model_key: str, config_key: str) -> str:
    trainer = Int8Trainer(make_model(model_key), lr=0.05,
                          config=CONFIGS[config_key], momentum=0.9,
                          weight_decay=1e-4, seed=7, max_grad_norm=0.5)
    losses = []
    for x, y in batches():
        losses.append(trainer.train_step(x, y))
    logits = trainer.predict_logits(x)
    state = trainer.runtime_state()
    return digest(losses, *state["model"].values(),
                  *state["optimizer"]["velocity"], state["rng"],
                  state["input_ema"], state["activation_emas"], logits)


def fp32_frozen_digest() -> str:
    model = make_model("resnet50_frozen")
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=1e-2, flat=model.flatten_parameters())
    losses = [train_step(model, optimizer, x, y) for x, y in batches()]
    return digest(losses, *model.state_dict().values(),
                  *optimizer.state_dict()["velocity"])


CASES = {
    **{f"{model}/{config}": (int8_digest, model, config)
       for model in MODELS for config in CONFIGS},
    "resnet50_frozen/fp32_sgd": (fp32_frozen_digest,),
}

GOLDEN_PATH = Path(__file__).with_name("quant_golden.json")


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden(key):
    compute, *args = CASES[key]
    assert compute(*args) == json.loads(GOLDEN_PATH.read_text())[key]


if __name__ == "__main__":                              # pragma: no cover
    table = {key: compute(*args)
             for key, (compute, *args) in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
