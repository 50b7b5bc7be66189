"""Inference convolutions build their columns a few samples at a time.

A ``conv2d`` whose columns nobody keeps for backward (``no_grad``:
``evaluate_accuracy``, ``update_alpha``, ``predict_logits``) unfolds
``_CHUNK`` samples at a time into one reused buffer and runs each
sample's ``matmul`` straight into the output — the same
``(O, C*k*k) x (C*k*k, L)`` panels as the whole-batch forward, where
only the panel's leading dimension differs.  So everything here is
compared *bit for bit*: against ``tests/nn/conv_reference.py`` and the
whole-batch forward over the shape classes, and against digests of
five models' logits recorded before the change.  A training forward
still keeps one whole-batch column array (captured plans do not move),
and its gradients keep their recorded digests.

Regenerate the digests with
``PYTHONPATH=src python -m tests.nn.test_inference_conv`` — and say in
CHANGES.md which moved and why.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.distributed.base import evaluate_accuracy
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.models.registry import build_model
from repro.quant import Int8Trainer, QuantConfig

from . import conv_reference as R
from .test_conv_layout import assert_same_bits, out_size, values

#: name -> (registry model, width, image size)
MODELS = {
    "vgg11": ("vgg11", 0.25, 16),
    "resnet18": ("resnet18", 0.25, 16),
    "mobilenet": ("mobilenet_v1", 0.25, 16),
    "lenet5": ("lenet5", 0.5, 28),
    "vit_tiny": ("vit_tiny", 0.5, 16),
}
#: evaluate_accuracy's batches: one whole 256 and a 44-sample tail
EVAL_SAMPLES = 300
#: update_alpha / predict_logits run their whole set as one batch
PREDICT_SAMPLES = 100
#: a training batch above the chunk
TRAIN_BATCH = 48

DIGESTS = {
    "eval/vgg11":
        "eda0ce72715337e83c56f333b10a18fcf670ec1ec8d4e3ff794ecee14d344552",
    "eval/resnet18":
        "aabfec9db65ee81fe419afc6378cce69e55d440de617417d7714c7a63a19c5b0",
    "eval/mobilenet":
        "fb0842c4cc6b1dd2c90c09352409d366e2734b97d2dae3802ef87f13e05ec77b",
    "eval/lenet5":
        "04b2eca73438c968395e81c323f6c0e4500e731201ecc505477d382d9fb90ccd",
    "eval/vit_tiny":
        "61366e7c370c9b143bed1107a716c9dc846545530e5fa8d0ac031a5a71586e80",
    "predict/vgg11":
        "cb3f65c2d84342ad51ac5ce1efd84230ba92148587ea63d2b3fc7ff1934b7697",
    "predict/resnet18":
        "d941873ecd165bde4be4fec27e4ffa68e94c85c7dde443022f510f9547ee9d51",
    "predict/mobilenet":
        "46f14fe6a77c61a8fecc613da3a1d71e5a488c2a168493963e28a083dbcf6a64",
    "predict/lenet5":
        "8c732855a82af0d83b3500c1b1b1ed84dea73cfad41470033e2ab790633fe23c",
    "predict/vit_tiny":
        "e32dedd95d13232b62f3944e13094fc7e7cdbf2a41f0c905b774256cf0f3769b",
    "train/vgg11":
        "8d08ff73ffcb952487bde52e3dc0cd619558979b6f3d5b8f870e6a828271c4ea",
    "train/mobilenet":
        "82c4cc9f6124a0f02bed86c4bbc2870778d1ebdbc17aa51fa6fbc73610a1b289",
}


def digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(str((part.dtype, part.shape)).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def make_model(key: str):
    name, width, size = MODELS[key]
    return build_model(name, seed=3, num_classes=10, image_size=size,
                       in_channels=3, width=width)


def inputs(key: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    size = MODELS[key][2]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((count, 3, size, size)).astype(np.float32)
    return x, rng.integers(0, 10, size=count)


def eval_digest(key: str) -> str:
    """The logits ``evaluate_accuracy`` computes, batch by batch."""
    model = make_model(key)
    x, y = inputs(key, EVAL_SAMPLES)
    model.eval()
    with no_grad():
        logits = np.concatenate([model(Tensor(x[lo:lo + 256])).data
                                 for lo in range(0, len(x), 256)])
    accuracy = evaluate_accuracy(model, x, y)
    assert accuracy == float(np.mean(logits.argmax(axis=1) == y))
    return digest(logits)


def predict_digest(key: str) -> str:
    trainer = Int8Trainer(make_model(key), lr=0.05, config=QuantConfig(),
                          seed=7)
    return digest(trainer.predict_logits(inputs(key, PREDICT_SAMPLES)[0]))


def train_digest(key: str) -> str:
    model = make_model(key)
    x, y = inputs(key, TRAIN_BATCH)
    model.train()
    loss = F.cross_entropy(model(Tensor(x)), y)
    loss.backward()
    return digest(loss.data, *(p.grad for p in model.parameters()))


CASES = {
    **{f"eval/{key}": (eval_digest, key) for key in MODELS},
    **{f"predict/{key}": (predict_digest, key) for key in MODELS},
    "train/vgg11": (train_digest, "vgg11"),
    "train/mobilenet": (train_digest, "mobilenet"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_logits_and_gradients_keep_their_digests(case):
    fn, *args = CASES[case]
    assert fn(*args) == DIGESTS[case]


def test_the_cases_straddle_the_chunk():
    assert TRAIN_BATCH > F._CHUNK
    assert PREDICT_SAMPLES > 2 * F._CHUNK
    assert (EVAL_SAMPLES - 256) % F._CHUNK


class Unfolds:
    """Records the batch of every ``im2col`` call ``conv2d`` makes
    (pooling's are not convolution columns)."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int, int, int]] = []
        self.groups = None
        unfold, conv = F.im2col, F.conv2d

        def recording(x, kernel, stride, out=None):
            if self.groups is not None:
                self.calls.append((len(x), kernel, stride, self.groups))
            return unfold(x, kernel, stride, out=out)

        def convolving(x, weight, *args, **kwargs):
            self.groups = x.shape[1] // weight.shape[1]
            try:
                return conv(x, weight, *args, **kwargs)
            finally:
                self.groups = None

        monkeypatch.setattr(F, "im2col", recording)
        monkeypatch.setattr(F, "conv2d", convolving)

    def batches(self, chunked_only: bool = False) -> set:
        """Batches unfolded; with ``chunked_only`` those of the convs
        inference chunks (``groups == 1``, not a 1x1 kernel at stride
        1, whose columns are a view of the input)."""
        return {n for n, kernel, stride, groups in self.calls
                if not chunked_only
                or (groups == 1 and (kernel, stride) != (1, 1))}


def chunk_cases():
    """(n, c, size, out_c, kernel, stride, padding, groups) over the
    batch sizes around the chunk, kernels 1/3/5, strides 1/2, padding
    0-2, plain and depthwise; size 3 under a 3x3 kernel is the 1x1
    map (one column a sample), and 7 under 5x5 at stride 2 the map
    two wide (gathered through an index)."""
    chunk = F._CHUNK
    cases = []
    for n, kernel, stride, padding, size in itertools.product(
            (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 256),
            (1, 3, 5), (1, 2), (0, 1, 2), (3, 7)):
        if size + 2 * padding < kernel:
            continue
        cases.append((n, 3, size, 4, kernel, stride, padding, 1))
        cases.append((n, 4, size, 4, kernel, stride, padding, 4))
    return cases


def test_chunked_forward_is_the_whole_batch_forward(monkeypatch):
    """Bit for bit, special values included, against the whole-batch
    forward (the same call on the tape) and the N-major reference."""
    unfolds = Unfolds(monkeypatch)
    for case in chunk_cases():
        n, c, size, out_c, kernel, stride, padding, groups = case
        rng = np.random.default_rng(hash(case) % 2**32)
        x = Tensor(values(rng, (n, c, size, size), special=True))
        w = Tensor(values(rng, (out_c, c // groups, kernel, kernel),
                          special=True), requires_grad=True)
        b = Tensor(values(rng, (out_c,)), requires_grad=True)
        unfolds.calls.clear()
        with no_grad():
            got = F.conv2d(x, w, b, stride, padding, groups)
        chunked = unfolds.batches(chunked_only=True)
        assert not got.requires_grad
        if chunked:
            assert max(chunked) == min(n, F._CHUNK), case
        unfolds.calls.clear()
        whole = F.conv2d(x, w, b, stride, padding, groups)
        assert whole.requires_grad and unfolds.batches() <= {n}
        want = R.conv2d(x, w, b, stride=stride, padding=padding,
                        groups=groups)
        side = out_size(size, kernel, stride, padding)
        assert got.shape == (n, out_c, side, side)
        assert_same_bits(got.data, whole.data, f"whole batch {case}")
        assert_same_bits(got.data, want.data, f"reference {case}")


@pytest.mark.parametrize("key", ["vgg11", "mobilenet"])
def test_training_keeps_whole_batch_columns(key, monkeypatch):
    """A training forward above the chunk unfolds the whole batch once
    per conv (its backward reads those columns); evaluation of the
    same batch unfolds no more than a chunk at a time."""
    unfolds = Unfolds(monkeypatch)
    assert train_digest(key) == DIGESTS[f"train/{key}"]
    assert unfolds.batches() == {TRAIN_BATCH}
    unfolds.calls.clear()
    model = make_model(key)
    model.eval()
    with no_grad():
        model(Tensor(inputs(key, TRAIN_BATCH)[0]))
    assert max(unfolds.batches(chunked_only=True)) == F._CHUNK


if __name__ == "__main__":
    for name, (fn, *args) in CASES.items():
        print(f'    "{name}":\n        "{fn(*args)}",')
