"""Synthetic dataset generator: determinism, shapes, difficulty knob."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import make_classification_images
from repro.data.datasets import DATASET_REGISTRY, load_dataset
from repro.nn import SGD, Tensor
from repro.nn import functional as F
from repro.nn.models import build_model


class TestShapes:
    def test_shapes_and_dtypes(self):
        task = make_classification_images(5, 100, 40, channels=3,
                                          image_size=14, seed=0)
        assert task.x_train.shape == (100, 3, 14, 14)
        assert task.x_train.dtype == np.float32
        assert task.y_train.dtype == np.int64
        assert task.input_shape == (3, 14, 14)

    def test_labels_in_range(self):
        task = make_classification_images(7, 200, 50, seed=1)
        assert task.y_train.min() >= 0
        assert task.y_train.max() < 7

    def test_subset(self):
        task = make_classification_images(4, 100, 60, seed=2)
        sub = task.subset(30, 10)
        assert len(sub.x_train) == 30
        assert len(sub.x_test) == 10
        np.testing.assert_array_equal(sub.x_train, task.x_train[:30])


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = make_classification_images(3, 50, 20, seed=42)
        b = make_classification_images(3, 50, 20, seed=42)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_different_seed_different_data(self):
        a = make_classification_images(3, 50, 20, seed=1)
        b = make_classification_images(3, 50, 20, seed=2)
        assert not np.allclose(a.x_train, b.x_train)


class TestDifficulty:
    def _linear_probe_accuracy(self, task, epochs=30):
        """A trained LeNet separates easy tasks better than hard ones."""
        model = build_model("lenet5", num_classes=task.num_classes,
                            in_channels=task.input_shape[0],
                            image_size=task.input_shape[1], width=0.5,
                            seed=0)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(epochs):
            model.train()
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(task.x_train)), task.y_train)
            loss.backward()
            opt.step()
        model.eval()
        from repro.nn.tensor import no_grad
        with no_grad():
            pred = model(Tensor(task.x_test)).numpy().argmax(1)
        return (pred == task.y_test).mean()

    def test_easier_task_is_more_learnable(self):
        easy = make_classification_images(4, 240, 120, channels=1,
                                          image_size=12, difficulty=0.1,
                                          seed=3)
        hard = make_classification_images(4, 240, 120, channels=1,
                                          image_size=12, difficulty=0.95,
                                          seed=3)
        assert (self._linear_probe_accuracy(easy)
                > self._linear_probe_accuracy(hard) + 0.1)

    def test_invalid_difficulty_raises(self):
        with pytest.raises(ValueError):
            make_classification_images(3, 10, 10, difficulty=1.5)

    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_any_class_count_generates(self, classes, seed):
        task = make_classification_images(classes, classes * 4, classes * 2,
                                          image_size=10, seed=seed)
        assert set(np.unique(task.y_train)) <= set(range(classes))


class TestGaussianMatchesScipy:
    """``data/synthetic.py`` smooths with numpy so no process imports
    ``scipy.ndimage``; scipy stays the reference it must equal byte for
    byte."""

    @staticmethod
    def _scipy_smooth(raw, sigma):
        from scipy import ndimage
        return ndimage.gaussian_filter(raw, sigma=(0, sigma, sigma))

    @pytest.mark.parametrize("size", [4, 5, 8, 12, 16, 17, 28, 32, 33])
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.5, 4.0, 4.125, 8.0])
    def test_filter_is_byte_identical(self, size, sigma):
        from repro.data.synthetic import _gaussian_smooth
        rng = np.random.default_rng(size * 1000 + int(sigma * 8))
        for channels in (1, 3):
            raw = rng.standard_normal((channels, size, size))
            ours = np.ascontiguousarray(_gaussian_smooth(raw, sigma))
            assert ours.tobytes() == self._scipy_smooth(raw, sigma).tobytes()

    @pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
    @pytest.mark.parametrize("image_size", [None, 16])
    def test_every_registry_dataset_is_byte_identical(self, name, image_size,
                                                      monkeypatch):
        from repro.data import synthetic
        ours = load_dataset(name, scale=0.002, image_size=image_size, seed=3)
        monkeypatch.setattr(synthetic, "_gaussian_smooth", self._scipy_smooth)
        reference = load_dataset(name, scale=0.002, image_size=image_size,
                                 seed=3)
        for attr in ("x_train", "y_train", "x_test", "y_test"):
            assert getattr(ours, attr).tobytes() == \
                getattr(reference, attr).tobytes(), attr

    def test_no_process_imports_scipy(self):
        """The import must be gone, not deferred into a timed region."""
        import subprocess
        import sys
        from pathlib import Path
        from repro.data import synthetic
        code = ("import sys; import repro.cli, repro.parallel, repro.jobs, "
                "repro.serving; from repro.data import load_dataset; "
                "load_dataset('cifar10', scale=0.001, image_size=8); "
                "sys.exit(any(m.split('.')[0] == 'scipy' "
                "for m in sys.modules))")
        src = str(Path(synthetic.__file__).parents[2])
        result = subprocess.run([sys.executable, "-c", code],
                                env={"PYTHONPATH": src, "PATH": ""},
                                timeout=120)
        assert result.returncode == 0


class TestBlockedSynthesis:
    """Images are synthesised a block of samples at a time into the
    float32 output.  The small draws (labels, prototype indices, shifts,
    gains) stay whole and in their order, and the noise is the same
    stream drawn block by block, so every task keeps the bytes it had
    when it was generated whole: the digests below were recorded then.
    """

    #: name -> generator arguments: the vgg11 and lenet5_emnist bench
    #: presets' tasks (many blocks) and a small odd one (one block)
    CASES = {
        "cifar10_bench": dict(num_classes=10, train_size=3000,
                              test_size=600, channels=3, image_size=16,
                              difficulty=0.55, seed=0),
        "emnist_bench": dict(num_classes=47, train_size=6768,
                             test_size=1128, channels=1, image_size=16,
                             difficulty=0.30, seed=1),
        "odd": dict(num_classes=7, train_size=37, test_size=11,
                    channels=2, image_size=12, difficulty=0.9,
                    prototypes_per_class=3, seed=5),
    }
    DIGESTS = {
        "cifar10_bench":
            "810e2e444de223e3362be90476a30ad9b5c8ac02d37fdb70e33f2548da05d8e5",
        "emnist_bench":
            "12f2908c2e57d27970af6e9c2a5d517b194dbefbb4b4a12e2d116672d426b977",
        "odd":
            "37e3314b5372605a85b0054c1cc810c40d24e66467f5ec5f01644eae9d61f062",
    }

    @staticmethod
    def digest(task) -> str:
        import hashlib
        sha = hashlib.sha256()
        for array in (task.x_train, task.y_train, task.x_test, task.y_test):
            sha.update(str((array.dtype, array.shape)).encode())
            sha.update(array.tobytes())
        return sha.hexdigest()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tasks_keep_their_bytes(self, name):
        task = make_classification_images(**self.CASES[name])
        assert self.digest(task) == self.DIGESTS[name]

    @pytest.mark.parametrize("name", ["cifar10_bench", "emnist_bench"])
    def test_peak_is_near_the_output(self, name):
        """The whole-batch float64 images and noise peaked at 4.3x the
        float32 output; a block at a time holds 1.5x at most."""
        import tracemalloc
        tracemalloc.start()
        try:
            task = make_classification_images(**self.CASES[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = task.x_train.nbytes + task.x_test.nbytes
        assert peak <= 1.5 * output, peak / output
