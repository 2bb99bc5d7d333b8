import gzip
import struct

import numpy as np
import pytest

from elastic_tickets import arch, data, nn
from elastic_tickets.errors import (ConfigError, DataBadMagic, DataCountMismatch,
                                    DataParseError, DataRecordMisaligned, DataTruncated)
from elastic_tickets.tensor import Rng
from support import channel_stats


def write_idx_images(path, images):
    n, r, c = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, r, c))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


@pytest.fixture
def mnist_fixture(tmp_path):
    rng = np.random.RandomState(0)
    tr_img = rng.randint(0, 256, size=(32, 28, 28))
    tr_lbl = rng.randint(0, 10, size=32)
    te_img = rng.randint(0, 256, size=(8, 28, 28))
    te_lbl = rng.randint(0, 10, size=8)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", tr_img)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", tr_lbl)
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", te_img)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", te_lbl)
    return tmp_path, tr_img, tr_lbl


def write_cifar_batch(path, images, labels):
    records = np.concatenate([np.asarray(labels, np.uint8)[:, None],
                              images.reshape(len(labels), -1)], axis=1)
    with open(path, "wb") as f:
        f.write(records.astype(np.uint8).tobytes())


@pytest.fixture
def cifar_fixture(tmp_path):
    rng = np.random.RandomState(1)
    imgs = rng.randint(0, 256, size=(10, 3, 32, 32)).astype(np.uint8)
    lbls = rng.randint(0, 10, size=10).astype(np.uint8)
    for i in range(1, 6):
        write_cifar_batch(tmp_path / f"data_batch_{i}.bin", imgs, lbls)
    write_cifar_batch(tmp_path / "test_batch.bin", imgs, lbls)
    return tmp_path, imgs, lbls


class TestMnistParser:
    def test_parses_counts_and_values(self, mnist_fixture):
        d, tr_img, tr_lbl = mnist_fixture
        train, test = data.load_mnist(str(d))
        assert len(train) == 32 and len(test) == 8
        assert train.images.shape == (32, 1, 28, 28)
        assert train.labels.tolist() == tr_lbl.tolist()
        assert 0 <= train.labels.min() and train.labels.max() <= 9
        want = (tr_img[0] / 255.0 - data.MNIST_MEAN) / data.MNIST_STD
        assert np.allclose(train.images[0, 0], want, atol=1e-6)

    def test_zero_pixel_normalizes_to_minus_mean_over_std(self, mnist_fixture):
        d, _, _ = mnist_fixture
        imgs = np.zeros((2, 28, 28), np.uint8)
        write_idx_images(d / "train-images-idx3-ubyte", imgs)
        write_idx_labels(d / "train-labels-idx1-ubyte", [0, 1])
        train, _ = data.load_mnist(str(d))
        assert np.allclose(train.images, -data.MNIST_MEAN / data.MNIST_STD, atol=1e-7)

    def test_gzip_supported(self, mnist_fixture, tmp_path):
        d, tr_img, tr_lbl = mnist_fixture
        out = tmp_path / "gz"
        out.mkdir()
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            with open(d / name, "rb") as f_in, gzip.open(out / (name + ".gz"), "wb") as f_out:
                f_out.write(f_in.read())
        train, _ = data.load_mnist(str(out))
        assert train.labels.tolist() == tr_lbl.tolist()

    def test_bad_magic(self, mnist_fixture):
        d, _, _ = mnist_fixture
        blob = bytearray((d / "train-images-idx3-ubyte").read_bytes())
        blob[2] = 9
        (d / "train-images-idx3-ubyte").write_bytes(bytes(blob))
        with pytest.raises(DataBadMagic):
            data.load_mnist(str(d))

    def test_truncated(self, mnist_fixture):
        d, _, _ = mnist_fixture
        blob = (d / "train-images-idx3-ubyte").read_bytes()
        (d / "train-images-idx3-ubyte").write_bytes(blob[:-5])
        with pytest.raises(DataTruncated):
            data.load_mnist(str(d))

    def test_count_mismatch_between_files(self, mnist_fixture):
        d, _, _ = mnist_fixture
        write_idx_labels(d / "train-labels-idx1-ubyte", [1, 2, 3])
        with pytest.raises(DataCountMismatch):
            data.load_mnist(str(d))

    def test_every_header_byte_flip_detected(self, mnist_fixture):
        d, tr_img, tr_lbl = mnist_fixture
        orig = (d / "train-images-idx3-ubyte").read_bytes()
        for pos in range(16):
            for bit in (0x01, 0x80):
                blob = bytearray(orig)
                blob[pos] ^= bit
                (d / "train-images-idx3-ubyte").write_bytes(bytes(blob))
                with pytest.raises(DataParseError):
                    data.load_mnist(str(d))
        (d / "train-images-idx3-ubyte").write_bytes(orig)
        data.load_mnist(str(d))  # restored file parses again


class TestCifarParser:
    def test_parses(self, cifar_fixture):
        d, imgs, lbls = cifar_fixture
        train, test = data.load_cifar10(str(d))
        assert len(train) == 50 and len(test) == 10
        assert train.images.shape == (50, 3, 32, 32)
        want = (imgs[0] / 255.0 - np.array(data.CIFAR10_MEAN).reshape(3, 1, 1)) \
            / np.array(data.CIFAR10_STD).reshape(3, 1, 1)
        assert np.allclose(train.images[0], want, atol=1e-6)

    def test_record_stride_is_3073(self, cifar_fixture):
        d, imgs, lbls = cifar_fixture
        assert (d / "data_batch_1.bin").stat().st_size == 10 * 3073

    def test_misaligned_file_reports_offset(self, cifar_fixture):
        d, _, _ = cifar_fixture
        blob = (d / "data_batch_2.bin").read_bytes()
        (d / "data_batch_2.bin").write_bytes(blob + b"\x00" * 7)
        with pytest.raises(DataRecordMisaligned, match="byte offset"):
            data.load_cifar10(str(d))

    def test_subdirectory_layout(self, cifar_fixture, tmp_path):
        d, _, lbls = cifar_fixture
        nested = tmp_path / "nested" / "cifar-10-batches-bin"
        nested.mkdir(parents=True)
        for f in d.glob("*.bin"):
            (nested / f.name).write_bytes(f.read_bytes())
        train, _ = data.load_cifar10(str(tmp_path / "nested"))
        assert train.labels[:10].tolist() == lbls.tolist()

    def test_bad_label_detected(self, cifar_fixture):
        d, _, _ = cifar_fixture
        blob = bytearray((d / "test_batch.bin").read_bytes())
        blob[0] = 77
        (d / "test_batch.bin").write_bytes(bytes(blob))
        with pytest.raises(DataRecordMisaligned):
            data.load_cifar10(str(d))

    def test_channel_stats_oracle(self):
        rng = Rng(5)
        images = rng.normal64("init", 20 * 3 * 4 * 4).reshape(20, 3, 4, 4) * 0.5 + 0.3
        mean, std = channel_stats(images)
        assert np.allclose(mean, images.mean(axis=(0, 2, 3)))
        assert np.allclose(std, images.std(axis=(0, 2, 3)))


class TestAugmentation:
    def test_deterministic(self):
        x = Rng(1).normal64("init", 6 * 3 * 8 * 8).reshape(6, 3, 8, 8).astype(np.float32)
        a = data.augment_batch(x, Rng(2), pad=2)
        b = data.augment_batch(x, Rng(2), pad=2)
        assert np.array_equal(a, b)

    def test_flip_is_involution(self):
        x = Rng(1).normal64("init", 2 * 3 * 8 * 8).reshape(2, 3, 8, 8).astype(np.float32)
        assert np.array_equal(x[:, :, :, ::-1][:, :, :, ::-1], x)

    def test_preserves_shape_and_content_statistics(self):
        x = Rng(3).normal64("init", 4 * 3 * 8 * 8).reshape(4, 3, 8, 8).astype(np.float32)
        out = data.augment_batch(x, Rng(4), pad=2)
        assert out.shape == x.shape
        assert np.isfinite(out).all()

    def test_cross_stream_isolation(self):
        # consuming augmentation draws must not advance data-order or init
        r1 = Rng(9)
        before = Rng(9).permutation("data-order", 20)
        r1.uniform64("augmentation", 1000)
        after = r1.permutation("data-order", 20)
        assert np.array_equal(before, after)

    def test_training_unaffected_by_augmentation_stream_use(self, blob_data):
        train_ds, test_ds = blob_data
        a = arch.mlp_arch([12, 8, 4])
        params = arch.init_params(a, Rng(31))
        cfg = nn.TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=5)

        def null_augment(x, rng):
            rng.uniform64("augmentation", 3 * len(x))  # draw and discard
            return x

        out1, _ = nn.train(a, params, {}, train_ds, test_ds, cfg)
        out2, _ = nn.train(a, params, {}, train_ds, test_ds, cfg, augment_fn=null_augment)
        assert all(np.array_equal(out1[k], out2[k]) for k in out1)


class TestSynth:
    def test_deterministic_bytes(self):
        spec = data.SynthSpec(n_per_class=20, num_classes=3, input_shape=(6,), noise=0.4, seed=3)
        a1, b1 = data.synth(spec)
        a2, b2 = data.synth(spec)
        assert a1.images.tobytes() == a2.images.tobytes()
        assert b1.images.tobytes() == b2.images.tobytes()
        assert a1.labels.tolist() == a2.labels.tolist()

    def test_empty(self):
        train, test = data.synth(data.SynthSpec(n_per_class=0, num_classes=3, input_shape=(4,)))
        assert len(train) == 0 and len(test) == 0
        a = arch.mlp_arch([4, 3, 3])
        params = arch.init_params(a, Rng(1))
        out, record = nn.train(a, params, {}, train, test,
                               nn.TrainConfig(epochs=2, batch_size=4, lr=0.1, seed=0))
        assert record.epoch_train_loss == []

    def test_zero_noise_blobs_linearly_separable(self):
        train, test = data.synth(data.SynthSpec(n_per_class=30, num_classes=4,
                                                input_shape=(10,), noise=0.0, seed=7))
        a = arch.mlp_arch([10, 8, 4])
        params = arch.init_params(a, Rng(2))
        cfg = nn.TrainConfig(epochs=10, batch_size=16, lr=0.2, momentum=0.9, seed=1)
        _, record = nn.train(a, params, {}, train, test, cfg)
        assert record.final_test_acc == 1.0

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_width8_mlp_95pct_within_200_steps(self, seed):
        train, test = data.synth(data.SynthSpec(seed=seed))
        a = arch.mlp_arch([16, 8, 10])
        params = arch.init_params(a, Rng(3))
        steps_per_epoch = -(-len(train) // 25)
        epochs = max(1, 200 // steps_per_epoch)
        assert epochs * steps_per_epoch <= 200
        cfg = nn.TrainConfig(epochs=epochs, batch_size=25, lr=0.1, momentum=0.9, seed=1)
        _, record = nn.train(a, params, {}, train, test, cfg)
        assert record.final_test_acc >= 0.95

    def test_two_spirals(self):
        train, test = data.synth(data.SynthSpec(generator="two-spirals", n_per_class=50,
                                                num_classes=2, input_shape=(2,), noise=0.01,
                                                seed=5))
        assert set(train.labels.tolist()) == {0, 1}
        assert train.images.shape[1:] == (2,)

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            data.synth(data.SynthSpec(generator="moons"))
