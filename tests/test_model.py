import struct

import numpy as np
import pytest

from osrkit.errors import ConfigError, DataError, UsageError
from osrkit.model import (
    Embedder,
    ModelConfig,
    ReciprocalBank,
    embed_backward,
    embed_forward,
    flatten,
    init_model,
    load_checkpoint,
    save_checkpoint,
    unflatten,
)
from osrkit.numerics import grad_check


class TestInitModel:
    def test_same_seed_bit_identical(self):
        cfg = ModelConfig([4, 3, 2], seed=42, init_scale=0.5)
        e1, b1 = init_model(cfg, 3)
        e2, b2 = init_model(cfg, 3)
        for w1, w2 in zip(e1.weights, e2.weights):
            assert (w1 == w2).all()
        assert (b1.points == b2.points).all()
        assert (b1.margins == b2.margins).all()

    def test_shapes_and_margin_init(self):
        emb, bank = init_model(ModelConfig([2, 2], seed=0), 3)
        assert bank.points.shape == (3, 2)
        np.testing.assert_array_equal(bank.margins, [0.0, 0.0, 0.0])
        assert emb.weights[0].shape == (2, 2)

    def test_init_bound(self):
        # fan_in 4, scale 0.1 -> all first-layer weights within +-0.05
        emb, _ = init_model(ModelConfig([4, 64], seed=1, init_scale=0.1), 2)
        assert (np.abs(emb.weights[0]) <= 0.1 / np.sqrt(4) + 1e-15).all()

    def test_point_bound_uses_embedding_dim(self):
        _, bank = init_model(ModelConfig([3, 9], seed=5, init_scale=0.3), 4)
        assert (np.abs(bank.points) <= 0.3 / np.sqrt(9) + 1e-15).all()

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            init_model(ModelConfig([4], seed=0), 3)
        with pytest.raises(ConfigError):
            init_model(ModelConfig([4, 0], seed=0), 3)
        with pytest.raises(ConfigError):
            init_model(ModelConfig([4, 2], seed=0, init_scale=0.0), 3)
        with pytest.raises(ConfigError):
            init_model(ModelConfig([4, 2], seed=0), 1)


class TestForward:
    def test_zero_params_zero_features(self):
        emb = Embedder([np.zeros((2, 3))], [np.zeros(3)])
        feats, _ = embed_forward(emb, [[1.0, 2.0], [3.0, 4.0]])
        assert (feats == 0).all()

    def test_identity_layer(self):
        emb = Embedder([np.eye(2)], [np.zeros(2)])
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        feats, _ = embed_forward(emb, x)
        np.testing.assert_array_equal(feats, x)

    def test_hand_computed_single_layer(self):
        emb = Embedder([np.array([[1.0], [1.0]])], [np.array([0.5])])
        feats, _ = embed_forward(emb, [[1.0, 2.0]])
        assert feats[0, 0] == pytest.approx(3.5)

    def test_deterministic(self):
        emb, _ = init_model(ModelConfig([3, 4, 2], seed=9), 2)
        x = np.random.default_rng(0).standard_normal((5, 3))
        f1, _ = embed_forward(emb, x)
        f2, _ = embed_forward(emb, x)
        assert (f1 == f2).all()

    def test_dim_mismatch(self):
        emb, _ = init_model(ModelConfig([3, 2], seed=0), 2)
        with pytest.raises(ConfigError):
            embed_forward(emb, [[1.0, 2.0]])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        emb, _ = init_model(ModelConfig([3, 4, 2], seed=1), 2)
        x = np.random.default_rng(1).standard_normal((4, 3))
        feats, cache = embed_forward(emb, x)
        grads, gx = embed_backward(cache, np.zeros_like(feats))
        assert all((g == 0).all() for g in grads.weights)
        assert all((g == 0).all() for g in grads.biases)
        assert (gx == 0).all()

    def test_identity_layer_passthrough(self):
        emb = Embedder([np.eye(2)], [np.zeros(2)])
        x = np.array([[1.0, -2.0]])
        _, cache = embed_forward(emb, x)
        g = np.array([[0.3, -0.7]])
        _, gx = embed_backward(cache, g)
        np.testing.assert_array_equal(gx, g)

    def test_stale_cache_rejected(self):
        emb, _ = init_model(ModelConfig([3, 2], seed=0), 2)
        _, cache = embed_forward(emb, np.zeros((4, 3)))
        with pytest.raises(UsageError):
            embed_backward(cache, np.zeros((5, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        dims = [3, 5, 2]
        emb, _ = init_model(ModelConfig(dims, seed=3), 2)
        x = rng.standard_normal((4, 3))
        sizes = [w.size for w in emb.weights] + [b.size for b in emb.biases]

        def value_at(vec):
            off = 0
            ws, bs = [], []
            for w in emb.weights:
                ws.append(vec[off : off + w.size].reshape(w.shape))
                off += w.size
            for b in emb.biases:
                bs.append(vec[off : off + b.size])
                off += b.size
            feats, _ = embed_forward(Embedder(ws, bs), x)
            return float(feats.sum())

        feats, cache = embed_forward(emb, x)
        grads, _ = embed_backward(cache, np.ones_like(feats))
        analytic = np.concatenate(
            [g.ravel() for g in grads.weights] + [g.ravel() for g in grads.biases]
        )
        x0 = np.concatenate(
            [w.ravel() for w in emb.weights] + [b.ravel() for b in emb.biases]
        )
        assert sum(sizes) == x0.size
        assert grad_check(value_at, x0, analytic, 1e-5) < 1e-4

    def test_relu_mask_consistency(self):
        # a hidden unit that is dead for every sample gets exactly zero
        # gradient on its bias and incoming weights
        rng = np.random.default_rng(8)
        emb, _ = init_model(ModelConfig([4, 6, 3], seed=8), 2)
        emb.biases[0][:] = -100.0  # kill some units outright
        emb.biases[0][0] = 100.0   # keep one alive
        x = rng.standard_normal((5, 4))
        _, cache = embed_forward(emb, x)
        grads, _ = embed_backward(cache, rng.standard_normal((5, 3)))
        dead = (cache.activations[1] <= 0).all(axis=0)
        assert dead[1:].all() and not dead[0]
        assert (grads.biases[0][dead] == 0).all()
        assert (grads.weights[0][:, dead] == 0).all()


class TestParameterVector:
    def test_flatten_unflatten_round_trip(self):
        arrays = [np.arange(6.0).reshape(2, 3), np.array([6.0]), np.array(7.0)]
        vec = flatten(*arrays)
        np.testing.assert_array_equal(vec, np.arange(8.0))
        views = unflatten(vec, arrays)
        for view, a in zip(views, arrays):
            assert view.shape == a.shape and np.shares_memory(view, vec)
            np.testing.assert_array_equal(view, a)

    def test_unflatten_size_mismatch(self):
        for size in (3, 5):
            with pytest.raises(ValueError):
                unflatten(np.zeros(size), [np.zeros(2), np.zeros(2)])


def _block(*values):
    """One OSRP float block: a u32 count, then little-endian float64s."""
    return struct.pack(f"<I{len(values)}d", len(values), *values)


def _osrp_v1(version=1, dims=(2, 1), k=2, margins=(0.0, 0.75)):
    """OSRP v1 bytes, written field by field, of a [2, 1] embedder and a K = 2 bank."""
    return b"".join([
        b"OSRP", struct.pack("<H", version),
        struct.pack(f"<{len(dims) + 1}I", len(dims), *dims),
        _block(0.5, -1.25), _block(0.25),  # the weight (2 x 1) and the bias
        struct.pack("<I", k), _block(1.0, -2.0), _block(*margins),  # points (2 x 1), margins
    ])


# one corruption of the v1 bytes per message that load_checkpoint raises
CORRUPT_CHECKPOINTS = {
    "unsupported checkpoint version 2": _osrp_v1(version=2),
    r"invalid layer dims \[2, 0\]": _osrp_v1(dims=(2, 0)),
    "weight block size mismatch": _osrp_v1(dims=(3, 1)),
    "bias block size mismatch": _osrp_v1(dims=(1, 2)),
    "point block size mismatch": _osrp_v1(k=3),
    "margin block size mismatch": _osrp_v1(margins=(0.75,)),
    "trailing bytes after checkpoint payload": _osrp_v1() + b"\x00",
}


class TestCheckpoint:
    def test_v1_golden_bytes(self, tmp_path):
        emb, bank = init_model(ModelConfig([2, 1], seed=0), 2)
        emb.weights[0][:] = [[0.5], [-1.25]]
        emb.biases[0][:] = [0.25]
        bank.points[:] = [[1.0], [-2.0]]
        bank.margins[:] = [0.0, 0.75]
        path = tmp_path / "model.osrp"
        save_checkpoint(path, emb, bank)
        assert path.read_bytes() == _osrp_v1()
        emb2, bank2 = load_checkpoint(path)
        assert emb2.layer_dims == [2, 1]
        for a, b in zip(emb.weights + emb.biases + [bank.points, bank.margins],
                        emb2.weights + emb2.biases + [bank2.points, bank2.margins]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("message", sorted(CORRUPT_CHECKPOINTS))
    def test_corrupt_v1_rejected(self, tmp_path, message):
        path = tmp_path / "model.osrp"
        path.write_bytes(CORRUPT_CHECKPOINTS[message])
        with pytest.raises(DataError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_round_trip_bit_exact(self, tmp_path):
        emb, bank = init_model(ModelConfig([3, 5, 2], seed=17, init_scale=0.7), 4)
        bank.margins[:] = [0.0, 0.5, 1.25, 0.0]
        path = tmp_path / "model.osrp"
        save_checkpoint(path, emb, bank)
        emb2, bank2 = load_checkpoint(path)
        assert emb2.layer_dims == emb.layer_dims
        for a, b in zip(emb.weights + emb.biases, emb2.weights + emb2.biases):
            assert a.tobytes() == b.tobytes()
        assert bank.points.tobytes() == bank2.points.tobytes()
        assert bank.margins.tobytes() == bank2.margins.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.osrp"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        emb, bank = init_model(ModelConfig([2, 2], seed=0), 2)
        path = tmp_path / "model.osrp"
        save_checkpoint(path, emb, bank)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("array", ["weights", "biases", "points", "margins"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, array, value):
        emb, bank = init_model(ModelConfig([3, 4, 2], seed=0), 3)
        target = getattr(emb, array)[-1] if array in ("weights", "biases") else getattr(bank, array)
        target.flat[-1] = value
        path = tmp_path / "model.osrp"
        save_checkpoint(path, emb, bank)
        with pytest.raises(DataError, match="non-finite") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_points_rejected(self, tmp_path, k):
        emb, _ = init_model(ModelConfig([3, 2], seed=0), 2)
        path = tmp_path / "model.osrp"
        save_checkpoint(path, emb, ReciprocalBank(np.zeros((k, 2)), np.zeros(k)))
        with pytest.raises(DataError, match="need >= 2") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_margin_projection(self):
        bank = ReciprocalBank(np.zeros((3, 2)), np.array([0.5, -0.2, 0.0]))
        bank.project_margins()
        np.testing.assert_array_equal(bank.margins, [0.5, 0.0, 0.0])
